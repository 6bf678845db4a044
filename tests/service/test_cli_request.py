"""End-to-end CLI coverage: ``repro-mergesort request`` against a live daemon.

The daemon comes from the ``service_factory`` fixture; the CLI talks to
it over loopback exactly as an operator would.
"""

import numpy as np

from repro.cli import main


def url(box) -> str:
    return f"http://127.0.0.1:{box.service.port}"


class TestRequestCli:
    def test_healthz(self, service_factory, capsys):
        with service_factory() as box:
            assert main(["request", "healthz", "--url", url(box)]) == 0
            assert '"status": "ok"' in capsys.readouterr().out

    def test_simulate_prints_summary(self, service_factory, capsys):
        with service_factory() as box:
            assert (
                main(["request", "simulate", "--url", url(box),
                      "--preset", "mgpu-maxwell", "--tiles", "2",
                      "--score-blocks", "2"])
                == 0
            )
            out = capsys.readouterr().out
            assert "sorted correctly: True" in out
            assert "served by coalescing: False" in out

    def test_construct_saves_npy(self, service_factory, tmp_path, capsys):
        from repro.adversary.permutation import worst_case_permutation
        from repro.sort.presets import preset

        out_path = tmp_path / "perm.npy"
        with service_factory() as box:
            assert (
                main(["request", "construct", "--url", url(box),
                      "--preset", "mgpu-maxwell", "--tiles", "2",
                      "--out", str(out_path)])
                == 0
            )
            stdout = capsys.readouterr().out
            assert "constructed worst-case permutation" in stdout
        cfg = preset("mgpu-maxwell")
        expected = worst_case_permutation(cfg, cfg.tile_size * 2)
        assert np.array_equal(np.load(out_path), expected)

    def test_stats_then_shutdown(self, service_factory, capsys):
        with service_factory() as box:
            assert main(["request", "stats", "--url", url(box)]) == 0
            assert '"batching"' in capsys.readouterr().out
            assert main(["request", "shutdown", "--url", url(box)]) == 0
            assert '"draining"' in capsys.readouterr().out
            box.thread.join(30)
            assert not box.thread.is_alive()


class TestEngineSelection:
    """``request --engine`` maps a registry name to wire fields; names
    with no wire equivalent (and conflicting flag combos) exit 2."""

    def test_engine_analytic_round_trips(self, service_factory, capsys):
        with service_factory() as box:
            assert (
                main(["request", "simulate", "--url", url(box),
                      "--preset", "mgpu-maxwell", "--tiles", "2",
                      "--engine", "analytic"])
                == 0
            )
            assert "sorted correctly: True" in capsys.readouterr().out

    def test_engine_inline_vectorized_round_trips(
        self, service_factory, capsys
    ):
        with service_factory() as box:
            assert (
                main(["request", "simulate", "--url", url(box),
                      "--preset", "mgpu-maxwell", "--tiles", "2",
                      "--engine", "inline-vectorized"])
                == 0
            )
            assert "sorted correctly: True" in capsys.readouterr().out

    def test_engine_pool_has_no_wire_equivalent(self, service_factory, capsys):
        with service_factory() as box:
            assert (
                main(["request", "simulate", "--url", url(box),
                      "--preset", "mgpu-maxwell", "--tiles", "2",
                      "--engine", "pool"])
                == 2
            )
            assert "no wire equivalent" in capsys.readouterr().err

    def test_engine_and_scoring_are_mutually_exclusive(
        self, service_factory, capsys
    ):
        with service_factory() as box:
            assert (
                main(["request", "simulate", "--url", url(box),
                      "--preset", "mgpu-maxwell", "--tiles", "2",
                      "--engine", "analytic", "--scoring", "loop"])
                == 2
            )
            assert "mutually exclusive" in capsys.readouterr().err

    def test_unknown_scoring_exits_2_at_argparse(self, capsys):
        """``--scoring`` is a closed argparse choice list drawn from the
        registry, so a bogus value never reaches the wire. (The server's
        own parse-time 400 for hand-rolled clients is covered in
        ``test_server.py::TestScoringAndPadding``.)"""
        import pytest

        with pytest.raises(SystemExit) as exc:
            main(["request", "simulate", "--url", "http://127.0.0.1:1",
                  "--preset", "mgpu-maxwell", "--tiles", "2",
                  "--scoring", "warp-speed"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
