"""Command-line interface: ``python -m repro`` / ``repro-mergesort``.

Subcommands:

* ``construct`` — print a worst-case warp layout (paper Fig. 3 style);
* ``simulate`` — sort one input through the instrumented simulator and
  report per-round conflicts and simulated runtime;
* ``sweep`` — a throughput size sweep for one (preset, device, input);
* ``matrix`` — the adversary-vs-mitigation robustness matrix: every
  input family × sort backend × mitigation layout, scored exactly;
* ``figure`` — regenerate a paper figure (1, 3, 4, 5, 6, or ``theory``);
* ``cache`` — inspect, clear, or prune the on-disk bench-result cache;
* ``serve`` — run the long-lived generation-and-scoring daemon
  (:mod:`repro.service`);
* ``request`` — send one request to a running daemon instead of
  cold-starting the library in this process.

The sweep-driven commands (``sweep``, ``figure 4/5/6``, ``grid``,
``reproduce``) accept ``--jobs N`` to fan independent points out over a
worker pool and ``--cache`` / ``--cache-dir`` to reuse previously
computed points and calibrations from disk; per-point progress/timing
lines go to stderr so long sweeps stay observable.

Exit codes: 0 success, 2 invalid input (bad arguments, unknown presets,
malformed requests — also argparse's usage-error code), 3 internal
errors (simulator inconsistencies, unreachable/failing service), 1
verification failures from ``reproduce`` and unexpected crashes.
"""

from __future__ import annotations

import argparse
import sys

#: Exit codes (see module docstring). Validation matches argparse's 2.
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

import numpy as np

from repro.adversary.assignment import construct_warp_assignment
from repro.bench import slowdown_stats
from repro.bench.ascii_plot import bank_matrix_str, line_plot, table
from repro.bench.cache import BenchCache
from repro.bench.figures import figure1, figure3, figure4, figure5, figure6, theory_table
from repro.bench.report import (
    render_figure4,
    render_figure5,
    render_figure6,
    render_theory_table,
)
from repro.engine import (
    SortTask,
    WorkItem,
    cache_ref,
    create_engine,
    execute_items,
)
from repro.engine.registry import (
    DEFAULT_SCORING,
    SCORING_MODES,
    SIMULATOR_SCORINGS,
    engine_for_scoring,
    scoring_for_engine,
)
from repro.gpu.device import get_device
from repro.gpu.occupancy import occupancy
from repro.inputs.generators import GENERATORS, generate
from repro.mitigation import MITIGATION_MODES, create_mitigation
from repro.sort.presets import preset

__all__ = ["main"]


def _add_bench_exec_args(p: argparse.ArgumentParser) -> None:
    """Shared parallel/caching options for the sweep-driven commands."""
    p.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes for independent sweep points (default 1)",
    )
    p.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="reuse bench points/calibrations from the on-disk cache",
    )
    p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache location (implies --cache; default "
        "~/.cache/repro-mergesort)",
    )


def _add_mitigation_arg(p: argparse.ArgumentParser) -> None:
    """Shared ``--mitigation`` option for the scoring commands."""
    modes = ", ".join(MITIGATION_MODES)
    p.add_argument(
        "--mitigation", default="none", metavar="SPEC",
        help=f"layout defense applied to shared-memory addresses: one of "
        f"{modes} (padding takes an optional width, e.g. padding:2; "
        "see docs/MITIGATIONS.md; default none)",
    )


def _package_version() -> str:
    """Installed distribution version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed (PYTHONPATH=src runs)
        from repro import __version__

        return __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mergesort",
        description="Worst-case inputs for GPU pairwise merge sort "
        "(Berney & Sitchinava, IPPS 2020) — simulator and bench harness.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="print a worst-case warp layout")
    p.add_argument("--warp", type=int, default=32, help="warp width w")
    p.add_argument("--elements", "-E", type=int, default=15, help="E per thread")

    p = sub.add_parser("simulate", help="run one instrumented sort")
    p.add_argument("--preset", default="thrust-maxwell")
    p.add_argument("--device", default="quadro-m4000")
    p.add_argument("--input", default="worst-case", choices=sorted(GENERATORS))
    p.add_argument("--tiles", type=int, default=64, help="input size in tiles (2^k)")
    p.add_argument("--score-blocks", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scoring", default="vectorized",
        choices=list(SIMULATOR_SCORINGS),
        help="round-scoring engine: vectorized (default), loop (the "
        "per-tile oracle), fused (single-pass rounds, compiled kernels "
        "when built — bit-identical, ~10x), or analytic (closed-form, "
        "constructed families only — bit-identical and ~1000x faster)",
    )
    p.add_argument(
        "--engine", default=None,
        choices=["inline-loop", "inline-vectorized", "inline-fused",
                 "analytic"],
        help="execution engine by registry name; overrides --scoring "
        "(which otherwise picks the engine through the same registry)",
    )
    _add_mitigation_arg(p)

    p = sub.add_parser("sweep", help="throughput sweep, random vs one input")
    p.add_argument("--preset", default="thrust-maxwell")
    p.add_argument("--device", default="quadro-m4000")
    p.add_argument("--input", default="worst-case", choices=sorted(GENERATORS))
    p.add_argument("--max-elements", type=int, default=300_000_000)
    p.add_argument("--exact-threshold", type=int, default=1 << 20)
    p.add_argument("--score-blocks", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scoring", default=DEFAULT_SCORING,
        choices=list(SCORING_MODES),
        help="auto (default) scores analytic-eligible constructed-family "
        "points closed-form and simulates the rest; results are "
        "bit-identical either way",
    )
    p.add_argument(
        "--engine", default=None,
        choices=["inline", "pool", "service"],
        help="execution engine: inline (serial; the --jobs 1 default), "
        "pool (worker processes; the --jobs N default), or service (a "
        "running repro-mergesort serve daemon at --url). Points are "
        "bit-identical across all of them",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="daemon URL for --engine service (default %(default)s)",
    )
    _add_mitigation_arg(p)
    _add_bench_exec_args(p)

    p = sub.add_parser(
        "matrix",
        help="adversary-vs-mitigation robustness matrix: input family x "
        "sort backend x mitigation, scored exactly",
    )
    p.add_argument(
        "--inputs", default=",".join(
            ("sorted", "random", "conflict-heavy", "worst-case")
        ),
        help="comma-separated input families (default %(default)s)",
    )
    p.add_argument(
        "--backends", default="pairwise,bitonic,multiway",
        help="comma-separated sort backends (default %(default)s)",
    )
    p.add_argument(
        "--mitigations", default="none,padding:1,cfree-sort,cfree-permute",
        help="comma-separated mitigation specs (default %(default)s)",
    )
    p.add_argument("--tiles", type=int, default=8,
                   help="input size in tiles of 256 (power of two so the "
                   "bitonic backend can share the grid; default 8)")
    p.add_argument("--score-blocks", type=int, default=None,
                   help="sampled blocks per round (default: score every "
                   "block — exact cells)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cells", action="store_true",
                   help="also print one grep-friendly line per cell")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the matrix as JSON")

    p = sub.add_parser("figure", help="regenerate a paper figure")
    p.add_argument("which", choices=["1", "3", "4", "5", "6", "theory"])
    p.add_argument("--max-elements", type=int, default=300_000_000)
    p.add_argument("--markdown", action="store_true", help="emit markdown tables")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the figure data as JSON")
    _add_bench_exec_args(p)

    p = sub.add_parser(
        "grid",
        help="profile an (E, b) grid on a device: occupancy, random/worst "
        "throughput, slowdown",
    )
    p.add_argument("--device", default="quadro-m4000")
    p.add_argument("--es", default="7,9,11,13,15,17,23,31")
    p.add_argument("--bs", default="128,256,512")
    p.add_argument("--target-elements", type=int, default=30_000_000)
    p.add_argument("--top", type=int, default=12)
    _add_bench_exec_args(p)

    p = sub.add_parser(
        "reproduce",
        help="run the whole experiment registry against the paper's bands "
        "and print PASS/FAIL verdicts",
    )
    p.add_argument("--full", action="store_true",
                   help="paper-scale sweeps (minutes) instead of quick mode")
    p.add_argument("--only", default=None,
                   help="run a single experiment by id")
    _add_bench_exec_args(p)

    p = sub.add_parser(
        "cache",
        help="inspect, clear, or prune the on-disk bench-result cache",
    )
    p.add_argument("action", choices=["stats", "clear", "prune"])
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache location (default ~/.cache/repro-mergesort)")
    p.add_argument(
        "--max-mb", type=float, default=None, metavar="N",
        help="prune: evict least-recently-written entries until the cache "
        "holds at most N MiB",
    )

    p = sub.add_parser(
        "serve",
        help="run the generation-and-scoring daemon (see docs/SERVICE.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8787,
                   help="listen port (0 = ephemeral, reported in the log)")
    p.add_argument("--queue-limit", type=int, default=8, metavar="N",
                   help="max concurrently admitted computations; beyond it "
                   "new non-coalesced requests get HTTP 429 (default 8)")
    p.add_argument("--request-timeout", type=float, default=600.0,
                   metavar="SECONDS", help="per-request deadline (default 600)")
    p.add_argument("--drain-timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="how long shutdown waits for in-flight work "
                   "(default 60)")
    p.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                   help="worker processes for /sweep and /jobs fan-out; "
                   "also the chunks one job keeps in flight (default 1)")
    p.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False,
        help="attach the on-disk bench cache to /sweep",
    )
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache location (implies --cache)")
    p.add_argument(
        "--quota-per-minute", type=int, default=0, metavar="N",
        help="per-client compute-request quota (requests/minute, then "
        "HTTP 429; 0 = unlimited)",
    )

    p = sub.add_parser(
        "request",
        help="send one request to a running daemon (serve) and print the "
        "result",
    )
    p.add_argument(
        "action",
        choices=["healthz", "stats", "construct", "simulate", "sweep",
                 "job", "shutdown"],
    )
    p.add_argument("--url", default="http://127.0.0.1:8787",
                   help="base URL of the daemon (default %(default)s)")
    p.add_argument("--timeout", type=float, default=630.0,
                   help="client socket timeout in seconds")
    p.add_argument("--preset", default="thrust-maxwell")
    p.add_argument("--device", default="quadro-m4000",
                   help="sweep only; simulate results are device-independent")
    p.add_argument("--input", default="worst-case", choices=sorted(GENERATORS))
    p.add_argument("--tiles", type=int, default=64,
                   help="construct/simulate input size in tiles")
    p.add_argument("--max-elements", type=int, default=2_000_000,
                   help="sweep size ceiling")
    p.add_argument("--exact-threshold", type=int, default=1 << 20)
    p.add_argument("--score-blocks", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scoring", default=None,
        choices=list(SCORING_MODES),
        help="scoring engine forwarded to the daemon (simulate defaults "
        "to vectorized, sweep to auto)",
    )
    p.add_argument(
        "--engine", default=None, metavar="NAME",
        help="in-process engine name whose scoring wire field to "
        "forward (exclusive with --scoring; pool/service are execution "
        "strategies, not scorers, and are rejected)",
    )
    _add_mitigation_arg(p)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="construct: also save the permutation as .npy")
    p.add_argument("--chunk-sizes", type=int, default=4,
                   help="job: sweep sizes per scheduler chunk")
    p.add_argument(
        "--mitigations", default=None, metavar="SPECS",
        help="job: comma-separated mitigation specs to cross the sweep "
        "grid with (the matrix experiment's service leg; "
        "exclusive with --mitigation)",
    )
    p.add_argument("--max-retries", type=int, default=2,
                   help="job: re-queues per chunk on worker failure")
    p.add_argument("--no-wait", action="store_true",
                   help="job: print the job_id and return without polling")

    p = sub.add_parser(
        "bench",
        help="micro-benchmark the scoring kernels (record_timing-shaped "
        "JSON, gateable with benchmarks/check_regression.py)",
    )
    p.add_argument("action", choices=["kernels"])
    p.add_argument("--preset", default="thrust-maxwell")
    p.add_argument("--tiles", type=int, default=16,
                   help="working-set size in tiles (N = tiles*bE)")
    p.add_argument("--repeat", type=int, default=5,
                   help="samples per kernel; the median is reported")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the timings as a bench JSON document")

    p = sub.add_parser(
        "analyze",
        help="expected-case analysis: measured beta1/beta2 vs inversions, "
        "plus balls-in-bins predictions",
    )
    p.add_argument("--preset", default="mgpu-maxwell")
    p.add_argument("--tiles", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_construct(args) -> int:
    wa = construct_warp_assignment(args.warp, args.elements)
    print(
        f"w={wa.warp_size} E={wa.elements_per_thread} target bank s="
        f"{wa.target_bank} aligned={wa.aligned_count()} "
        f"(max possible E^2={wa.elements_per_thread ** 2})"
    )
    print("thread tuples (A-count, B-count), * = scans A first:")
    print(
        "  "
        + " ".join(
            f"({a},{b}){'*' if f else ' '}"
            for (a, b), f in zip(wa.tuples, wa.a_first)
        )
    )
    a_owners, b_owners = wa.bank_matrix()
    print(bank_matrix_str(a_owners, label="A list (entries are thread ids):"))
    print(bank_matrix_str(b_owners, label="B list:"))
    return 0


def _cmd_simulate(args) -> int:
    from repro.errors import ValidationError

    config = preset(args.preset)
    device = get_device(args.device)
    n = config.tile_size * args.tiles
    data = generate(args.input, config, n, seed=args.seed)
    layout = create_mitigation(args.mitigation, field="--mitigation")
    engine_name = args.engine or engine_for_scoring(args.scoring)
    if engine_name == "analytic" and not layout.analytic_supported:
        raise ValidationError(
            f"the analytic engine cannot model mitigation {layout.spec!r}; "
            "use a simulated engine (e.g. --scoring fused)"
        )
    result = create_engine(engine_name).run_sort(
        SortTask(
            config=config,
            input_name=args.input,
            num_elements=n,
            score_blocks=args.score_blocks,
            seed=args.seed,
            values=data,
            mitigation=layout.spec,
        )
    )
    ok = bool(np.array_equal(result.values, np.sort(data)))
    # Occupancy is charged at the mitigation's physical footprint (the
    # stock layout's for "none").
    occ = occupancy(device, config.block_size, layout.shared_bytes(config))
    cost = result.kernel_cost(occ.warps_per_sm)
    from repro.gpu.timing import TimingModel

    model = TimingModel(device)
    rows = [
        {
            "round": r.label,
            "kind": r.kind,
            "merge cycles": round(r.merge_report.total_transactions * r.scale),
            "partition cycles": round(r.partition_report.total_transactions * r.scale),
            "replays": round(r.replays),
        }
        for r in result.rounds
    ]
    print(table(rows))
    print(
        f"\nsorted correctly: {ok}   occupancy: {occ.occupancy:.0%} "
        f"({occ.blocks_per_sm} blocks/SM, limiter: {occ.limiter})"
    )
    print(
        f"N={n:,}  conflicts/elem={result.replays_per_element():.2f}  "
        f"simulated {model.milliseconds(cost):.3f} ms  "
        f"({model.throughput_meps(cost, n):.0f} Melem/s on {device.name})"
    )
    if layout.spec != "none":
        print(f"mitigation: {layout.describe()}")
    if args.input == "worst-case" and layout.spec == "none":
        # Verification asserts the *stock* layout serializes; under a
        # mitigation the whole point is that it no longer does.
        from repro.adversary.verify import verify_worst_case

        report = verify_worst_case(config, data, score_blocks=args.score_blocks)
        print(f"worst-case verification: {report.summary()}")
    return 0


def _bench_cache(args) -> BenchCache | None:
    """The cache selected by ``--cache`` / ``--cache-dir`` (or ``None``)."""
    if getattr(args, "cache", False) or getattr(args, "cache_dir", None):
        return BenchCache(args.cache_dir)
    return None


def _progress_printer(stream=None):
    """Per-point progress/timing lines (stderr by default).

    Each event is rendered with one atomic ``write`` + an explicit
    ``flush`` so concurrent writers (worker callbacks, server log lines,
    CI annotations) never interleave mid-line and piped output never
    stalls in a block buffer. On a TTY, intermediate points update one
    live line in place (CR + erase) and only the final point commits a
    newline; on non-TTY streams — CI logs, files, pipes — this falls
    back to plain line-buffered output, one full line per event.
    """
    if stream is None:
        stream = sys.stderr
    tty = bool(getattr(stream, "isatty", lambda: False)())

    def emit(event) -> None:
        line = event.describe()
        if tty:
            end = "\n" if event.done >= event.total else "\r"
            text = f"\x1b[2K{line}{end}"
        else:
            text = f"{line}\n"
        try:
            stream.write(text)
            stream.flush()
        except (OSError, ValueError):
            pass  # broken pipe / closed log: progress is best-effort

    return emit


def _cmd_sweep(args) -> int:
    config = preset(args.preset)
    device = get_device(args.device)
    layout = create_mitigation(args.mitigation, field="--mitigation")
    sizes = [n for n in config.valid_sizes(args.max_elements) if n >= 100_000]
    cache_dir, use_cache = cache_ref(_bench_cache(args))
    items = [
        WorkItem(
            config=config,
            device=device,
            input_name=name,
            num_elements=n,
            exact_threshold=args.exact_threshold,
            score_blocks=args.score_blocks,
            seed=args.seed,
            scoring=args.scoring,
            mitigation=layout.spec,
            cache_dir=cache_dir,
            use_cache=use_cache,
        )
        for name in ("random", args.input)
        for n in sizes
    ]
    progress = _progress_printer()
    if args.engine is None:
        # Default routing: serial inline for --jobs 1, a pool otherwise —
        # the same decision the service daemon makes.
        points = execute_items(items, jobs=args.jobs, progress=progress)
    else:
        kwargs = {}
        if args.engine == "pool":
            kwargs["jobs"] = max(args.jobs, 1)
        elif args.engine == "service":
            kwargs["url"] = args.url
        with create_engine(args.engine, **kwargs) as engine:
            points = engine.run_points(items, progress=progress)
    base, other = points[: len(sizes)], points[len(sizes):]
    rows = [
        {
            "N": p.num_elements,
            "random Melem/s": p.throughput_meps,
            f"{args.input} Melem/s": q.throughput_meps,
            "slowdown %": (q.milliseconds / p.milliseconds - 1) * 100,
        }
        for p, q in zip(base, other)
    ]
    print(table(rows))
    print(f"\n{args.input} vs random: {slowdown_stats(base, other)}")
    print(
        line_plot(
            {
                "random": (sizes, [p.throughput_meps for p in base]),
                args.input: (sizes, [p.throughput_meps for p in other]),
            },
            title=f"{config.name} on {device.name} (Melem/s vs N, log x)",
        )
    )
    return 0


def _cmd_matrix(args) -> int:
    from repro.bench.matrix import run_matrix

    result = run_matrix(
        input_names=tuple(x for x in args.inputs.split(",") if x),
        backends=tuple(x for x in args.backends.split(",") if x),
        mitigations=tuple(x for x in args.mitigations.split(",") if x),
        tiles=args.tiles,
        score_blocks=args.score_blocks,
        seed=args.seed,
    )
    print(
        f"adversary-vs-mitigation matrix: {result.config.name} "
        f"(E={result.config.E}, b={result.config.b}, w={result.config.w}), "
        f"N={result.num_elements:,}, cells show conflicts/elem "
        "(xconflict-factor)\n"
    )
    print(result.table())
    if args.cells:
        print()
        for cell in result.cells:
            print(cell.describe())
    if args.json:
        import dataclasses as _dc

        from repro.bench.export import write_json

        path = write_json(
            {
                "num_elements": result.num_elements,
                "inputs": list(result.input_names),
                "backends": list(result.backends),
                "mitigations": list(result.mitigations),
                "cells": [_dc.asdict(c) for c in result.cells],
            },
            args.json,
        )
        print(f"\nmatrix data written to {path}")
    return 0


def _cmd_figure(args) -> int:
    def maybe_json(data) -> None:
        if args.json:
            from repro.bench.export import write_json

            path = write_json(data, args.json)
            print(f"\nfigure data written to {path}")

    if args.which == "1":
        data = figure1()
        print(f"Figure 1: sorted order, w={data['w']}, E={data['E']}, "
              f"aligned={data['aligned']}")
        print(bank_matrix_str(data["a_owners"], label="A list:"))
        print(bank_matrix_str(data["b_owners"], label="B list:"))
        maybe_json(data)
        return 0
    if args.which == "3":
        data = figure3()
        for key, sub in data.items():
            print(
                f"Figure 3 ({key} E): w={sub['w']}, E={sub['E']}, "
                f"s={sub['target_bank']}, aligned={sub['aligned']}"
            )
            print(bank_matrix_str(sub["a_owners"], label="A list:"))
            print(bank_matrix_str(sub["b_owners"], label="B list:"))
        maybe_json(data)
        return 0
    if args.which == "theory":
        rows = theory_table()
        print(render_theory_table(rows) if args.markdown else table(rows))
        maybe_json({"rows": rows})
        return 0

    builders = {"4": (figure4, render_figure4), "5": (figure5, render_figure5),
                "6": (figure6, render_figure6)}
    build, render = builders[args.which]
    data = build(
        max_elements=args.max_elements,
        jobs=args.jobs,
        cache=_bench_cache(args),
        progress=_progress_printer(),
    )
    print(render(data))
    maybe_json(data)
    if args.which in ("4", "5") and not args.markdown:
        panels = [k for k in data if k != "device"]
        for key in panels:
            panel = data[key]
            print(
                line_plot(
                    {
                        "random": (
                            panel["sizes"],
                            [p.throughput_meps for p in panel["random"]],
                        ),
                        "worst": (
                            panel["sizes"],
                            [p.throughput_meps for p in panel["worst"]],
                        ),
                    },
                    title=f"{panel['config']} on {data['device']}",
                )
            )
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis.beta import measure_betas
    from repro.analysis.expected import (
        expected_replays_per_step,
        max_load_monte_carlo,
    )

    config = preset(args.preset)
    n = config.tile_size * args.tiles
    rows = []
    for name in ("sorted", "sawtooth", "random", "conflict-heavy",
                 "worst-case"):
        est = measure_betas(
            config, generate(name, config, n, seed=args.seed),
            with_inversions=True,
        )
        rows.append(
            {
                "input": name,
                "inversions": est.inversion_count,
                "beta1": est.beta1,
                "beta2": est.beta2,
            }
        )
    print(f"{config.name}, N = {n:,} (beta = extra cycles per warp step)\n")
    print(table(rows))
    mc, se = max_load_monte_carlo(config.w, trials=10000, seed=args.seed)
    print(
        f"\nballs-in-bins (one step, {config.w} uniform requests): expected "
        f"serialization {mc:.2f} cycles (±{se:.3f}), expected replays "
        f"{expected_replays_per_step(config.w):.2f}"
    )
    print("Karsin et al. measured beta1 = 3.1, beta2 = 2.2 on hardware "
          "(paper Section II-A); the worst-case input drives beta2 to Θ(E).")
    return 0


def _cmd_bench(args) -> int:
    import json

    from repro.bench.kernels import kernel_benchmarks
    from repro.dmm import fused as dmm_fused

    config = preset(args.preset)
    timings = kernel_benchmarks(
        config, tiles=args.tiles, repeat=args.repeat, seed=args.seed
    )
    print(
        f"kernel micro-benchmarks: {config.name}, N = "
        f"{config.tile_size * args.tiles:,}, backend = "
        f"{dmm_fused.active_backend()}, median of {args.repeat}\n"
    )
    for name, entry in timings.items():
        print(
            f"  {name:24s} {entry['seconds'] * 1000:9.3f}ms  "
            f"(min {entry['min_seconds'] * 1000:.3f}ms, "
            f"iqr ±{entry['iqr_seconds'] * 1000:.3f}ms)"
        )
    if not dmm_fused.native_enabled():
        print(
            "\n  note: compiled backend unavailable — round-scorer rows "
            "skipped (build with `python setup.py build_ext --inplace`)"
        )
    if args.json:
        import platform

        document = {
            "schema": 1,
            "python": platform.python_version(),
            "timings": timings,
        }
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"\nkernel timings written to {args.json}")
    return 0


def _cmd_grid(args) -> int:
    from repro.bench.grid import grid_search

    device = get_device(args.device)
    es = [int(x) for x in args.es.split(",") if x]
    bs = [int(x) for x in args.bs.split(",") if x]
    points = grid_search(
        device,
        es,
        bs,
        target_elements=args.target_elements,
        jobs=args.jobs,
        cache=_bench_cache(args),
        progress=_progress_printer(),
    )
    print(f"(E, b) grid on {device.name}, best random-input configs first:\n")
    print(table([p.as_row() for p in points[: args.top]]))
    if points:
        best = points[0]
        print(
            f"\nbest random-input config: E={best.elements_per_thread}, "
            f"b={best.block_size} (occupancy {best.occupancy:.0%}, "
            f"worst-case slowdown {best.slowdown_percent:.1f}%)"
        )
    return 0


def _cmd_reproduce(args) -> int:
    from repro.bench.experiments import run_all, run_experiment

    quick = not args.full
    cache = _bench_cache(args)
    results = (
        [run_experiment(args.only, quick=quick, jobs=args.jobs, cache=cache)]
        if args.only
        else run_all(quick=quick, jobs=args.jobs, cache=cache)
    )
    print(f"reproduction run ({'quick' if quick else 'full'} mode):\n")
    for result in results:
        print(result.summary())
        for line in result.details:
            print(line)
    failed = [r for r in results if not r.passed]
    print(
        f"\n{len(results) - len(failed)}/{len(results)} experiments passed"
        + (f"; failed: {', '.join(r.experiment_id for r in failed)}"
           if failed else "")
    )
    return 1 if failed else 0


def _cmd_cache(args) -> int:
    from repro.errors import ValidationError

    cache = BenchCache(args.cache_dir)
    if args.action == "stats":
        print(cache.stats())
        return 0
    if args.action == "prune":
        if args.max_mb is None or args.max_mb < 0:
            raise ValidationError(
                "cache prune requires --max-mb N (N >= 0)"
            )
        result = cache.prune(int(args.max_mb * 1024 * 1024))
        print(f"{cache.cache_dir}: {result}")
        return 0
    removed = cache.clear()
    print(f"removed {removed} cache entries from {cache.cache_dir}")
    return 0


def _cmd_serve(args) -> int:
    from repro.service.server import ServiceConfig, serve_forever

    return serve_forever(
        ServiceConfig(
            host=args.host,
            port=args.port,
            queue_limit=args.queue_limit,
            request_timeout=args.request_timeout,
            drain_timeout=args.drain_timeout,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=bool(args.cache or args.cache_dir),
            quota_per_minute=args.quota_per_minute,
        )
    )


def _request_scoring(args) -> str | None:
    """Wire ``scoring`` field for ``request``, honoring --engine.

    ``--engine`` names an in-process engine; the registry translates it
    to the equivalent wire field (and rejects pool/service, which are
    execution strategies with nothing to forward). ``"auto"`` maps to
    ``None`` so each endpoint's server-side default applies.
    """
    if args.engine is None:
        return args.scoring
    if args.scoring is not None:
        from repro.errors import ValidationError

        raise ValidationError(
            "--engine and --scoring are mutually exclusive (an engine "
            "name already implies its scoring)"
        )
    scoring = scoring_for_engine(args.engine)
    return None if scoring == "auto" else scoring


def _cmd_request(args) -> int:
    import json

    from repro.service.client import ServiceClient

    scoring = _request_scoring(args)
    # Canonicalize client-side so typos fail fast; "none" is dropped from
    # the wire (the server default) to keep old-server compatibility.
    spec = create_mitigation(args.mitigation, field="--mitigation").spec
    mitigation = None if spec == "none" else spec
    client = ServiceClient(args.url, timeout=args.timeout)
    if args.action in ("healthz", "stats", "shutdown"):
        print(json.dumps(getattr(client, args.action)(), indent=2))
        return 0

    if args.action == "construct":
        config = preset(args.preset)
        values = client.construct(preset=args.preset, tiles=args.tiles)
        n = len(values)
        head = ", ".join(str(v) for v in values[:8])
        print(
            f"constructed worst-case permutation: N={n:,} "
            f"({args.tiles} tiles of {config.tile_size}) [{head}, ...]"
        )
        if args.out:
            np.save(args.out, values)
            print(f"saved to {args.out}")
        return 0

    if args.action == "simulate":
        reply = client.simulate(
            preset=args.preset,
            input=args.input,
            tiles=args.tiles,
            score_blocks=args.score_blocks,
            seed=args.seed,
            scoring=scoring,
            mitigation=mitigation,
        )
        result = reply.result
        rows = [
            {
                "round": r.label,
                "kind": r.kind,
                "merge cycles": round(r.merge_report.total_transactions * r.scale),
                "partition cycles": round(
                    r.partition_report.total_transactions * r.scale
                ),
                "replays": round(r.replays),
            }
            for r in result.rounds
        ]
        print(table(rows))
        print(
            f"\nsorted correctly: {reply.sorted_ok}   "
            f"served by coalescing: {reply.coalesced}"
        )
        print(
            f"N={result.num_elements:,}  "
            f"conflicts/elem={result.replays_per_element():.2f}"
        )
        return 0

    if args.action == "job":
        from repro.service.protocol import point_from_obj

        manifest = {
            "preset": args.preset,
            "device": args.device,
            "inputs": ["random", args.input],
            "max_elements": args.max_elements,
            "exact_threshold": args.exact_threshold,
            "score_blocks": args.score_blocks,
            "seed": args.seed,
            "chunk_sizes": args.chunk_sizes,
            "max_retries": args.max_retries,
        }
        if scoring is not None:
            manifest["scoring"] = scoring
        if args.mitigations is not None:
            if mitigation is not None:
                from repro.errors import ValidationError

                raise ValidationError(
                    "--mitigations and --mitigation are mutually exclusive"
                )
            manifest["mitigations"] = [
                x for x in args.mitigations.split(",") if x
            ]
        elif mitigation is not None:
            manifest["mitigation"] = mitigation
        ack = client.submit_job(manifest)
        print(
            f"job {ack['job_id']} submitted: {ack['chunks']} chunks "
            f"(poll with GET /jobs/{ack['job_id']})"
        )
        if args.no_wait:
            return 0
        status = client.wait_for_job(ack["job_id"], timeout=args.timeout)
        if status["status"] != "done":
            for entry in status.get("errors", []):
                print(f"chunk {entry['chunk']}: {entry['error']}",
                      file=sys.stderr)
            print(f"job {ack['job_id']} failed", file=sys.stderr)
            return 3
        points = [point_from_obj(p) for p in status["points"]]
        per_input = len(status["sizes"])
        # A matrix-capable manifest (--mitigations) returns one full
        # sweep block per mitigation, in manifest order.
        specs = status.get("mitigations", [None])
        per_block = per_input * len(status["inputs"])
        for i, spec in enumerate(specs):
            block = points[i * per_block : (i + 1) * per_block]
            base, other = block[:per_input], block[per_input:]
            rows = [
                {
                    "N": p.num_elements,
                    "random Melem/s": p.throughput_meps,
                    f"{args.input} Melem/s": q.throughput_meps,
                    "slowdown %": (q.milliseconds / p.milliseconds - 1) * 100,
                }
                for p, q in zip(base, other)
            ]
            if spec is not None:
                print(f"mitigation={spec}:")
            print(table(rows))
            print(f"{args.input} vs random: {slowdown_stats(base, other)}\n")
        print(
            f"job complete (chunks={status['chunks']['done']}, "
            f"retries={status['retries']})"
        )
        return 0

    # sweep
    reply = client.sweep(
        preset=args.preset,
        device=args.device,
        inputs=["random", args.input],
        max_elements=args.max_elements,
        exact_threshold=args.exact_threshold,
        score_blocks=args.score_blocks,
        seed=args.seed,
        scoring=scoring,
        mitigation=mitigation,
    )
    per_input = len(reply.sizes)
    base = reply.points[:per_input]
    other = reply.points[per_input:]
    rows = [
        {
            "N": p.num_elements,
            "random Melem/s": p.throughput_meps,
            f"{args.input} Melem/s": q.throughput_meps,
            "slowdown %": (q.milliseconds / p.milliseconds - 1) * 100,
        }
        for p, q in zip(base, other)
    ]
    print(table(rows))
    print(f"\n{args.input} vs random: {slowdown_stats(base, other)}")
    if reply.coalesced:
        print("(served by coalescing with an identical in-flight sweep)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    0 on success; :data:`EXIT_VALIDATION` (2) when the input was invalid
    (bad preset, malformed request, rejected arguments);
    :data:`EXIT_INTERNAL` (3) when the library or a remote service
    failed internally. Unexpected exceptions still propagate (exit 1
    with a traceback) so real bugs stay loud.
    """
    from repro.errors import (
        ConfigurationError,
        ConstructionError,
        ReproError,
        ValidationError,
    )

    args = _build_parser().parse_args(argv)
    handlers = {
        "construct": _cmd_construct,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "matrix": _cmd_matrix,
        "figure": _cmd_figure,
        "analyze": _cmd_analyze,
        "grid": _cmd_grid,
        "bench": _cmd_bench,
        "reproduce": _cmd_reproduce,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "request": _cmd_request,
    }
    try:
        return handlers[args.command](args)
    except (ValidationError, ConfigurationError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ReproError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
