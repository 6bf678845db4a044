"""Every registered engine against the per-tile loop oracle.

This suite replaces the per-pair equivalence matrices that used to live
in ``tests/sort/test_pairwise_equivalence.py`` (loop vs vectorized),
``tests/sort/test_memoized_scoring.py`` (memoized vs both), and
``tests/sort/test_analytic_equivalence.py`` (three-way): one
parametrized matrix runs *every* engine in the registry — including the
process-pool and service engines, which never had equivalence coverage —
over the four constructed families, with and without shared-memory
padding, full and sampled scoring, and asserts bit-identity with
``scoring="loop"``, the original per-tile reference implementation.

Alongside the sort matrix:

* random-input (non-analytic) coverage for every simulating engine;
* the analytic engine's loud rejection of unstructured inputs;
* point-plan identity across every engine (the same ``WorkItem`` batch
  produces equal ``BenchPoint`` lists serially, pooled, and served);
* the unified-default regressions: ``WorkItem``, ``SweepRunner``, and
  the registry agree on ``DEFAULT_SCORING``, serial and pooled sweeps
  resolve the same engine per point, and a default runner routes
  analytic-eligible points closed-form (its memo stays untouched).
"""

import asyncio
import threading

import pytest

from repro.analytic import ANALYTIC_FAMILIES
from repro.bench.runner import SweepRunner
from repro.engine import SortTask, WorkItem, create_engine, execute_items
from repro.engine.registry import DEFAULT_SCORING, engine_names
from repro.errors import ValidationError
from repro.gpu.device import QUADRO_M4000
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort
from tests.engine.comparison import (
    CONFIGS,
    FAMILIES,
    INPUTS,
    assert_results_identical,
)

CFG = CONFIGS["small-e"]
N = CFG.tile_size * 8

#: Point plans run against a real device spec, whose warp size the
#: config must match (the sort-plan matrix has no device, so it keeps
#: the smaller, faster warp-8 config).
PCFG = SortConfig(elements_per_thread=3, block_size=32, warp_size=32)

ENGINE_NAMES = engine_names()
SIMULATING_ENGINES = [name for name in ENGINE_NAMES if name != "analytic"]


def test_family_list_matches_analytic_registry():
    assert sorted(ANALYTIC_FAMILIES) == FAMILIES


@pytest.fixture(scope="module")
def engines():
    """name → warm engine instance, every registered engine included.

    The service engine talks to a real daemon on a loopback ephemeral
    port (same harness as ``tests/service/conftest.py``); the pool
    engine owns a two-worker pool for the module.
    """
    from repro.service.server import ServiceConfig, run_service

    holder = {}
    ready = threading.Event()
    config = ServiceConfig(
        port=0, request_timeout=60.0, drain_timeout=15.0
    )

    def runner():
        holder["drained"] = asyncio.run(
            run_service(
                config,
                on_started=lambda s: (holder.update(service=s), ready.set()),
            )
        )

    thread = threading.Thread(target=runner, daemon=True)
    thread.start()
    assert ready.wait(15), "service failed to start"
    service = holder["service"]

    built = {}
    for name in ENGINE_NAMES:
        if name == "pool":
            built[name] = create_engine(name, jobs=2)
        elif name == "service":
            built[name] = create_engine(
                name, url=f"http://127.0.0.1:{service.port}", timeout=90.0
            )
        else:
            built[name] = create_engine(name)
    try:
        yield built
    finally:
        for engine in built.values():
            engine.close()
        if thread.is_alive():
            service.request_shutdown()
            thread.join(30)
        assert not thread.is_alive(), "service thread failed to exit"


_ORACLE_CACHE = {}
_MATRIX_ORACLE = {}


def loop_oracle(input_name, *, padding, score_blocks):
    """The reference result, cached per matrix cell across engines."""
    key = (input_name, padding, score_blocks)
    if key not in _ORACLE_CACHE:
        data = generate(input_name, CFG, N, seed=0)
        _ORACLE_CACHE[key] = PairwiseMergeSort(
            CFG, padding=padding, scoring="loop"
        ).sort(data, score_blocks=score_blocks, seed=0)
    return _ORACLE_CACHE[key]


class TestSortPlanBitIdentity:
    @pytest.mark.parametrize("score_blocks", [None, 2], ids=["full", "sampled"])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("input_name", FAMILIES)
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_constructed_families(
        self, engines, engine_name, input_name, padding, score_blocks
    ):
        result = engines[engine_name].run_sort(
            SortTask(
                config=CFG,
                input_name=input_name,
                num_elements=N,
                padding=padding,
                score_blocks=score_blocks,
                seed=0,
            )
        )
        assert_results_identical(
            result,
            loop_oracle(
                input_name, padding=padding, score_blocks=score_blocks
            ),
        )

    @pytest.mark.parametrize("score_blocks", [None, 2], ids=["full", "sampled"])
    @pytest.mark.parametrize("engine_name", SIMULATING_ENGINES)
    def test_random_input(self, engines, engine_name, score_blocks):
        """Unstructured inputs force the simulated path everywhere —
        including through the "auto"-scored engines — with and without
        block sampling (whose RNG draws must line up across engines)."""
        result = engines[engine_name].run_sort(
            SortTask(
                config=CFG,
                input_name="random",
                num_elements=N,
                score_blocks=score_blocks,
                seed=0,
            )
        )
        assert_results_identical(
            result,
            loop_oracle("random", padding=0, score_blocks=score_blocks),
        )

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("input_name", INPUTS)
    @pytest.mark.parametrize(
        "engine_name",
        ["inline", "inline-vectorized", "inline-memoized", "inline-fused"],
    )
    def test_inline_matrix_all_configs_and_inputs(
        self, engines, engine_name, config_name, input_name
    ):
        """The historical loop-vs-vectorized and loop-vs-memoized
        matrices (every input family × every E regime), now phrased as
        engine rows — the "auto" engine rides along so its per-task
        routing is exercised on eligible and ineligible inputs alike."""
        cfg = CONFIGS[config_name]
        n = cfg.tile_size * 8
        result = engines[engine_name].run_sort(
            SortTask(config=cfg, input_name=input_name, num_elements=n, seed=0)
        )
        key = (config_name, input_name)
        if key not in _MATRIX_ORACLE:
            data = generate(input_name, cfg, n, seed=0)
            _MATRIX_ORACLE[key] = PairwiseMergeSort(
                cfg, scoring="loop"
            ).sort(data, seed=0)
        assert_results_identical(result, _MATRIX_ORACLE[key])

    def test_analytic_rejects_random(self, engines):
        with pytest.raises(ValidationError):
            engines["analytic"].run_sort(
                SortTask(
                    config=CFG, input_name="random", num_elements=N, seed=0
                )
            )

    @pytest.mark.parametrize(
        "mitigation", ["none", "padding:1", "cfree-sort", "cfree-permute"]
    )
    @pytest.mark.parametrize("engine_name", SIMULATING_ENGINES)
    def test_mitigations_bit_identical_per_engine(
        self, engines, engine_name, mitigation
    ):
        """The matrix acceptance bar: every mitigation layout produces
        bit-identical results through every simulating engine — inline,
        memoized, fused, pool, and the served wire path. The
        worst-case family is analytic-eligible, so this also pins that
        "auto" routing never hands an unmodeled layout to the closed
        form."""
        result = engines[engine_name].run_sort(
            SortTask(
                config=CFG,
                input_name="worst-case",
                num_elements=N,
                mitigation=mitigation,
                seed=0,
            )
        )
        key = ("mitigation", mitigation)
        if key not in _MATRIX_ORACLE:
            data = generate("worst-case", CFG, N, seed=0)
            _MATRIX_ORACLE[key] = PairwiseMergeSort(
                CFG, scoring="loop", mitigation=mitigation
            ).sort(data, seed=0)
        assert_results_identical(result, _MATRIX_ORACLE[key])

    def test_analytic_rejects_unmodeled_layouts(self, engines):
        with pytest.raises(ValidationError):
            engines["analytic"].run_sort(
                SortTask(
                    config=CFG,
                    input_name="worst-case",
                    num_elements=N,
                    mitigation="cfree-sort",
                    seed=0,
                )
            )

    def test_plan_batch_matches_individual_runs(self, engines):
        """A multi-task plan returns results in task order, equal to
        one-at-a-time execution."""
        tasks = [
            SortTask(config=CFG, input_name=name, num_elements=N, seed=0)
            for name in FAMILIES
        ]
        batched = engines["inline"].plan(tasks).execute()
        for task, result in zip(tasks, batched):
            assert_results_identical(
                result,
                loop_oracle(task.input_name, padding=0, score_blocks=None),
            )


def make_items(scoring=DEFAULT_SCORING, input_names=("worst-case", "random")):
    return [
        WorkItem(
            config=PCFG,
            device=QUADRO_M4000,
            input_name=name,
            num_elements=n,
            exact_threshold=PCFG.tile_size * 8,
            score_blocks=4,
            seed=0,
            scoring=scoring,
        )
        for name in input_names
        for n in (PCFG.tile_size * 2, PCFG.tile_size * 4)
    ]


class TestPointPlanIdentity:
    @pytest.mark.parametrize("engine_name", ENGINE_NAMES)
    def test_all_engines_produce_equal_points(self, engines, engine_name):
        """The same WorkItem batch (registry-default scoring) yields
        equal BenchPoints through every engine. The engines whose own
        ``scoring`` knob differs (inline-loop etc.) are included on
        purpose: point plans are governed by each item's ``scoring``,
        never by the engine's sort-plan default."""
        items = make_items()
        expected = execute_items(items, jobs=1)
        assert engines[engine_name].run_points(items) == expected

    def test_items_match_loop_scored_items(self, engines):
        """Registry-default items equal the same items pinned to the
        loop oracle — the point-level equivalence anchor."""
        assert execute_items(make_items()) == execute_items(
            make_items(scoring="loop")
        )

    def test_progress_events_cover_every_point(self, engines):
        events = []
        items = make_items(input_names=("worst-case",))
        engines["inline"].run_points(items, progress=events.append)
        assert [e.done for e in events] == [1, 2]
        assert all(e.total == len(items) for e in events)


class TestUnifiedScoringDefault:
    """Satellite regression: one default, one router, every entry point."""

    def test_defaults_agree(self):
        assert WorkItem.__dataclass_fields__["scoring"].default \
            == DEFAULT_SCORING
        runner = SweepRunner(PCFG, QUADRO_M4000)
        assert runner.scoring == DEFAULT_SCORING

    def test_serial_and_pooled_sweeps_resolve_identically(self):
        """The historical bug: WorkItem defaulted to a different scoring
        than SweepRunner, so ``--jobs`` silently changed the executed
        path. Serial and pooled execution of default items must match."""
        items = make_items()
        assert execute_items(items, jobs=1) == execute_items(items, jobs=2)

    def test_default_runner_routes_analytic(self):
        """A default-constructed runner sends analytic-eligible points
        through the closed form: the instrumented sort still runs once,
        but the memo never sees a lookup."""
        runner = SweepRunner(
            PCFG,
            QUADRO_M4000,
            exact_threshold=PCFG.tile_size * 8,
            score_blocks=4,
        )
        runner.run_point("worst-case", PCFG.tile_size * 2)
        assert runner.instrumented_sorts == 1
        assert runner.memo.hits == 0 and runner.memo.misses == 0
