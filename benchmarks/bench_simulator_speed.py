"""Harness performance — how fast the simulator itself runs.

Not a paper figure: this tracks the reproduction's own cost so the exact /
sampled paths stay usable (exact ~1e6 elements in seconds; sampled scales
to the calibration sizes the sweeps rely on).

Each benchmark records its median (plus min and IQR, so the regression
gate can tell drift from noise) into the ``REPRO_BENCH_JSON`` timing
document (see ``benchmarks/conftest.py``); the committed baseline lives in
``BENCH_simulator.json`` and ``benchmarks/check_regression.py`` gates CI
on it. The exact path is benchmarked under both scoring implementations so
the vectorized path's speedup over the per-tile loop stays visible in the
trajectory, and the sweep is benchmarked memoized so the pattern-memo's
cross-point speedup is a tracked number rather than a one-off claim.
"""

import time

import numpy as np
from conftest import record, record_timing

from repro.inputs.generators import generate
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.presets import THRUST_MAXWELL


def _timing_kwargs(benchmark) -> dict:
    """Median/min/IQR of a finished pytest-benchmark measurement."""
    stats = benchmark.stats.stats
    return {
        "seconds": stats.median,
        "min_seconds": stats.min,
        "iqr_seconds": stats.iqr,
    }


def test_exact_simulation_speed(benchmark):
    n = THRUST_MAXWELL.tile_size * 16
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    # memo=None: this timing tracks the raw vectorized path — with a memo,
    # every benchmark iteration after the first would score from cache and
    # the median would measure lookups, not scoring.
    sorter = PairwiseMergeSort(THRUST_MAXWELL, memo=None)
    result = benchmark(sorter.sort, data)
    assert np.array_equal(result.values, np.sort(data))
    record(f"Harness exact simulation: N={n:,} fully traced")
    record_timing(
        "exact_vectorized", **_timing_kwargs(benchmark), n=n, scoring="vectorized"
    )


def test_exact_simulation_speed_loop_reference(benchmark):
    """The per-tile loop oracle, kept benchmarked so the vectorized
    speedup is a measured ratio in the trajectory, not a one-off claim."""
    n = THRUST_MAXWELL.tile_size * 16
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    sorter = PairwiseMergeSort(THRUST_MAXWELL, scoring="loop")
    result = benchmark.pedantic(lambda: sorter.sort(data), rounds=3, iterations=1)
    assert np.array_equal(result.values, np.sort(data))
    record(f"Harness exact simulation (loop reference): N={n:,} fully traced")
    record_timing("exact_loop", **_timing_kwargs(benchmark), n=n, scoring="loop")


def test_sampled_simulation_speed(benchmark):
    n = THRUST_MAXWELL.tile_size * 128
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    sorter = PairwiseMergeSort(THRUST_MAXWELL, memo=None)
    result = benchmark.pedantic(
        lambda: sorter.sort(data, score_blocks=8), rounds=3, iterations=1
    )
    assert np.array_equal(result.values, np.sort(data))
    record(f"Harness sampled simulation: N={n:,} with 8 scored blocks/round")
    record_timing(
        "sampled_vectorized",
        **_timing_kwargs(benchmark),
        n=n,
        score_blocks=8,
        scoring="vectorized",
    )


#: Floors for the native fused path's in-run speedup over the loop oracle:
#: 8x over the trace-based vectorized path, times that path's speedup over
#: the loop — 1.45 exact (its committed ``exact_loop`` / ``exact_vectorized``
#: rows) and 1.12 sampled (in-run, 8 scored blocks). The loop is the
#: reference because the vectorized path now shares the numpy counting
#: kernels, so its speed says nothing fixed about fused.
EXACT_FUSED_OVER_LOOP = 11
SAMPLED_FUSED_OVER_LOOP = 9


def test_exact_fused_speed(benchmark):
    """The fused engine on the exact workload. The in-run ratio against a
    fresh loop-oracle pass is asserted loosely (CI noise on the slower leg
    is the flake source); the committed ``exact_fused`` baseline row is
    what ``check_regression`` gates."""
    from repro.dmm import fused as dmm_fused

    n = THRUST_MAXWELL.tile_size * 16
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    loop = PairwiseMergeSort(THRUST_MAXWELL, scoring="loop")
    start = time.perf_counter()
    baseline = loop.sort(data)
    loop_seconds = time.perf_counter() - start

    sorter = PairwiseMergeSort(THRUST_MAXWELL, scoring="fused")
    result = benchmark(sorter.sort, data)
    assert np.array_equal(result.values, baseline.values)

    fused_seconds = benchmark.stats.stats.min
    ratio = loop_seconds / fused_seconds if fused_seconds else float("inf")
    backend = dmm_fused.active_backend()
    record(
        f"Harness exact fused simulation ({backend}): N={n:,}, "
        f"{ratio:.1f}x over the loop oracle"
    )
    record_timing(
        "exact_fused",
        **_timing_kwargs(benchmark),
        n=n,
        scoring="fused",
        backend=backend,
    )
    if dmm_fused.native_enabled():
        assert ratio >= EXACT_FUSED_OVER_LOOP, (
            f"exact fused only {ratio:.1f}x over the loop oracle"
        )


def test_sampled_fused_speed(benchmark):
    """Fused engine, sampled workload (the sweep regime)."""
    from repro.dmm import fused as dmm_fused

    n = THRUST_MAXWELL.tile_size * 128
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    loop = PairwiseMergeSort(THRUST_MAXWELL, scoring="loop")
    start = time.perf_counter()
    baseline = loop.sort(data, score_blocks=8)
    loop_seconds = time.perf_counter() - start

    sorter = PairwiseMergeSort(THRUST_MAXWELL, scoring="fused")
    result = benchmark.pedantic(
        lambda: sorter.sort(data, score_blocks=8),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert np.array_equal(result.values, baseline.values)

    fused_seconds = benchmark.stats.stats.min
    ratio = loop_seconds / fused_seconds if fused_seconds else float("inf")
    backend = dmm_fused.active_backend()
    record(
        f"Harness sampled fused simulation ({backend}): N={n:,} with 8 "
        f"scored blocks/round, {ratio:.1f}x over the loop oracle"
    )
    record_timing(
        "sampled_fused",
        **_timing_kwargs(benchmark),
        n=n,
        score_blocks=8,
        scoring="fused",
        backend=backend,
    )
    if dmm_fused.native_enabled():
        # Merge rounds dominate this workload and are already
        # memory-shaped; the committed baseline row gates the absolute time.
        assert ratio >= SAMPLED_FUSED_OVER_LOOP, (
            f"sampled fused only {ratio:.1f}x over the loop oracle"
        )


def test_sweep_memoized_speed(benchmark):
    """Exact adversarial + sorted sweep over 6 sizes with one shared memo.

    The sweep's rounds repeat heavily within and across points (the
    constructed inputs are periodic by design), which is exactly what the
    pattern memo exploits; the unmemoized pass over the same points is
    timed once for the ratio, and the memoized points must be bit-identical
    to it.
    """
    from repro.bench.runner import SweepRunner
    from repro.gpu.device import get_device

    device = get_device("quadro-m4000")
    sizes = [THRUST_MAXWELL.tile_size * (1 << k) for k in range(6)]
    inputs = ("worst-case", "sorted")

    def sweep(memo):
        # Pinned to simulated vectorized scoring: under the registry-wide
        # "auto" default these constructed families route analytic and
        # the memo never engages — this benchmark measures the simulator.
        runner = SweepRunner(
            THRUST_MAXWELL, device, score_blocks=None, memo=memo,
            scoring="vectorized",
        )
        return [runner.sweep(name, sizes) for name in inputs]

    start = time.perf_counter()
    baseline_points = sweep(None)
    unmemo_seconds = time.perf_counter() - start

    points = benchmark.pedantic(lambda: sweep("auto"), rounds=3, iterations=1)
    assert points == baseline_points  # memoization never changes BenchPoints

    memo_seconds = benchmark.stats.stats.median
    ratio = unmemo_seconds / memo_seconds if memo_seconds else float("inf")
    record(
        f"Harness memoized sweep: {len(inputs)}x{len(sizes)} exact points, "
        f"{ratio:.1f}x over unmemoized"
    )
    record_timing(
        "sweep_memoized",
        **_timing_kwargs(benchmark),
        sizes=len(sizes),
        inputs=list(inputs),
        max_n=max(sizes),
    )
    record_timing(
        "sweep_unmemoized",
        unmemo_seconds,
        sizes=len(sizes),
        inputs=list(inputs),
        max_n=max(sizes),
    )
    # The ≥3x target is asserted loosely here (CI runners are noisy); the
    # committed baseline + check_regression gate the absolute timing.
    assert memo_seconds < unmemo_seconds


def test_sweep_analytic_speed(benchmark):
    """The same sweep served by the closed-form engine instead of the
    simulator: identical points, derived in O(rounds) arithmetic per
    point. The runner is shared across rounds (one warmup pays the
    engine's per-process class-scoring cost) because the number tracked
    here is the steady-state per-request cost of a warm daemon — the
    regime the service serves sweeps in. The memoized sweep is timed
    once in-run so the speedup is a measured ratio; the acceptance floor
    is 100x (measured ~1000x), and the absolute timing is gated by the
    committed ``analytic_sweep`` baseline row through
    ``check_regression``.
    """
    from repro.bench.runner import SweepRunner
    from repro.gpu.device import get_device

    device = get_device("quadro-m4000")
    sizes = [THRUST_MAXWELL.tile_size * (1 << k) for k in range(6)]
    inputs = ("worst-case", "sorted")

    start = time.perf_counter()
    # Pinned to vectorized: the "auto" default would itself route these
    # constructed families analytic, collapsing the measured ratio to ~1.
    memo_runner = SweepRunner(
        THRUST_MAXWELL, device, score_blocks=None, memo="auto",
        scoring="vectorized",
    )
    baseline_points = [memo_runner.sweep(name, sizes) for name in inputs]
    memo_seconds = time.perf_counter() - start

    runner = SweepRunner(
        THRUST_MAXWELL, device, score_blocks=None, memo=None,
        scoring="analytic",
    )
    points = benchmark.pedantic(
        lambda: [runner.sweep(name, sizes) for name in inputs],
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    assert points == baseline_points  # closed form never changes BenchPoints

    analytic_seconds = benchmark.stats.stats.median
    ratio = memo_seconds / analytic_seconds if analytic_seconds else float("inf")
    record(
        f"Harness analytic sweep: {len(inputs)}x{len(sizes)} exact points, "
        f"{ratio:.0f}x over memoized simulation"
    )
    record_timing(
        "analytic_sweep",
        **_timing_kwargs(benchmark),
        sizes=len(sizes),
        inputs=list(inputs),
        max_n=max(sizes),
    )
    # Acceptance floor for the closed form; measured ~1000x warm, so
    # 100x leaves ample room for CI noise.
    assert ratio >= 100, f"analytic sweep only {ratio:.1f}x over memoized"


def test_construction_speed(benchmark):
    """The un-merge cascade at paper scale: one composed window-local
    index, O(N) over all levels, and one gather of the values."""
    from repro.adversary.permutation import worst_case_permutation

    n = THRUST_MAXWELL.tile_size * 128
    perm = benchmark.pedantic(
        lambda: worst_case_permutation(THRUST_MAXWELL, n),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert perm.size == n
    record(f"Harness worst-case construction: N={n:,}")
    record_timing("construction", **_timing_kwargs(benchmark), n=n)


def test_sampled_verify_speed(benchmark):
    """``verify_worst_case`` with its default 4 scored blocks per round.

    The sort behind it runs on the numpy scoring path (the default
    ``vectorized`` scoring never dispatches to the compiled backend), so
    this row tracks sampled rounds that sort values and argsort only the
    pair rows they score. Each call builds a fresh sorter, hence a fresh
    memo: no iteration scores from an earlier one's cache.
    """
    from repro.adversary.permutation import worst_case_permutation
    from repro.adversary.verify import verify_worst_case

    n = THRUST_MAXWELL.tile_size * 128
    perm = worst_case_permutation(THRUST_MAXWELL, n)
    report = benchmark.pedantic(
        lambda: verify_worst_case(THRUST_MAXWELL, perm),
        rounds=5,
        iterations=1,
        warmup_rounds=1,
    )
    assert report.ok
    record(f"Harness sampled verification: N={n:,} with 4 scored blocks/round")
    record_timing(
        "sampled_verify",
        **_timing_kwargs(benchmark),
        n=n,
        score_blocks=4,
        scoring="vectorized",
        backend="numpy",
    )
