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
trajectory, and an exact sweep of the periodic constructed inputs tracks
what counting each run of equal tiles once buys.
"""

import statistics
import time

import numpy as np
from conftest import record, record_timing

from repro.dmm import fused as dmm_fused
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


#: Passes of each side behind an in-run speedup floor.
RATIO_PASSES = 3


def _interleaved_medians(slow, fast, passes=RATIO_PASSES):
    """Median seconds of ``slow`` and of ``fast`` over ``passes``
    alternating calls each, plus each side's last return value.

    Alternating exposes both sides to the same host load, and a median
    against a median compares like with like, which one cold pass
    against a warm minimum does not.
    """
    seconds = ([], [])
    results = [None, None]
    for _ in range(passes):
        for side, fn in enumerate((slow, fast)):
            start = time.perf_counter()
            results[side] = fn()
            seconds[side].append(time.perf_counter() - start)
    return (*map(statistics.median, seconds), *results)


def test_exact_simulation_speed(benchmark):
    n = THRUST_MAXWELL.tile_size * 16
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    sorter = PairwiseMergeSort(THRUST_MAXWELL)
    result = benchmark(sorter.sort, data)
    assert np.array_equal(result.values, np.sort(data))
    record(f"Harness exact simulation: N={n:,} fully traced")
    record_timing(
        "exact_vectorized",
        **_timing_kwargs(benchmark),
        n=n,
        scoring="vectorized",
        backend="numpy",
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
    record_timing(
        "exact_loop",
        **_timing_kwargs(benchmark),
        n=n,
        scoring="loop",
        backend="numpy",
    )


def test_sampled_simulation_speed(benchmark):
    n = THRUST_MAXWELL.tile_size * 128
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    sorter = PairwiseMergeSort(THRUST_MAXWELL)
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
        backend="numpy",
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
    """The fused engine on the exact workload. The in-run ratio against
    the loop oracle compares medians of interleaved passes; the committed
    ``exact_fused`` baseline row is what ``check_regression`` gates."""
    n = THRUST_MAXWELL.tile_size * 16
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    loop = PairwiseMergeSort(THRUST_MAXWELL, scoring="loop")
    sorter = PairwiseMergeSort(THRUST_MAXWELL, scoring="fused")
    result = benchmark(sorter.sort, data)

    loop_seconds, fused_seconds, baseline, fused_result = _interleaved_medians(
        lambda: loop.sort(data), lambda: sorter.sort(data)
    )
    assert np.array_equal(result.values, baseline.values)
    assert np.array_equal(fused_result.values, baseline.values)
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
    """Fused engine, sampled workload (the sweep regime). The in-run
    ratio against the loop oracle compares medians of interleaved
    passes."""
    n = THRUST_MAXWELL.tile_size * 128
    data = generate("random", THRUST_MAXWELL, n, seed=0)
    loop = PairwiseMergeSort(THRUST_MAXWELL, scoring="loop")
    sorter = PairwiseMergeSort(THRUST_MAXWELL, scoring="fused")
    fused_sort = lambda: sorter.sort(data, score_blocks=8)  # noqa: E731
    result = benchmark.pedantic(
        fused_sort, rounds=5, iterations=1, warmup_rounds=1
    )

    loop_seconds, fused_seconds, baseline, _ = _interleaved_medians(
        lambda: loop.sort(data, score_blocks=8), fused_sort
    )
    assert np.array_equal(result.values, baseline.values)
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


def _vectorized_sweep(sizes, inputs):
    """Exact default-path sweep points, one fresh runner.

    Pinned to simulated vectorized scoring: under the registry-wide
    "auto" default these constructed families route analytic, and this
    row measures the simulator.
    """
    from repro.bench.runner import SweepRunner
    from repro.gpu.device import get_device

    runner = SweepRunner(
        THRUST_MAXWELL,
        get_device("quadro-m4000"),
        score_blocks=None,
        scoring="vectorized",
    )
    return [runner.sweep(name, sizes) for name in inputs]


def test_sweep_exact_speed(benchmark):
    """Exact adversarial + sorted sweep over 6 sizes on the default path.

    The constructed inputs are periodic, so most rounds are runs of equal
    tiles that the scorer counts once each. The points must equal the
    closed-form engine's.
    """
    from repro.bench.runner import SweepRunner
    from repro.gpu.device import get_device

    sizes = [THRUST_MAXWELL.tile_size * (1 << k) for k in range(6)]
    inputs = ("worst-case", "sorted")
    points = benchmark.pedantic(
        lambda: _vectorized_sweep(sizes, inputs), rounds=3, iterations=1
    )
    analytic = SweepRunner(
        THRUST_MAXWELL, get_device("quadro-m4000"), score_blocks=None,
        scoring="analytic",
    )
    assert points == [analytic.sweep(name, sizes) for name in inputs]
    record(
        f"Harness exact sweep: {len(inputs)}x{len(sizes)} exact points, "
        "default path"
    )
    record_timing(
        "sweep_exact",
        **_timing_kwargs(benchmark),
        sizes=len(sizes),
        inputs=list(inputs),
        max_n=max(sizes),
        backend="numpy",
    )


#: ``sweep_sampled`` geometry: sizes of 1..64 tiles around an exact
#: threshold of 16 tiles, so the curve has exact points, the calibration
#: size, and synthesized points.
SAMPLED_SWEEP_TILES = [1 << k for k in range(7)]
SAMPLED_SWEEP_THRESHOLD_TILES = 16


def _sampled_sweep_runner():
    """A default runner (8 scored blocks per round, ``auto`` scoring) with
    the exact threshold lowered so the sweep calibrates."""
    from repro.bench.runner import SweepRunner
    from repro.gpu.device import get_device

    return SweepRunner(
        THRUST_MAXWELL,
        get_device("quadro-m4000"),
        exact_threshold=THRUST_MAXWELL.tile_size * SAMPLED_SWEEP_THRESHOLD_TILES,
    )


def test_sweep_sampled_speed(benchmark):
    """The Figs. 4-6 sweep regime on simulated families: sampled sorts up
    to the calibration size, synthesized points above it. One sort at the
    calibration size serves both its exact point and the calibration, and
    every global round argsorts only its scored blocks' windows. The
    points must equal those of a fresh runner per point."""
    sizes = [THRUST_MAXWELL.tile_size * t for t in SAMPLED_SWEEP_TILES]
    inputs = ("random", "conflict-heavy")

    def sweep():
        runner = _sampled_sweep_runner()
        return [runner.sweep(name, sizes) for name in inputs]

    points = benchmark.pedantic(sweep, rounds=3, iterations=1, warmup_rounds=1)
    assert points == [
        [_sampled_sweep_runner().run_point(name, n) for n in sizes]
        for name in inputs
    ]
    record(
        f"Harness sampled sweep: {len(inputs)}x{len(sizes)} points, "
        "calibrated above the exact threshold"
    )
    record_timing(
        "sweep_sampled",
        **_timing_kwargs(benchmark),
        sizes=len(sizes),
        inputs=list(inputs),
        max_n=max(sizes),
        exact_threshold=THRUST_MAXWELL.tile_size * SAMPLED_SWEEP_THRESHOLD_TILES,
        # The default runner's "auto" scoring routes these inputs to fused.
        backend=dmm_fused.active_backend(),
    )


def test_sweep_analytic_speed(benchmark):
    """The same sweep served by the closed-form engine instead of the
    simulator: identical points, derived in O(rounds) arithmetic per
    point. The runner is shared across rounds (one warmup pays the
    engine's per-process class-scoring cost) because the number tracked
    here is the steady-state per-request cost of a warm daemon — the
    regime the service serves sweeps in. The default-path sweep
    (``sweep_exact``) is timed in-run, interleaved with the warm analytic
    one, so the speedup is a measured ratio of medians; the acceptance
    floor is 100x (measured 114–181x on a 2-vCPU host), and the absolute
    timing is gated by the committed ``analytic_sweep`` baseline row
    through ``check_regression``.
    """
    from repro.bench.runner import SweepRunner
    from repro.gpu.device import get_device

    sizes = [THRUST_MAXWELL.tile_size * (1 << k) for k in range(6)]
    inputs = ("worst-case", "sorted")

    runner = SweepRunner(
        THRUST_MAXWELL, get_device("quadro-m4000"), score_blocks=None,
        scoring="analytic",
    )
    analytic_sweep = lambda: [runner.sweep(name, sizes) for name in inputs]  # noqa: E731
    points = benchmark.pedantic(
        analytic_sweep, rounds=3, iterations=1, warmup_rounds=1
    )

    simulated_seconds, analytic_seconds, baseline_points, _ = (
        _interleaved_medians(
            lambda: _vectorized_sweep(sizes, inputs), analytic_sweep
        )
    )
    assert points == baseline_points  # closed form never changes BenchPoints
    ratio = (
        simulated_seconds / analytic_seconds if analytic_seconds else float("inf")
    )
    record(
        f"Harness analytic sweep: {len(inputs)}x{len(sizes)} exact points, "
        f"{ratio:.0f}x over default-path simulation"
    )
    record_timing(
        "analytic_sweep",
        **_timing_kwargs(benchmark),
        sizes=len(sizes),
        inputs=list(inputs),
        max_n=max(sizes),
        backend="numpy",
    )
    # Acceptance floor for the closed form. Median against median it
    # measured 114–181x, so the floor leaves little room; the ~1000x once
    # quoted divided one cold simulated pass by the warm median.
    assert ratio >= 100, (
        f"analytic sweep only {ratio:.1f}x over default-path simulation"
    )


def test_construction_speed(benchmark):
    """The un-merge cascade at paper scale: one composed window-local
    index, O(N) over all levels. With the default keys ``arange(N)`` the
    index is the permutation, so no values are gathered."""
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
    record_timing(
        "construction",
        **_timing_kwargs(benchmark),
        n=n,
        backend="numpy",
    )


def test_sampled_verify_speed(benchmark):
    """``verify_worst_case`` with its default 4 scored blocks per round.

    The sort behind it runs on the numpy scoring path (the default
    ``vectorized`` scoring never dispatches to the compiled backend), so
    this row tracks sampled rounds that sort values and argsort only what
    they score: the scored tiles' pair rows in block rounds, the scored
    blocks' merge windows in global rounds. The sort is merge-only
    (``partitions=False``): the theorems bound the merge stage, so no β₁
    probe is counted.
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
