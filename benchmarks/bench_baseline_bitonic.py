"""Baseline — oblivious bitonic sort vs the attacked pairwise merge sort.

Extension beyond the paper: bitonic sort's access schedule is data-
oblivious, so the constructed worst-case inputs cannot touch it. The
question the paper's Section I raises — is the robustness worth the extra
work? — gets a quantitative answer here: even on its worst-case input the
pairwise merge sort stays cheaper in serialized shared cycles than bitonic
at realistic sizes (Θ(N log N) with E² rounds vs Θ(N log² N) with the
low-distance conflicts bitonic always pays).
"""

import numpy as np
from conftest import record, record_timing

from repro.adversary.permutation import worst_case_permutation
from repro.sort.bitonic import BitonicSort
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort

W = 32
N = 1 << 18


def test_bitonic_is_immune(benchmark):
    cfg = SortConfig(elements_per_thread=4, block_size=64, warp_size=W)
    n = cfg.tile_size * 1024  # 2^18, power of two -> valid for both
    adversarial = worst_case_permutation(cfg, n)
    bitonic = BitonicSort(block_size=256, warp_size=W)

    adv = benchmark.pedantic(lambda: bitonic.sort(adversarial), rounds=2,
                             iterations=1)
    rand = bitonic.sort(np.random.default_rng(0).permutation(n))
    assert adv.total_shared_cycles() == rand.total_shared_cycles()
    record(
        f"Bitonic obliviousness: adversarial and random inputs cost an "
        f"identical {adv.total_shared_cycles() / n:.2f} shared cycles/elem"
    )


def test_bitonic_vs_attacked_merge_sort(benchmark):
    cfg = SortConfig(elements_per_thread=4, block_size=64, warp_size=W)
    n = cfg.tile_size * 1024
    adversarial = worst_case_permutation(cfg, n)

    def run():
        merge = PairwiseMergeSort(cfg).sort(adversarial, score_blocks=4)
        bitonic = BitonicSort(block_size=256, warp_size=W).sort(adversarial)
        return merge, bitonic

    merge, bitonic = benchmark.pedantic(run, rounds=2, iterations=1)
    m = merge.total_shared_cycles() / n
    b = bitonic.total_shared_cycles() / n
    record(
        f"Bitonic vs attacked merge sort (N={n:,}): merge sort on its OWN "
        f"worst case {m:.2f} cycles/elem vs bitonic {b:.2f} — "
        + ("obliviousness does not pay here" if m < b else "bitonic wins")
    )
    gw = bitonic.total_global_traffic().words / n
    gm = merge.total_global_traffic().words / n
    record(
        f"Bitonic global words/elem {gw:.1f} vs merge sort {gm:.1f} "
        "(log² N global sweeps vs log N rounds)"
    )


def test_bitonic_matrix_row(benchmark):
    """The mitigation matrix's bitonic control row at gated speed: the
    oblivious schedule makes every family's cell identical, the cfree
    layouts must zero its (input-independent) conflicts, and scoring the
    row has to stay cheap enough for routine matrix runs."""
    from repro.bench.matrix import run_matrix

    def run():
        return run_matrix(
            input_names=("sorted", "worst-case"),
            backends=("bitonic",),
            mitigations=("none", "padding:1", "cfree-sort", "cfree-permute"),
            tiles=8,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    stock = result.cell("worst-case", "bitonic", "none")
    assert stock.total_replays > 0
    assert (
        stock.shared_cycles
        == result.cell("sorted", "bitonic", "none").shared_cycles
    )
    for spec in ("cfree-sort", "cfree-permute"):
        assert result.cell("worst-case", "bitonic", spec).total_replays == 0
    stats = benchmark.stats.stats
    record_timing(
        "bitonic_matrix",
        seconds=stats.median,
        min_seconds=stats.min,
        iqr_seconds=stats.iqr,
        n=result.num_elements,
        cells=len(result.cells),
        sorter="bitonic",
        backend="numpy",
    )
    record(
        f"Matrix bitonic row (N={result.num_elements:,}): "
        f"{stock.replays_per_element:.2f} conflicts/elem on every family "
        "stock, 0.00 under both cfree layouts"
    )
