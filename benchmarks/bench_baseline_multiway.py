"""Baseline — multiway (K-way) merge sort vs the attacked pairwise sort.

Extension: the paper's Section II cites Karsin et al.'s multiway merge
sort as the other state-of-the-art comparison sort. Two findings:

* **fewer rounds, less traffic** — ``log_K`` vs ``log₂`` global rounds
  slashes ``A_g`` (the very term whose balance against shared conflicts
  drives the choice of ``E``);
* **adversarial decoherence** — the constructed worst case is pairwise-
  specific: under K-way consumption its alignment partially breaks, so the
  same input hurts the multiway sort by a fraction of what it does to the
  pairwise sort.
"""

import numpy as np
from conftest import record, record_timing

from repro.adversary.permutation import worst_case_permutation
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.multiway import MultiwaySort
from repro.sort.pairwise import PairwiseMergeSort

CFG = SortConfig(elements_per_thread=15, block_size=128, name="cmp")
N = CFG.tile_size * 128


def test_multiway_traffic_advantage(benchmark):
    data = generate("random", CFG, N, seed=0)

    def run():
        return (
            MultiwaySort(CFG, k=8).sort(data, score_blocks=4),
            PairwiseMergeSort(CFG).sort(data, score_blocks=4),
        )

    mw, pw = benchmark.pedantic(run, rounds=2, iterations=1)
    assert np.array_equal(mw.values, pw.values)
    w_mw = mw.total_global_traffic().words / N
    w_pw = pw.total_global_traffic().words / N
    assert w_mw < w_pw
    record(
        f"Multiway K=8 vs pairwise (random, N={N:,}): global words/elem "
        f"{w_mw:.1f} vs {w_pw:.1f}; rounds {mw.num_rounds} vs {pw.num_rounds}"
    )


def test_multiway_adversarial_decoherence(benchmark):
    worst = worst_case_permutation(CFG, N)
    random = generate("random", CFG, N, seed=0)

    def edges():
        out = {}
        for name, sorter in (("pairwise", PairwiseMergeSort(CFG)),
                             ("multiway", MultiwaySort(CFG, k=8))):
            w = sorter.sort(worst, score_blocks=4).total_shared_cycles()
            r = sorter.sort(random, score_blocks=4).total_shared_cycles()
            out[name] = w / r
        return out

    out = benchmark.pedantic(edges, rounds=1, iterations=1)
    record(
        f"Multiway decoherence: pairwise-worst input multiplies shared "
        f"cycles by {out['pairwise']:.2f}x on the pairwise sort but only "
        f"{out['multiway']:.2f}x on the K=8 multiway sort — the paper's "
        "construction is algorithm-specific"
    )
    assert out["multiway"] < out["pairwise"]


def test_kway_specific_adversary(benchmark):
    """Beyond the paper: the collapse is constructible for K-way merging
    too — our generalized small-E construction drives every multiway round
    to exactly E² cycles per warp."""
    from repro.adversary.multiway_adversary import multiway_worst_case_permutation

    cfg = SortConfig(elements_per_thread=15, block_size=128, name="kway")
    fan = 4
    n = cfg.tile_size * 16  # 4^2 tiles

    def run():
        perm = multiway_worst_case_permutation(cfg, n, fan=fan)
        return MultiwaySort(cfg, k=fan).sort(perm, score_blocks=4)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    warps_scored = 4 * cfg.warps_per_block
    per_warp = [
        r.merge_report.total_transactions / warps_scored
        for r in result.rounds
        if "multiway" in r.label
    ]
    assert all(v == cfg.E**2 for v in per_warp)
    record(
        f"Multiway adversary (K={fan}, E={cfg.E}): every K-way round at "
        f"exactly {cfg.E**2} = E^2 cycles/warp — the paper's collapse "
        "generalizes beyond pairwise merging"
    )


def test_multiway_matrix_row(benchmark):
    """The mitigation matrix's multiway row at gated speed: scoring the
    multiway backend under every mitigation must stay cheap enough for
    the full matrix to be a routine experiment, and the cfree cells must
    be exactly zero."""
    from repro.bench.matrix import run_matrix

    def run():
        return run_matrix(
            input_names=("sorted", "worst-case"),
            backends=("multiway",),
            mitigations=("none", "padding:1", "cfree-sort", "cfree-permute"),
            tiles=8,
        )

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    stock = result.cell("worst-case", "multiway", "none")
    assert stock.total_replays > 0
    for spec in ("cfree-sort", "cfree-permute"):
        assert result.cell("worst-case", "multiway", spec).total_replays == 0
    stats = benchmark.stats.stats
    record_timing(
        "multiway_matrix",
        seconds=stats.median,
        min_seconds=stats.min,
        iqr_seconds=stats.iqr,
        n=result.num_elements,
        cells=len(result.cells),
        sorter="multiway",
        backend="numpy",
    )
    record(
        f"Matrix multiway row (N={result.num_elements:,}): worst-case "
        f"conflicts/elem {stock.replays_per_element:.2f} stock, 0.00 under "
        "both cfree layouts"
    )
