"""Ablation — Dotsenko co-prime padding vs the constructed worst case.

The paper's related work recalls that bank-conflict-free layouts (padding)
avoid worst cases "at a price". This bench quantifies both sides for the
Thrust parameters on the Quadro M4000:

* conflict side: padding collapses the adversarial serialization to below
  the random-input level (the construction's alignment is layout-specific);
* price side: the padded tile costs extra shared memory, which can drop a
  resident block (the occupancy arithmetic of Section IV-A).
"""

import numpy as np
from conftest import record

from repro.adversary.permutation import worst_case_permutation
from repro.gpu.device import QUADRO_M4000
from repro.gpu.occupancy import occupancy
from repro.mitigation.padding import padded_shared_bytes
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort

CFG = SortConfig(elements_per_thread=15, block_size=512, name="thrust")
N = CFG.tile_size * 32


def test_padding_vs_adversary(benchmark):
    perm = worst_case_permutation(CFG, N)

    def run(mitigation):
        sorter = PairwiseMergeSort(CFG, mitigation=mitigation)
        return sorter.sort(perm, score_blocks=4)

    padded = benchmark.pedantic(
        lambda: run("padding:1"), rounds=2, iterations=1
    )
    stock = run("none")
    rng = np.random.default_rng(0)
    random_stock = PairwiseMergeSort(CFG).sort(rng.permutation(N), score_blocks=4)

    s = stock.total_shared_cycles() / N
    p = padded.total_shared_cycles() / N
    r = random_stock.total_shared_cycles() / N
    assert p < 0.6 * s
    record(
        f"Ablate padding (w=32, E=15): worst-case shared cycles/elem "
        f"{s:.2f} (stock) -> {p:.2f} (pad=1); random baseline {r:.2f} — "
        "padding neutralizes the construction"
    )


def test_padding_occupancy_price(benchmark):
    def occupancies():
        stock = occupancy(QUADRO_M4000, CFG.b, CFG.shared_bytes_per_block)
        padded = occupancy(QUADRO_M4000, CFG.b, padded_shared_bytes(CFG, 1))
        return stock, padded

    stock, padded = benchmark(occupancies)
    assert padded.shared_bytes_per_block > stock.shared_bytes_per_block
    record(
        f"Ablate padding price: tile {stock.shared_bytes_per_block:,} B -> "
        f"{padded.shared_bytes_per_block:,} B; blocks/SM "
        f"{stock.blocks_per_sm} -> {padded.blocks_per_sm} on "
        f"{QUADRO_M4000.name} (occupancy {stock.occupancy:.0%} -> "
        f"{padded.occupancy:.0%})"
    )
