#!/usr/bin/env python3
"""Defenses against the worst-case input: padding and obliviousness.

Three ways to face the paper's adversary, measured on one playing field:

1. **do nothing** — stock pairwise merge sort eats the E² serialization;
2. **Dotsenko co-prime padding** — skew the shared layout; conflicts
   collapse to below the random level, at an occupancy price;
3. **switch to bitonic sort** — data-oblivious, so the adversary cannot
   exist, but you pay Θ(N log² N) work and its own structural conflicts.

Run:  python examples/mitigations_and_baselines.py
"""

import numpy as np

from repro import QUADRO_M4000, SortConfig, occupancy, worst_case_permutation
from repro.bench.ascii_plot import table
from repro.mitigation.padding import padded_shared_bytes
from repro.sort.bitonic import BitonicSort
from repro.sort.pairwise import PairwiseMergeSort

CFG = SortConfig(elements_per_thread=15, block_size=512, name="thrust")
N = CFG.tile_size * 1024 // 15 * 15  # keep a merge-sort-valid size
N = CFG.tile_size * 64


def main() -> None:
    adversarial = worst_case_permutation(CFG, N)
    random = np.random.default_rng(0).permutation(N)
    print(f"E={CFG.E}, b={CFG.b}, N={N:,}\n")

    rows = []
    for label, sorter in (
        ("stock merge sort", PairwiseMergeSort(CFG)),
        (
            "padded merge sort (pad=1)",
            PairwiseMergeSort(CFG, mitigation="padding:1"),
        ),
    ):
        adv = sorter.sort(adversarial, score_blocks=8)
        rnd = sorter.sort(random, score_blocks=8)
        rows.append(
            {
                "defense": label,
                "worst cycles/elem": adv.total_shared_cycles() / N,
                "random cycles/elem": rnd.total_shared_cycles() / N,
                "adversary's edge": adv.total_shared_cycles()
                / rnd.total_shared_cycles(),
            }
        )

    # Bitonic needs a power-of-two size; compare per-element on 2^19.
    nb = 1 << 19
    bitonic = BitonicSort(block_size=512, warp_size=32)
    cfg_b = SortConfig(elements_per_thread=4, block_size=64)
    adv_b = bitonic.sort(worst_case_permutation(cfg_b, nb))
    rnd_b = bitonic.sort(np.random.default_rng(1).permutation(nb))
    rows.append(
        {
            "defense": "bitonic sort (oblivious)",
            "worst cycles/elem": adv_b.total_shared_cycles() / nb,
            "random cycles/elem": rnd_b.total_shared_cycles() / nb,
            "adversary's edge": adv_b.total_shared_cycles()
            / rnd_b.total_shared_cycles(),
        }
    )
    print(table(rows))

    stock_occ = occupancy(QUADRO_M4000, CFG.b, CFG.shared_bytes_per_block)
    pad_occ = occupancy(QUADRO_M4000, CFG.b, padded_shared_bytes(CFG, 1))
    print(
        f"\nthe padding price on {QUADRO_M4000.name}: "
        f"{stock_occ.blocks_per_sm} -> {pad_occ.blocks_per_sm} resident "
        f"blocks/SM ({stock_occ.occupancy:.0%} -> {pad_occ.occupancy:.0%} "
        "occupancy)"
    )
    print(
        "\ntakeaways: padding removes the adversary's edge entirely (edge "
        "~1.0 or below); bitonic is immune by construction (edge exactly "
        "1.0) but its baseline cost per element is several times higher."
    )


if __name__ == "__main__":
    main()
