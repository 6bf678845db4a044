"""Golden digests: every simulated scoring path stays byte-identical.

Each case sorts one seeded input through one scoring path and hashes the
full wire encoding (:func:`~repro.sort.serialize.result_to_obj`): values,
every round's counters, the exact ``step_segments`` structure of every
report, and ``memo_stats``. The digests in ``golden_digests.json`` were
recorded with the trace-based scorers, so every faster path must
reproduce their results byte for byte.

To re-record after a deliberate change to simulated results (never to
make a speed-up pass)::

    PYTHONPATH=src python tests/sort/test_golden_digests.py > tests/sort/golden_digests.json
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.inputs.generators import generate
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.presets import preset
from repro.sort.serialize import result_to_obj

GOLDEN = Path(__file__).with_name("golden_digests.json")

PRESETS = ("thrust-maxwell", "thrust-cc60", "mgpu-maxwell", "mgpu-cc60")
FAMILIES = ("random", "conflict-heavy", "worst-case")
MITIGATIONS = ("none", "padding:1", "cfree-sort")
#: Scoring path name -> sorter keyword arguments.
PATHS = {
    "memoized": {"scoring": "vectorized"},
    "vectorized": {"scoring": "vectorized", "memo": None},
    "fused": {"scoring": "fused"},
}
#: Sampling regime name -> ``score_blocks``.
SAMPLING = {"exact": None, "sampled": 3}
TILES = 4
SEED = 7


def case_ids() -> list[str]:
    return [
        "/".join(parts)
        for parts in itertools.product(PRESETS, FAMILIES, MITIGATIONS, PATHS, SAMPLING)
    ]


def case_digest(case: str) -> str:
    """blake2b of the canonical JSON encoding of one case's result."""
    name, family, mitigation, path, sampling = case.split("/")
    config = preset(name)
    values = generate(family, config, TILES * config.tile_size, seed=SEED)
    # A fresh sorter per case: memo_stats must not depend on case order.
    sorter = PairwiseMergeSort(config, mitigation=mitigation, **PATHS[path])
    result = sorter.sort(values, score_blocks=SAMPLING[sampling], seed=SEED)
    encoded = json.dumps(result_to_obj(result), sort_keys=True).encode()
    return hashlib.blake2b(encoded, digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_table_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids())


@pytest.mark.parametrize("case", case_ids())
def test_result_digest_matches_golden(case, golden):
    assert case_digest(case) == golden[case]


if __name__ == "__main__":
    print(json.dumps({case: case_digest(case) for case in case_ids()}, indent=1, sort_keys=True))
