"""Golden digests: every simulated scoring path stays byte-identical.

Each case sorts one seeded input through one scoring path and hashes the
full wire encoding (:func:`~repro.sort.serialize.result_to_obj`): values,
every round's counters, the exact ``step_segments`` structure of every
report, and the ``memo_stats: null`` field. The digests in
``golden_digests.json`` were recorded with the trace-based scorers, so
every faster path must reproduce their results byte for byte.

To re-record after a deliberate change to simulated results (never to
make a speed-up pass)::

    PYTHONPATH=src:. python tests/sort/test_golden_digests.py > tests/sort/golden_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.inputs.generators import generate
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.presets import preset
from repro.sort.serialize import result_to_obj
from tests.engine.comparison import counting_every_row

GOLDEN = Path(__file__).with_name("golden_digests.json")

PRESETS = ("thrust-maxwell", "thrust-cc60", "mgpu-maxwell", "mgpu-cc60")
FAMILIES = ("random", "conflict-heavy", "worst-case")
MITIGATIONS = ("none", "padding:1", "cfree-sort")
#: Scoring path name -> sorter keyword arguments.
PATHS = {
    "memoized": {"scoring": "vectorized"},
    "vectorized": {"scoring": "vectorized"},
    "fused": {"scoring": "fused"},
}
#: Paths that count every tile row themselves. The default path counts
#: each run of adjacent equal rows once and reuses the counts over the
#: run; the ``memoized`` cases run it as it ships.
EVERY_ROW = frozenset({"vectorized"})
#: Paths pinned to another path's golden digests: counting each run once
#: must reproduce counting every row byte for byte.
SAME_AS = {"memoized": "vectorized"}
#: Sampling regime name -> ``score_blocks``.
SAMPLING = {"exact": None, "sampled": 3}
TILES = 4
SEED = 7


def case_ids(paths=PATHS) -> list[str]:
    return [
        "/".join(parts)
        for parts in itertools.product(PRESETS, FAMILIES, MITIGATIONS, paths, SAMPLING)
    ]


#: The cases ``golden_digests.json`` records.
RECORDED = [p for p in PATHS if p not in SAME_AS]


def golden_key(case: str) -> str:
    """The recorded case whose digest ``case`` must reproduce."""
    parts = case.split("/")
    parts[3] = SAME_AS.get(parts[3], parts[3])
    return "/".join(parts)


def case_digest(case: str) -> str:
    """blake2b of the canonical JSON encoding of one case's result."""
    name, family, mitigation, path, sampling = case.split("/")
    config = preset(name)
    values = generate(family, config, TILES * config.tile_size, seed=SEED)
    sorter = PairwiseMergeSort(config, mitigation=mitigation, **PATHS[path])
    with counting_every_row() if path in EVERY_ROW else contextlib.nullcontext():
        result = sorter.sort(values, score_blocks=SAMPLING[sampling], seed=SEED)
    encoded = json.dumps(result_to_obj(result), sort_keys=True).encode()
    return hashlib.blake2b(encoded, digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_table_covers_every_case(golden):
    assert sorted(golden) == sorted(case_ids(RECORDED))


@pytest.mark.parametrize("case", case_ids())
def test_result_digest_matches_golden(case, golden):
    assert case_digest(case) == golden[golden_key(case)]


if __name__ == "__main__":
    print(json.dumps(
        {case: case_digest(case) for case in case_ids(RECORDED)},
        indent=1,
        sort_keys=True,
    ))
