"""The mitigation subsystem's equivalence and zero-conflict contracts.

Three guarantees anchor the adversary-vs-mitigation matrix:

* ``mitigation="none"`` is *exactly* the default stock sorter — not
  merely equal counts but bit-identical results;
* the ``padding`` backend's remap is *exactly* the ``pad_addresses``
  transform the analytic engine and the reference kernel apply;
* the conflict-free layouts really are conflict free: zero excess
  replays on every constructed family, on every backend, while the
  stock layout reproduces the paper's pile-up on the same inputs.

Plus the property that makes tile-subset scoring safe: a remap keys off
the warp *lane* (trailing-axis column), never the global row position,
so scoring sampled tiles, or one tile per run of equal tiles, cannot
change the answer.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.inputs.generators import generate
from repro.mitigation.padding import pad_addresses
from repro.mitigation.registry import create_mitigation
from repro.service.protocol import SimulateRequest
from repro.service.result_cache import ReplyCache, SimulateEntry, simulate_key
from repro.sort.pairwise import PairwiseMergeSort
from repro.sort.serialize import config_to_obj
from tests.engine.comparison import (
    CONFIGS,
    INPUTS,
    assert_results_identical,
    counting_every_row,
    rows_counted,
)

CFG = CONFIGS["small-e"]
N = CFG.tile_size * 8

CFREE_SPECS = ("cfree-sort", "cfree-permute")

#: The engineered families — the inputs the defenses exist to survive.
CONSTRUCTED = ("worst-case", "conflict-heavy")


def _sort(mitigation="none", *, config=CFG, data=None, name="worst-case",
          **kwargs):
    if data is None:
        data = generate(name, config, N, seed=0)
    sorter = PairwiseMergeSort(config, mitigation=mitigation, **kwargs)
    return sorter.sort(data, score_blocks=None)


class TestNoneIsLegacyStock:
    @pytest.mark.parametrize("name", INPUTS)
    def test_bit_identical_per_family(self, name):
        data = generate(name, CFG, N, seed=0)
        legacy = PairwiseMergeSort(CFG).sort(data)
        routed = PairwiseMergeSort(CFG, mitigation="none").sort(data)
        assert_results_identical(routed, legacy)

    def test_native_padding_keeps_identity_shortcut(self):
        """``none`` must not even copy the dense matrices: the identity
        shortcut in ``_physical`` stays on the fast path."""
        none = create_mitigation("none")
        assert none.native_padding == 0
        dense = np.arange(32, dtype=np.int64).reshape(4, 8)
        assert np.array_equal(none.remap(dense, 8), dense)


class TestPaddingBackendIsLegacyKnob:
    @pytest.mark.parametrize("pad", [0, 1, 3])
    def test_remap_is_pad_addresses_verbatim(self, pad):
        rng = np.random.default_rng(0)
        dense = rng.integers(-1, 512, size=(40, 16)).astype(np.int64)
        backend = create_mitigation(f"padding:{pad}")
        assert np.array_equal(
            backend.remap(dense, 16), pad_addresses(dense, 16, pad)
        )


class TestCfreeLayoutsAreConflictFree:
    @pytest.mark.parametrize("spec", CFREE_SPECS)
    @pytest.mark.parametrize("name", CONSTRUCTED)
    def test_zero_replays_on_constructed_families(self, name, spec):
        """Exact (every-block) scoring: the cfree layouts report zero
        excess replays on the engineered inputs, while the stock layout
        reproduces the pile-up on the very same data."""
        data = generate(name, CFG, N, seed=0)
        stock = _sort("none", data=data)
        assert stock.total_replays() > 0
        mitigated = _sort(spec, data=data)
        assert mitigated.total_replays() == 0
        np.testing.assert_array_equal(mitigated.values, stock.values)

    @pytest.mark.parametrize("spec", CFREE_SPECS)
    def test_zero_replays_across_the_matrix_backends(self, spec):
        """The guarantee holds for every backend in the matrix grid, not
        just the pairwise sort the adversary targets."""
        from repro.bench.matrix import run_matrix

        result = run_matrix(
            input_names=("worst-case",),
            mitigations=("none", spec),
            tiles=4,
        )
        for backend in result.backends:
            assert result.cell("worst-case", backend, "none").total_replays > 0
            cell = result.cell("worst-case", backend, spec)
            assert cell.total_replays == 0
            assert cell.conflict_factor == 1.0

    @pytest.mark.parametrize("spec", CFREE_SPECS)
    def test_remap_lands_every_lane_on_its_own_bank(self, spec):
        """Why the guarantee is input-independent: physical address mod
        warp size equals the lane index, so no two active lanes of a
        warp step can ever collide — for ANY logical pattern."""
        backend = create_mitigation(spec)
        rng = np.random.default_rng(1)
        w = 8
        dense = rng.integers(0, 256, size=(64, w)).astype(np.int64)
        dense[3, 2] = -1  # inactive lane must pass through
        phys = backend.remap(dense, w)
        assert phys[3, 2] == -1
        active = phys >= 0
        lanes = np.broadcast_to(np.arange(w), phys.shape)
        assert np.array_equal(phys[active] % w, lanes[active])

    @pytest.mark.parametrize("spec", CFREE_SPECS)
    def test_remap_is_row_position_independent(self, spec):
        """The tile-subset property: remapping a subset of rows equals
        taking the same subset of the remapped whole, so scoring a subset
        of tiles is bit-identical."""
        backend = create_mitigation(spec)
        rng = np.random.default_rng(2)
        dense = rng.integers(0, 256, size=(32, 8)).astype(np.int64)
        subset = np.array([0, 5, 17, 31])
        assert np.array_equal(
            backend.remap(dense, 8)[subset], backend.remap(dense[subset], 8)
        )


class TestScoringPathsAgreePerMitigation:
    @pytest.mark.parametrize(
        "spec", ["none", "padding:1", "cfree-sort", "cfree-permute"]
    )
    def test_memoized_fused_loop_match_vectorized(self, spec):
        """The default path reuses each run's counts (and must engage on
        this periodic input); counting every row is the reference."""
        data = generate("worst-case", CFG, N, seed=0)
        with counting_every_row():
            reference = _sort(spec, data=data)
        memoized = []
        assert rows_counted(lambda: memoized.append(_sort(spec, data=data)))
        assert_results_identical(memoized[0], reference)
        for scoring in ("fused", "loop"):
            assert_results_identical(
                _sort(spec, data=data, scoring=scoring), reference
            )

    def test_memo_context_separates_mitigations(self):
        """Warm state from one layout must never serve another: the
        daemon's reply cache keys on the mitigation spec."""
        data = generate("worst-case", CFG, N, seed=0)
        cache = ReplyCache()
        results = []
        for spec in ("none", "cfree-sort"):
            request = SimulateRequest.from_payload(
                {"config": config_to_obj(CFG), "tiles": 8, "mitigation": spec}
            )
            key = simulate_key(request, data)
            # Nothing leaked across layouts.
            assert cache.get("/simulate", key) is None
            results.append(_sort(spec, data=data))
            cache.put("/simulate", key, SimulateEntry.encode(results[-1]))
        first, second = results
        assert first.total_replays() > 0
        assert second.total_replays() == 0

    def test_analytic_rejects_unmodeled_layouts(self):
        with pytest.raises(ValidationError):
            PairwiseMergeSort(CFG, scoring="analytic", mitigation="cfree-sort")
        PairwiseMergeSort(CFG, scoring="analytic", mitigation="padding:1")
