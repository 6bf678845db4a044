"""Sweep runner: one measured point per (config, device, input, N).

Exact simulation is affordable up to a few million elements; the paper's
sweeps reach ~2.9·10⁸. The runner therefore has two paths:

* ``N ≤ exact_threshold`` — build the input, run the instrumented sort
  (with block sampling), fold counters through the timing model;
* ``N > exact_threshold`` — run one *calibration* sort at the threshold
  size and synthesize the large-``N`` cost from measured per-round,
  per-element rates. This is sound because the instrumentation rates are
  ``N``-independent: the base case is a fixed per-element cost; global
  rounds have statistically identical per-element conflict rates (exactly
  identical for the periodic constructed inputs); and round counts /
  global traffic are closed-form in ``N``. Tests verify synthesized and
  exact costs agree at sizes where both are available.

The calibration size is also an exact point of every sweep that crosses
the threshold, and both need the same instrumented sort: whichever is
asked for first runs it, and the runner keeps the derived rates and the
point (not the sort result), so each (runner, input) sorts at that size
once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench import cache as bench_cache
from repro.bench.cache import BenchCache
from repro.bench.metrics import BenchPoint
from repro.engine.registry import DEFAULT_SCORING, check_scoring, resolve_scoring
from repro.errors import ValidationError
from repro.gpu.device import DeviceSpec
from repro.gpu.occupancy import occupancy
from repro.gpu.timing import KernelCost, TimingModel
from repro.inputs.generators import generate
from repro.sort.config import SortConfig
from repro.sort.pairwise import PairwiseMergeSort, SortResult
from repro.utils.bits import ceil_log2
from repro.utils.validation import check_positive_int

__all__ = ["BenchPoint", "CalibratedRates", "SweepRunner"]


@dataclass(frozen=True)
class CalibratedRates:
    """Per-element instrumentation rates measured at a calibration size.

    ``base_*`` cover the whole base case (register phase + all ``log b``
    block rounds — a fixed per-element cost for any ``N``); ``global_*``
    are per global round per element. ``base_compute`` is the measured
    per-element warp-instruction cost of the base case: the odd-even
    comparator ops of the register phase plus ``3/w`` per block round —
    *not* the ``3/w`` of a single merge round, which is why synthesis
    must take it from here rather than re-deriving it (see
    :meth:`SweepRunner._synthesize_cost`).
    """

    base_shared_cycles: float
    base_shared_steps: float
    base_replays: float
    base_compute: float
    global_shared_cycles: float
    global_shared_steps: float
    global_replays: float

    @classmethod
    def from_result(cls, result: SortResult) -> "CalibratedRates":
        """Measure rates from an instrumented sort."""
        n = result.num_elements
        base = [r for r in result.rounds if r.kind in ("registers", "block")]
        glob = [r for r in result.rounds if r.kind == "global"]
        if not glob:
            raise ValidationError(
                "calibration run must include at least one global round "
                "(use N >= 2 tiles)"
            )
        return cls(
            base_shared_cycles=sum(r.shared_cycles for r in base) / n,
            base_shared_steps=sum(r.shared_steps for r in base) / n,
            base_replays=sum(r.replays for r in base) / n,
            base_compute=sum(r.compute_instructions for r in base) / n,
            global_shared_cycles=sum(r.shared_cycles for r in glob) / (n * len(glob)),
            global_shared_steps=sum(r.shared_steps for r in glob) / (n * len(glob)),
            global_replays=sum(r.replays for r in glob) / (n * len(glob)),
        )


@dataclass
class SweepRunner:
    """Runs bench points for one (config, device) pair.

    Parameters
    ----------
    config, device:
        The sort parameters and simulated GPU.
    exact_threshold:
        Largest ``N`` simulated exactly (default ``2²¹``); larger sizes are
        synthesized from a calibration run at the largest exact size.
    score_blocks:
        Blocks traced per round during simulation (the constructed inputs
        are block-periodic, so small samples are exact for them).
    seed:
        Input-generation seed.
    scoring:
        Round-scoring implementation: ``"auto"`` (the registry-wide
        :data:`~repro.engine.registry.DEFAULT_SCORING` — analytic for
        analytic-eligible (input, N) points, vectorized otherwise,
        keeping the usual exact/synthesized threshold split),
        ``"vectorized"`` (batches every scored tile of a round),
        ``"loop"`` (the per-tile reference), or ``"analytic"``
        (closed-form, constructed families only — exact at *every* size,
        so the synthesized path is never taken). Routing for ``"auto"``
        is :func:`repro.engine.registry.resolve_scoring`, the same
        decision every other execution path uses. Vectorized, loop, analytic
        and auto are bit-identical wherever they overlap (enforced by the
        equivalence tests), so cache fingerprints ignore this knob —
        except for explicit ``"analytic"``, whose exact-at-every-size
        points above ``exact_threshold`` genuinely differ from the
        synthesized ones and get their own fingerprint entry.
    mitigation:
        Shared-memory layout defense, as a spec string (``"none"`` — the
        stock layout the paper attacks — ``"padding:N"``,
        ``"cfree-sort"``, ``"cfree-permute"``) or a
        :class:`~repro.mitigation.base.Mitigation`; canonicalized to its
        spec string at construction.
    cache:
        Optional :class:`~repro.bench.cache.BenchCache`; when set, bench
        points and calibration rates are looked up on disk before any
        instrumented sort runs, and stored after computation.

    ``instrumented_sorts`` counts how many instrumented sorts this runner
    actually executed — zero across a sweep means every point was served
    from the cache.
    """

    config: SortConfig
    device: DeviceSpec
    exact_threshold: int = 1 << 21
    score_blocks: int | None = 8
    seed: int = 0
    scoring: str = DEFAULT_SCORING
    mitigation: str = "none"
    cache: BenchCache | None = None
    instrumented_sorts: int = field(default=0, init=False, repr=False)
    _calibrations: dict = field(default_factory=dict, repr=False)
    #: Calibration-size exact points, per input, from the calibration sort.
    _calibration_points: dict = field(default_factory=dict, init=False, repr=False)
    _engine: object = field(default=None, init=False, repr=False)
    _models: dict = field(default_factory=dict, init=False, repr=False)
    _layout: object = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        from repro.mitigation.registry import create_mitigation

        check_positive_int(self.exact_threshold, "exact_threshold")
        check_scoring(self.scoring)
        # Resolve once: catches the analytic-vs-unmodeled-layout case at
        # construction, and gives the occupancy model the layout's true
        # footprint.
        self._layout = create_mitigation(self.mitigation)
        self.mitigation = self._layout.spec
        if self.scoring == "analytic" and not self._layout.analytic_supported:
            raise ValidationError(
                "scoring='analytic' cannot model mitigation "
                f"{self._layout.spec!r}; use a simulated scoring for this "
                "layout"
            )
        if self.config.warp_size != self.device.warp_size:
            raise ValidationError(
                f"config warp size {self.config.warp_size} != device warp "
                f"size {self.device.warp_size}"
            )

    # -- helpers -----------------------------------------------------------

    @property
    def timing(self) -> TimingModel:
        """The timing model for this device."""
        return TimingModel(self.device)

    @property
    def warps_per_sm(self) -> int:
        """Resident warps per SM at this config's occupancy.

        Uses the mitigation layout's physical footprint — the occupancy
        price of a defense is exactly what the matrix experiment charges
        each backend.
        """
        occ = occupancy(
            self.device,
            self.config.block_size,
            self._layout.shared_bytes(self.config),
        )
        return occ.warps_per_sm

    def _calibration_size(self) -> int:
        """Largest valid exact size (at least two tiles)."""
        n_cal = self._calibration_size_or_none()
        if n_cal is None:
            raise ValidationError(
                f"exact_threshold {self.exact_threshold} leaves no valid "
                f"calibration size for tile {self.config.tile_size}"
            )
        return n_cal

    def _calibration_size_or_none(self) -> int | None:
        sizes = self.config.valid_sizes(self.exact_threshold)
        return sizes[-1] if len(sizes) >= 2 else None

    # -- the two paths -------------------------------------------------------

    def run_point(self, input_name: str, num_elements: int) -> BenchPoint:
        """Measure one sweep point (exact or synthesized as needed).

        With a :attr:`cache` attached, a fingerprint hit returns the
        stored point without running any instrumented sort.
        """
        n = self.config.validate_input_size(num_elements)
        key = self._point_key(input_name, n)
        if key is not None:
            cached = self.cache.get_point(key)
            if cached is not None:
                return cached
        if n <= self.exact_threshold or self.scoring == "analytic":
            point = self._exact_point(input_name, n)
        else:
            point = self._synthesized_point(input_name, n)
        if key is not None:
            self.cache.put_point(key, point)
        return point

    def _point_key(self, input_name: str, n: int) -> dict | None:
        """The cache fingerprint of one point; ``None`` without a cache."""
        if self.cache is None:
            return None
        return bench_cache.point_key(
            self.config,
            self.device,
            input_name=input_name,
            num_elements=n,
            score_blocks=self.score_blocks,
            seed=self.seed,
            exact_threshold=self.exact_threshold,
            # Explicit analytic scoring is exact at every size, so its
            # above-threshold points differ from synthesized ones and
            # must not share their fingerprints. Everywhere the paths
            # overlap they are bit-identical, so no other scoring mode
            # enters the key.
            scoring="analytic" if self.scoring == "analytic" else None,
            mitigation=self.mitigation,
        )

    def _rates_key(self, input_name: str, n_cal: int) -> dict | None:
        """The cache fingerprint of one calibration; ``None`` without a cache."""
        if self.cache is None:
            return None
        return bench_cache.rates_key(
            self.config,
            input_name=input_name,
            calibration_size=n_cal,
            score_blocks=self.score_blocks,
            seed=self.seed,
            mitigation=self.mitigation,
        )

    def _resolved_scoring(self, input_name: str, n: int) -> str:
        """This point's concrete scoring, via the registry's one router."""
        return resolve_scoring(
            self.scoring,
            config=self.config,
            input_name=input_name,
            num_elements=n,
            mitigation=self.mitigation,
        )

    def _use_analytic(self, input_name: str, n: int) -> bool:
        """Whether this point's instrumented sort runs closed-form.

        Explicit ``"analytic"`` passes through (ineligible inputs then
        fail loudly, by design); ``"auto"`` routes eligibility here.
        """
        return self._resolved_scoring(input_name, n) == "analytic"

    def _analytic_sort(self, input_name: str, n: int) -> SortResult:
        from repro.analytic import AnalyticEngine, analytic_model

        if self._engine is None:
            # Analytic-supported layouts are padding-expressible.
            self._engine = AnalyticEngine(
                self.config, padding=self._layout.native_padding or 0
            )
        model = self._models.get((input_name, n))
        if model is None:
            model = self._models[(input_name, n)] = analytic_model(
                input_name, self.config, n
            )
        # BenchPoints never read the sorted values, so skip materializing
        # the O(N) output — this is what makes 2^34-scale points cheap.
        return self._engine.sort_result(
            model,
            score_blocks=self.score_blocks,
            seed=self.seed,
            include_values=False,
        )

    def _instrumented_sort(self, input_name: str, n: int) -> SortResult:
        scoring = self._resolved_scoring(input_name, n)
        self.instrumented_sorts += 1
        if scoring == "analytic":
            return self._analytic_sort(input_name, n)
        data = generate(input_name, self.config, n, seed=self.seed)
        return PairwiseMergeSort(
            self.config, scoring=scoring, mitigation=self._layout
        ).sort(data, score_blocks=self.score_blocks, seed=self.seed)

    def _exact_point(self, input_name: str, n: int) -> BenchPoint:
        if self.scoring != "analytic" and n == self._calibration_size_or_none():
            return self._calibration_point(input_name, n)
        result = self._instrumented_sort(input_name, n)
        return self._point_from(input_name, result)

    def _synthesized_point(self, input_name: str, n: int) -> BenchPoint:
        rates = self._calibrate(input_name)
        cost, replays_per_element = self._synthesize_cost(n, rates)
        return self._to_point(input_name, n, cost, replays_per_element)

    def _point_from(self, input_name: str, result: SortResult) -> BenchPoint:
        cost = result.kernel_cost(self.warps_per_sm)
        return self._to_point(
            input_name, result.num_elements, cost, result.replays_per_element()
        )

    def _calibration_point(self, input_name: str, n_cal: int) -> BenchPoint:
        """The exact point at the calibration size.

        Its instrumented sort is the calibration sort, so one sort serves
        both — whichever is asked for first runs it and keeps the other.
        """
        point = self._calibration_points.get(input_name)
        if point is None:
            point = self._calibration_sort(input_name, n_cal)
        return point

    def _calibrate(self, input_name: str) -> CalibratedRates:
        if input_name in self._calibrations:
            return self._calibrations[input_name]
        n_cal = self._calibration_size()
        key = self._rates_key(input_name, n_cal)
        rates = None if key is None else self.cache.get_rates(key)
        if rates is not None:
            self._calibrations[input_name] = rates
            return rates
        point = self._calibration_sort(input_name, n_cal)
        if key is not None:
            # The calibration-size point came with the sort; store it as
            # ``run_point`` would have.
            self.cache.put_point(self._point_key(input_name, n_cal), point)
        return self._calibrations[input_name]

    def _calibration_sort(self, input_name: str, n_cal: int) -> BenchPoint:
        """Run the calibration-size sort; keep its rates and its point.

        Only the derived rates and point outlive the call, never the
        :class:`SortResult`. The rates go to the cache, if attached, so a
        later runner's synthesized points run no sort; the point is
        returned for the caller to store.
        """
        result = self._instrumented_sort(input_name, n_cal)
        rates = self._calibrations.setdefault(
            input_name, CalibratedRates.from_result(result)
        )
        point = self._calibration_points[input_name] = self._point_from(
            input_name, result
        )
        if self.cache is not None:
            self.cache.put_rates(self._rates_key(input_name, n_cal), rates)
        return point

    def _synthesize_cost(
        self, n: int, rates: CalibratedRates
    ) -> tuple[KernelCost, float]:
        cfg = self.config
        rounds = cfg.num_global_rounds(n)

        shared_cycles = rates.base_shared_cycles * n
        shared_steps = rates.base_shared_steps * n
        replays = rates.base_replays * n
        shared_cycles += rates.global_shared_cycles * n * rounds
        shared_steps += rates.global_shared_steps * n * rounds
        replays += rates.global_replays * n * rounds

        # Global traffic, closed form (mirrors PairwiseMergeSort exactly):
        # base: 2N words streamed; each global round: 2N streamed + the
        # per-block mutual binary searches.
        words = 2 * n
        transactions = 2 * (-(-n // cfg.w))
        blocks = n // cfg.tile_size
        run = cfg.tile_size
        for _ in range(rounds):
            words += 2 * n
            transactions += 2 * (-(-n // cfg.w))
            probes = blocks * 2 * ceil_log2(run + 1)
            transactions += probes
            words += probes
            run *= 2

        # Base compute comes from the calibration (register-phase comparator
        # ops + 3n/w per *block* round); only the global rounds are the flat
        # 3n/w merge term. Deriving the base as another 3n/w understates it
        # and made compute_warp_instructions jump at exact_threshold.
        compute = round(rates.base_compute * n) + (3 * n // cfg.w) * rounds
        cost = KernelCost(
            shared_cycles=round(shared_cycles),
            shared_steps=round(shared_steps),
            global_transactions=transactions,
            global_words=words,
            compute_warp_instructions=compute,
            kernel_launches=1 + 2 * rounds,
            warps_per_sm=self.warps_per_sm,
            element_bytes=cfg.element_bytes,
        )
        return cost, replays / n

    def _to_point(
        self, input_name: str, n: int, cost: KernelCost, replays_per_element: float
    ) -> BenchPoint:
        ms = self.timing.milliseconds(cost)
        return BenchPoint(
            config_name=self.config.name,
            device_name=self.device.name,
            input_name=input_name,
            num_elements=n,
            milliseconds=ms,
            throughput_meps=n / (ms * 1e-3) / 1e6,
            replays_per_element=replays_per_element,
            shared_cycles=cost.shared_cycles,
            global_transactions=cost.global_transactions,
        )

    def sweep(self, input_name: str, sizes) -> list[BenchPoint]:
        """Run a whole size sweep for one input kind."""
        return [self.run_point(input_name, n) for n in sizes]
