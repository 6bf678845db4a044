"""The four workloads: seeded plans, the timed op, and the output checks.

A plan is a sequence of *cycles* that repeat one pattern of op classes
(ops of a class do the same work); ``--seed`` changes only the inputs, so a
run's op mix does not depend on how many cycles fit in it. An op
has three parts: :meth:`Workload.prepare` builds its input (untimed),
:meth:`Workload.execute` is the timed call into the library or service
with its defaults, and :meth:`Workload.check` validates the output
(untimed). Checks too costly per op run once per class in
:meth:`Workload.final_checks`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.adversary import verify_worst_case, worst_case_permutation
from repro.adversary.assignment import construct_warp_assignment
from repro.adversary.family import random_family_member
from repro.bench.runner import SweepRunner
from repro.gpu import get_device
from repro.inputs import generate
from repro.sort import PairwiseMergeSort, preset
from repro.sort.serialize import results_identical

from harness import HERE, ErrorLog, child_env


@dataclass(frozen=True)
class Op:
    """One planned operation: a unique id, its class, and what it does."""

    id: int
    cls: tuple
    spec: tuple


def derive(*keys: int) -> int:
    """A 32-bit seed determined by ``keys`` (run seed first)."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def digest(values: np.ndarray) -> str:
    arr = np.ascontiguousarray(values)
    return hashlib.blake2b(arr.dtype.str.encode() + arr.tobytes(), digest_size=16).hexdigest()


def without_memo(result):
    """``result`` with ``memo_stats`` cleared: it differs legitimately
    between a memoized path and a reference run."""
    return dataclasses.replace(result, memo_stats=None)


def matches_oracle(result, oracle) -> bool:
    """Same values, rounds and conflict counters as the loop oracle.

    Compares expanded per-step costs, as the repository's equivalence
    suite does: ``results_identical`` also compares how a report's steps
    are segmented, which differs between scoring paths by design.
    """
    if not np.array_equal(result.values, oracle.values) or len(result.rounds) != len(oracle.rounds):
        return False
    fields = ("label", "kind", "run_length", "blocks_total", "blocks_scored", "compute_instructions", "global_traffic")
    counters = ("num_banks", "num_steps", "num_accesses", "num_requests", "total_transactions", "total_replays", "max_degree")
    for a, b in zip(result.rounds, oracle.rounds):
        if any(getattr(a, f) != getattr(b, f) for f in fields):
            return False
        for report in ("merge_report", "partition_report", "staging_report"):
            ra, rb = getattr(a, report), getattr(b, report)
            if any(getattr(ra, c) != getattr(rb, c) for c in counters):
                return False
            if not np.array_equal(ra.per_step_transactions, rb.per_step_transactions):
                return False
    return True


class Workload:
    """Base: one caller, this process's peak RSS, no end-of-run counters."""

    name = ""
    callers = 1
    #: Cycles after which the plan's pattern of op classes repeats.
    period = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.errors = ErrorLog()
        self.tracer = None
        self._rss_mb = None

    def cycle(self, caller: int, index: int) -> list[Op]:
        raise NotImplementedError

    def warmup_op(self) -> Op:
        """The discarded op that ends set-up."""
        raise NotImplementedError

    def setup(self, tracer=None) -> None:
        self.tracer = tracer

    def warmup(self) -> None:
        op = self.warmup_op()
        self.execute(0, self.prepare(op))

    def prepare(self, op: Op):
        raise NotImplementedError

    def execute(self, caller: int, prepared):
        raise NotImplementedError

    def check(self, op: Op, prepared, output) -> bool:
        raise NotImplementedError

    def final_checks(self) -> set[int]:
        return set()

    def mark_start(self) -> None:
        pass

    def mark_peak(self) -> None:
        """Record peak RSS so far (called after the first cycles)."""
        self._rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def mark_end(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return self._rss_mb

    def layer_counters(self) -> dict:
        return {}

    def teardown(self) -> None:
        pass

    def note_error(self, op: Op, exc: BaseException) -> None:
        self.errors.add(f"op {op.id} {op.spec}: {type(exc).__name__}: {exc}")


# -- simulate_exact ---------------------------------------------------------------


class SimulateExact(Workload):
    """Exact (every block scored) simulated sorts through the default sorter."""

    name = "simulate_exact"
    period = 2
    CONFIGS = ("thrust-maxwell", "mgpu-maxwell")
    FAMILIES = ("random", "few-unique", "conflict-heavy")
    TILES = (4, 16, 32)
    #: Over each pair of cycles: none 50%, padding 25%, cfree-sort 25%.
    MITIGATIONS = (("none", "padding:1"), ("none", "cfree-sort"))

    def cycle(self, caller, index):
        ops = []
        # Size-major, so each class's first op is a small one and the
        # loop-oracle check stays cheap.
        for tiles in self.TILES:
            for family in self.FAMILIES:
                for config in self.CONFIGS:
                    for mitigation in self.MITIGATIONS[index % 2]:
                        slot = len(ops)
                        ops.append(
                            Op(
                                id=index * 36 + slot,
                                cls=(config, family, tiles, mitigation),
                                spec=(config, family, tiles, mitigation, derive(self.seed, index, slot)),
                            )
                        )
        return ops

    def warmup_op(self):
        return Op(-1, (), ("mgpu-maxwell", "random", 4, "none", derive(self.seed, 1 << 20)))

    def setup(self, tracer=None):
        super().setup(tracer)
        self.sorters = {
            (config, mitigation): PairwiseMergeSort(preset(config), mitigation=mitigation)
            for config in self.CONFIGS
            for mitigation in {m for pair in self.MITIGATIONS for m in pair}
        }
        self._first = {}

    def prepare(self, op):
        config, family, tiles, mitigation, seed = op.spec
        cfg = preset(config)
        return op, generate(family, cfg, tiles * cfg.tile_size, seed=seed)

    def execute(self, caller, prepared):
        op, values = prepared
        config, _, _, mitigation, _ = op.spec
        return self.sorters[(config, mitigation)].sort(values)

    def check(self, op, prepared, output):
        _, values = prepared
        ok = bool(np.array_equal(output.values, np.sort(values)))
        config, family, _, mitigation, _ = op.spec
        if mitigation == "cfree-sort":
            ok = ok and output.total_replays() == 0
        if ok and (config, family, mitigation) not in self._first:
            self._first[(config, family, mitigation)] = (op, values, output)
        return ok

    def final_checks(self):
        failed = set()
        for op, values, result in self._first.values():
            config, _, _, mitigation, _ = op.spec
            oracle = PairwiseMergeSort(preset(config), scoring="loop", mitigation=mitigation).sort(values)
            if not matches_oracle(result, oracle):
                failed.add(op.id)
        return failed


# -- sweep_figure -----------------------------------------------------------------


class SweepFigure(Workload):
    """Figs. 4-6 sweep points through runners built with their defaults."""

    name = "sweep_figure"
    PRESETS = ("thrust-maxwell", "mgpu-maxwell")
    DEVICES = ("quadro-m4000", "rtx-2080-ti")
    FAMILIES = ("sorted", "random", "worst-case", "conflict-heavy")
    #: Above the exact threshold points are analytic or synthesized and
    #: cheap; reaching toward the paper's 2.9e8 puts the latency median
    #: inside the analytic points rather than at their edge.
    MAX_ELEMENTS = 1 << 26

    def cycle(self, caller, index):
        runner_seed = derive(self.seed, index)
        # The device changes only the timing model, not the simulated work,
        # so cycles alternate devices and every cycle costs the same.
        device = self.DEVICES[index % 2]
        ops = []
        # The CLI's curve order: runner by runner, curve by curve, sizes up.
        for name in self.PRESETS:
            for family in self.FAMILIES:
                for n in preset(name).valid_sizes(self.MAX_ELEMENTS):
                    ops.append(
                        Op(
                            id=index * 1000 + len(ops),
                            cls=(name, family, n),
                            spec=(name, device, family, n, index, runner_seed),
                        )
                    )
        return ops

    def warmup_op(self):
        return Op(-1, (), ("mgpu-maxwell", "quadro-m4000", "random", 1920 * 4, -1, derive(self.seed, 1 << 20)))

    def setup(self, tracer=None):
        super().setup(tracer)
        self._runners = {}
        self._first = {}

    def prepare(self, op):
        name, device, _, _, index, runner_seed = op.spec
        runner = self._runners.get(name)
        if runner is None or runner[0] != index:
            # A fresh runner per (preset, device) per cycle, so every cycle
            # pays the same calibrations.
            runner = (index, SweepRunner(preset(name), get_device(device), seed=runner_seed))
            self._runners[name] = runner
        return op, runner[1]

    def execute(self, caller, prepared):
        op, runner = prepared
        _, _, family, n, _, _ = op.spec
        return runner.run_point(family, n)

    def check(self, op, prepared, output):
        name, _, family, n, _, _ = op.spec
        ok = (
            output.num_elements == n
            and output.input_name == family
            and output.config_name == preset(name).name
            and math.isfinite(output.milliseconds)
            and output.milliseconds > 0
        )
        curve = op.spec[:3]
        if ok and curve not in self._first:
            self._first[curve] = (op, output)
        return ok

    def final_checks(self):
        failed = set()
        for op, point in self._first.values():
            name, device, family, n, _, runner_seed = op.spec
            explicit = SweepRunner(
                preset(name), get_device(device), seed=runner_seed, scoring="vectorized"
            ).run_point(family, n)
            if explicit != point:
                failed.add(op.id)
        return failed


# -- construct_verify -------------------------------------------------------------


class ConstructVerify(Workload):
    """Build the worst-case input and verify it against the theorem bound."""

    name = "construct_verify"
    PRESETS = ("thrust-maxwell", "mgpu-maxwell", "thrust-cc60", "mgpu-cc60")
    TILES = (8, 32, 128)

    def cycle(self, caller, index):
        ops = []
        for tiles in self.TILES:
            for name in self.PRESETS:
                for k in range(4):
                    slot = len(ops)
                    # Every 4th op verifies a random permutation-family member.
                    member = derive(self.seed, index, slot) if k == 3 else None
                    ops.append(Op(id=index * 48 + slot, cls=(name, tiles, k == 3), spec=(name, tiles, member)))
        return ops

    def warmup_op(self):
        return Op(-1, (), ("mgpu-maxwell", 8, derive(self.seed, 1 << 20)))

    def prepare(self, op):
        name, tiles, member = op.spec
        cfg = preset(name)
        assignment = None
        if member is not None:
            assignment = random_family_member(construct_warp_assignment(cfg.w, cfg.E), seed=member)
        return op, cfg, tiles * cfg.tile_size, assignment

    def execute(self, caller, prepared):
        _, cfg, n, assignment = prepared
        values = worst_case_permutation(cfg, n, assignment=assignment)
        return values, verify_worst_case(cfg, values)

    def check(self, op, prepared, output):
        _, _, n, _ = prepared
        values, report = output
        return report.ok and bool(np.array_equal(np.sort(values), np.arange(n)))


# -- service_mixed ----------------------------------------------------------------

#: Service request classes: kind, hot or not, and request fields (the wire
#: defaults fill the rest). Hot keys are sent verbatim every cycle; tail
#: keys get a fresh seed per request.
_REQUESTS = {
    "sim_a": ("simulate", True, {"preset": "thrust-maxwell", "tiles": 4}),
    "sim_b": ("simulate", True, {"preset": "mgpu-maxwell", "tiles": 8, "input": "random"}),
    "sim_c": ("simulate", True, {"preset": "thrust-cc60", "tiles": 2, "input": "random"}),
    "sweep_a": ("sweep", True, {"preset": "thrust-maxwell", "device": "quadro-m4000", "inputs": ["random"], "tiles": 2}),
    "sweep_b": ("sweep", True, {"preset": "mgpu-maxwell", "device": "rtx-2080-ti", "inputs": ["conflict-heavy"], "tiles": 4}),
    "con_a": ("construct", True, {"preset": "mgpu-maxwell", "tiles": 16}),
    "sim_t1": ("simulate", False, {"preset": "thrust-maxwell", "tiles": 2, "input": "random"}),
    "sim_t2": ("simulate", False, {"preset": "mgpu-maxwell", "tiles": 4, "input": "worst-case"}),
    "sim_t3": ("simulate", False, {"preset": "mgpu-cc60", "tiles": 4, "input": "random"}),
    "sim_t4": ("simulate", False, {"preset": "thrust-cc60", "tiles": 4, "input": "worst-case"}),
    "sim_t5": ("simulate", False, {"preset": "mgpu-maxwell", "tiles": 8, "input": "random"}),
    "sim_t6": ("simulate", False, {"preset": "thrust-maxwell", "tiles": 1, "input": "random"}),
    "sim_t7": ("simulate", False, {"preset": "mgpu-cc60", "tiles": 2, "input": "worst-case"}),
    "sweep_t1": ("sweep", False, {"preset": "mgpu-maxwell", "device": "quadro-m4000", "inputs": ["random"], "tiles": 4}),
    "sweep_t2": ("sweep", False, {"preset": "thrust-maxwell", "device": "rtx-2080-ti", "inputs": ["worst-case"], "tiles": 4}),
    "sweep_t3": ("sweep", False, {"preset": "thrust-cc60", "device": "rtx-2080-ti", "inputs": ["conflict-heavy"], "tiles": 2}),
    "con_t1": ("construct", False, {"preset": "thrust-cc60", "tiles": 16}),
    "con_t2": ("construct", False, {"preset": "mgpu-maxwell", "tiles": 64}),
}

#: One client cycle: 55% simulate, 25% sweep, 20% construct; 8 of the 20
#: requests hit the 6 hot keys.
_CYCLE = (
    "sim_a", "sim_t1", "sweep_t1", "con_a", "sim_t2",
    "sim_b", "sim_t3", "sweep_a", "con_t1", "sim_t4",
    "sim_c", "sim_t5", "sweep_t2", "con_a", "sim_t6",
    "sim_a", "sweep_b", "sim_t7", "con_t2", "sweep_t3",
)


class ServiceMixed(Workload):
    """Two closed-loop clients against a ``serve`` daemon subprocess."""

    name = "service_mixed"
    callers = 2

    def cycle(self, caller, index):
        # Client 1 runs the cycle half a turn ahead of client 0, so the
        # two meet on hot keys only some of the time.
        order = _CYCLE[10 * caller:] + _CYCLE[: 10 * caller]
        ops = []
        for slot, key in enumerate(order):
            kind, hot, fields = _REQUESTS[key]
            # /construct takes no seed: its tail keys repeat every cycle.
            seed = None if hot or kind == "construct" else derive(self.seed, caller, index, slot) % 1_000_000 + 1
            ops.append(
                Op(
                    id=(index * len(order) + slot) * self.callers + caller,
                    cls=(key,),
                    spec=(kind, key, seed),
                )
            )
        return ops

    def warmup_op(self):
        return Op(-1, ("sim_t6",), ("simulate", "sim_t6", derive(self.seed, 1 << 20) % 1_000_000 + 1))

    def setup(self, tracer=None):
        super().setup(tracer)
        from repro.service.client import ServiceClient

        self._first = {}
        self._deferred = []
        self.daemon_spans_path = None
        tag = f"{self.name}-{self.seed}-{time.time_ns()}"
        if tracer is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            self.daemon_spans_path = self.out_dir / f"spans-{tag}-daemon.jsonl"
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(self.daemon_spans_path)]
        self._log_path = self.out_dir / f"daemon-{tag}.log"
        self._log = open(self._log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log, env=child_env()
        )
        url = f"http://127.0.0.1:{self._wait_for_port()}"
        self.clients = [ServiceClient(url) for _ in range(self.callers)]
        self.clients[0].healthz()

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        pattern = re.compile(r"listening on http://[^:]+:(\d+)")
        while time.monotonic() < deadline:
            match = pattern.search(self._log_path.read_text(encoding="utf-8"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}; see {self._log_path}")
            time.sleep(0.02)
        raise RuntimeError(f"daemon did not report its port within {timeout:g}s")

    def prepare(self, op):
        kind, key, seed = op.spec
        fields = dict(_REQUESTS[key][2])
        if seed is not None:
            fields["seed"] = seed
        if kind == "sweep":
            fields["max_elements"] = fields.pop("tiles") * preset(fields["preset"]).tile_size
        return op, kind, fields

    def execute(self, caller, prepared):
        _, kind, fields = prepared
        return getattr(self.clients[caller], kind)(**fields)

    def check(self, op, prepared, output):
        _, kind, fields = prepared
        cfg = preset(fields["preset"])
        if kind == "simulate":
            result = output.result
            ok = output.sorted_ok and result.num_elements == fields["tiles"] * cfg.tile_size
            self._deferred.append((op.id, kind, fields, digest(result.values)))
            self._note_fidelity(op, result.total_replays(), result.num_elements)
        elif kind == "sweep":
            sizes = cfg.valid_sizes(fields["max_elements"])
            ok = [p.num_elements for p in output.points] == sizes and all(
                p.input_name == fields["inputs"][0] and p.milliseconds > 0 for p in output.points
            )
            for p in output.points:
                self._note_fidelity(op, p.replays_per_element * p.num_elements, p.num_elements)
        else:
            ok = output.size == fields["tiles"] * cfg.tile_size
            self._deferred.append((op.id, kind, fields, digest(output)))
        if ok and op.cls not in self._first:
            self._first[op.cls] = (op, kind, fields, output)
        return ok

    def _note_fidelity(self, op, replays, elements):
        if self.tracer is not None:
            self.tracer.note_fidelity(op.id, replays, elements)

    def final_checks(self):
        failed = set()
        expected = {}
        for op_id, kind, fields, got in self._deferred:
            key = (kind, tuple(sorted((k, str(v)) for k, v in fields.items())))
            if key not in expected:
                cfg = preset(fields["preset"])
                n = fields["tiles"] * cfg.tile_size
                if kind == "simulate":
                    values = generate(fields.get("input", "worst-case"), cfg, n, seed=fields.get("seed", 0))
                    expected[key] = digest(np.sort(values))
                else:
                    expected[key] = digest(worst_case_permutation(cfg, n))
            if got != expected[key]:
                failed.add(op_id)
        for op, kind, fields, output in self._first.values():
            cfg = preset(fields["preset"])
            seed = fields.get("seed", 0)
            if kind == "simulate":
                values = generate(fields.get("input", "worst-case"), cfg, fields["tiles"] * cfg.tile_size, seed=seed)
                direct = PairwiseMergeSort(cfg).sort(values, score_blocks=8, seed=seed)
                ok = results_identical(without_memo(direct), without_memo(output.result))
            elif kind == "sweep":
                runner = SweepRunner(
                    cfg, get_device(fields["device"]), exact_threshold=1 << 20, seed=seed
                )
                direct = runner.sweep(fields["inputs"][0], cfg.valid_sizes(fields["max_elements"]))
                ok = direct == output.points
            else:
                ok = bool(np.array_equal(output, worst_case_permutation(cfg, output.size)))
            if not ok:
                failed.add(op.id)
        return failed

    def mark_start(self):
        self._stats_start = self.clients[0].stats()

    def mark_peak(self):
        self._rss_mb = _vm_hwm_mb(self.proc.pid)

    def mark_end(self):
        self._stats_end = self.clients[0].stats()

    def layer_counters(self):
        a, b = self._stats_start, self._stats_end
        # Each /stats call is one request on its own connection; take the
        # closing call out of the deltas.
        requests = sum(b["requests"].values()) - sum(a["requests"].values()) - 1
        connections = b["connections"] - a["connections"] - 1
        primary = b["batching"]["primary"] - a["batching"]["primary"]
        coalesced = b["batching"]["coalesced"] - a["batching"]["coalesced"]
        hits = b["memo"]["hits"] - a["memo"]["hits"]
        misses = b["memo"]["misses"] - a["memo"]["misses"]
        return {
            "service.connections_per_request": connections / requests if requests else 0.0,
            "service.coalesced_ratio": coalesced / (primary + coalesced) if primary + coalesced else 0.0,
            "service.rejected": b["backpressure"]["rejected"] - a["backpressure"]["rejected"],
            "service.peak_in_flight": b["batching"]["peak_in_flight"],
            "dmm.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        }

    def teardown(self):
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        try:
            if proc.poll() is None:
                self.clients[0].shutdown()
                proc.wait(timeout=60)
        except Exception:  # noqa: BLE001 - fall through to kill
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            self._log.close()


def _vm_hwm_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


WORKLOAD_CLASSES = {cls.name: cls for cls in (SimulateExact, SweepFigure, ConstructVerify, ServiceMixed)}


def create(name: str, seed: int, out_dir: Path) -> Workload:
    return WORKLOAD_CLASSES[name](seed, out_dir)
