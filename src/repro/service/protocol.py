"""Wire protocol of the generation-and-scoring service.

Every endpoint speaks JSON over HTTP/1.1. This module owns the request
schemas (parsing + validation → typed request objects), the response
payload builders, and the *coalescing fingerprints*: a request's
canonical form is hashed with the same content-addressed
:func:`repro.bench.cache.fingerprint` the disk cache uses, so two
requests coalesce exactly when they are guaranteed to produce identical
payloads.

Schema notes:

* A sort configuration is given either as ``"preset": "<name>"`` or as a
  full ``"config": {...}`` field set (see
  :func:`repro.sort.serialize.config_from_obj`); ``preset`` wins if both
  are present after normalizing to the same canonical dict, identical
  requests phrased either way coalesce.
* ``/simulate`` responses are device-independent (the instrumented sort
  is combinatorial); clients fold results through their own
  occupancy/timing model, so ``device`` is deliberately absent from the
  simulate schema.
* ``/sweep`` never takes a worker count: parallelism is an operator
  decision (``serve --jobs``), not a client one, and results are
  bit-identical either way — so it stays out of the fingerprint too.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.bench.cache import fingerprint
from repro.bench.metrics import BenchPoint
from repro.engine.registry import DEFAULT_SCORING, check_scoring
from repro.errors import ValidationError
from repro.gpu.device import DeviceSpec, get_device
from repro.inputs.generators import GENERATORS
from repro.sort.config import SortConfig
from repro.sort.presets import preset
from repro.sort.serialize import config_from_obj, config_to_obj

__all__ = [
    "PROTOCOL_VERSION",
    "ConstructRequest",
    "SimulateRequest",
    "SweepRequest",
    "point_from_obj",
    "point_to_obj",
]

#: Bump when request/response semantics change; it is part of every
#: coalescing fingerprint, so mixed-version coalescing cannot happen.
PROTOCOL_VERSION = 1

_VALUE_ENCODINGS = ("b64", "json")


def _require_dict(payload, what: str) -> dict:
    if not isinstance(payload, dict):
        raise ValidationError(f"{what} body must be a JSON object")
    return payload


def _int_field(payload: dict, name: str, default=None, *, minimum=None):
    value = payload.get(name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name!r} must be >= {minimum}, got {value}")
    return value


def _bool_field(payload: dict, name: str, default: bool) -> bool:
    value = payload.get(name, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{name!r} must be a boolean, got {value!r}")
    return value


def _resolve_config(payload: dict) -> SortConfig:
    name = payload.get("preset")
    if name is not None:
        if not isinstance(name, str):
            raise ValidationError(f"'preset' must be a string, got {name!r}")
        return preset(name)
    obj = payload.get("config")
    if obj is None:
        raise ValidationError("request needs either 'preset' or 'config'")
    return config_from_obj(_require_dict(obj, "'config'"))


def _resolve_elements(payload: dict, config: SortConfig) -> int:
    """``num_elements`` directly, or ``tiles`` × tile size."""
    n = _int_field(payload, "num_elements", minimum=1)
    tiles = _int_field(payload, "tiles", minimum=1)
    if n is None and tiles is None:
        raise ValidationError("request needs 'num_elements' or 'tiles'")
    if n is not None and tiles is not None:
        raise ValidationError("'num_elements' and 'tiles' are exclusive")
    return n if n is not None else tiles * config.tile_size


def _resolve_input(payload: dict, default: str = "worst-case") -> str:
    name = payload.get("input", default)
    if name not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise ValidationError(f"unknown input {name!r}; known: {known}")
    return name


def _mitigation_field(payload: dict, default: str = "none") -> str:
    """Parse-time mitigation-spec validation against the registry.

    Same policy as :func:`_scoring_field`: an unknown backend fails here
    as a 400, and the returned spec is *canonical* (``"padding"`` →
    ``"padding:1"``) so identical layouts phrased differently coalesce.
    """
    from repro.mitigation.registry import check_mitigation

    value = payload.get("mitigation", default)
    if not isinstance(value, str):
        raise ValidationError(
            f"'mitigation' must be a spec string, got {value!r}"
        )
    return check_mitigation(value, field="'mitigation'")


def _reject_padding(payload: dict) -> None:
    """A ``padding`` field is a 400, never silently the stock layout.

    Unknown fields are otherwise ignored, so without this check a body
    still spelling the layout as ``padding: N`` would run unpadded.
    """
    if "padding" in payload:
        raise ValidationError(
            "'padding' is not a request field; spell the padded layout "
            '"mitigation": "padding:N"'
        )


def _scoring_field(payload: dict, default: str, *, allow_auto: bool) -> str:
    """Parse-time scoring validation against the engine registry.

    An unknown value must fail *here*, as a 400 to the client (exit
    code 2 through the ``request`` CLI) — never as a 500 from deep
    inside a runner or worker. The accepted set comes from
    :mod:`repro.engine.registry`, the same source every execution path
    validates against, so the protocol can never drift from the engines.
    """
    return check_scoring(
        payload.get("scoring", default),
        allow_auto=allow_auto,
        field="'scoring'",
    )


# -- requests ---------------------------------------------------------------


@dataclass(frozen=True)
class ConstructRequest:
    """``POST /construct`` — build one adversarial permutation."""

    config: SortConfig
    num_elements: int
    encoding: str  # "b64" (raw npy bytes) | "json" (plain int list)

    @classmethod
    def from_payload(cls, payload) -> "ConstructRequest":
        payload = _require_dict(payload, "/construct")
        config = _resolve_config(payload)
        encoding = payload.get("encoding", "b64")
        if encoding not in _VALUE_ENCODINGS:
            raise ValidationError(
                f"unknown encoding {encoding!r}; known: {_VALUE_ENCODINGS}"
            )
        return cls(
            config=config,
            num_elements=_resolve_elements(payload, config),
            encoding=encoding,
        )

    def coalesce_key(self) -> str:
        return fingerprint(
            {
                "endpoint": "construct",
                "protocol": PROTOCOL_VERSION,
                "config": config_to_obj(self.config),
                "num_elements": self.num_elements,
                "encoding": self.encoding,
            }
        )


@dataclass(frozen=True)
class SimulateRequest:
    """``POST /simulate`` — one instrumented sort."""

    config: SortConfig
    input_name: str
    num_elements: int
    score_blocks: int | None
    seed: int
    include_values: bool
    #: "vectorized" | "loop" | "analytic"; the closed-form engine serves
    #: constructed-family requests in microseconds instead of ~100 ms.
    scoring: str
    #: Canonical mitigation spec ("none" — the stock layout the paper
    #: attacks — "padding:N", "cfree-sort", "cfree-permute"), so one
    #: layout phrased two ways ("padding" and "padding:1") coalesces.
    mitigation: str

    @classmethod
    def from_payload(cls, payload) -> "SimulateRequest":
        payload = _require_dict(payload, "/simulate")
        _reject_padding(payload)
        config = _resolve_config(payload)
        return cls(
            config=config,
            input_name=_resolve_input(payload),
            num_elements=_resolve_elements(payload, config),
            score_blocks=_int_field(payload, "score_blocks", 8, minimum=1),
            seed=_int_field(payload, "seed", 0, minimum=0),
            include_values=_bool_field(payload, "include_values", True),
            scoring=_scoring_field(payload, "vectorized", allow_auto=False),
            mitigation=_mitigation_field(payload),
        )

    def coalesce_key(self) -> str:
        return fingerprint(
            {
                "endpoint": "simulate",
                "protocol": PROTOCOL_VERSION,
                "config": config_to_obj(self.config),
                "input": self.input_name,
                "num_elements": self.num_elements,
                "score_blocks": self.score_blocks,
                "seed": self.seed,
                "include_values": self.include_values,
                "scoring": self.scoring,
                "mitigation": self.mitigation,
            }
        )


@dataclass(frozen=True)
class SweepRequest:
    """``POST /sweep`` — a grid of bench points, served in item order."""

    config: SortConfig
    device: DeviceSpec
    input_names: tuple[str, ...]
    sizes: tuple[int, ...]
    exact_threshold: int
    score_blocks: int | None
    seed: int
    #: "auto" (default: closed-form for analytic-eligible points,
    #: simulated for the rest) | "vectorized" | "loop" | "analytic".
    scoring: str
    #: Canonical mitigation spec (see :class:`SimulateRequest`).
    mitigation: str

    @classmethod
    def from_payload(cls, payload) -> "SweepRequest":
        payload = _require_dict(payload, "/sweep")
        _reject_padding(payload)
        config = _resolve_config(payload)
        device_name = payload.get("device", "quadro-m4000")
        if not isinstance(device_name, str):
            raise ValidationError(f"'device' must be a string, got {device_name!r}")
        device = get_device(device_name)

        names = payload.get("inputs", ["random", "worst-case"])
        if not isinstance(names, list) or not names:
            raise ValidationError("'inputs' must be a nonempty list of names")
        for name in names:
            if name not in GENERATORS:
                known = ", ".join(sorted(GENERATORS))
                raise ValidationError(f"unknown input {name!r}; known: {known}")

        sizes = payload.get("sizes")
        if sizes is not None:
            if not isinstance(sizes, list) or not sizes:
                raise ValidationError("'sizes' must be a nonempty list of ints")
            sizes = tuple(
                _int_field({"n": s}, "n", minimum=1) for s in sizes
            )
        else:
            max_elements = _int_field(payload, "max_elements", minimum=1)
            if max_elements is None:
                raise ValidationError("/sweep needs 'sizes' or 'max_elements'")
            min_elements = _int_field(payload, "min_elements", 0, minimum=0)
            sizes = tuple(
                n
                for n in config.valid_sizes(max_elements)
                if n >= min_elements
            )
            if not sizes:
                raise ValidationError(
                    f"no valid sizes in [{min_elements}, {max_elements}] "
                    f"for tile size {config.tile_size}"
                )
        return cls(
            config=config,
            device=device,
            input_names=tuple(names),
            sizes=sizes,
            exact_threshold=_int_field(
                payload, "exact_threshold", 1 << 20, minimum=1
            ),
            score_blocks=_int_field(payload, "score_blocks", 8, minimum=1),
            seed=_int_field(payload, "seed", 0, minimum=0),
            scoring=_scoring_field(payload, DEFAULT_SCORING, allow_auto=True),
            mitigation=_mitigation_field(payload),
        )

    def coalesce_key(self) -> str:
        return fingerprint(
            {
                "endpoint": "sweep",
                "protocol": PROTOCOL_VERSION,
                "config": config_to_obj(self.config),
                "device": dataclasses.asdict(self.device),
                "inputs": list(self.input_names),
                "sizes": list(self.sizes),
                "exact_threshold": self.exact_threshold,
                "score_blocks": self.score_blocks,
                "seed": self.seed,
                # Explicit analytic sweeps are exact above the threshold
                # (not synthesized), so scoring changes the points and
                # must split the fingerprint.
                "scoring": self.scoring,
                "mitigation": self.mitigation,
            }
        )


# -- bench points -----------------------------------------------------------


def point_to_obj(point: BenchPoint) -> dict:
    """JSON-safe dump of one bench point (all fields are native scalars)."""
    return dataclasses.asdict(point)


def point_from_obj(obj: dict) -> BenchPoint:
    """Rebuild a :class:`BenchPoint` from :func:`point_to_obj` output."""
    try:
        return BenchPoint(**_require_dict(obj, "bench point"))
    except TypeError as exc:
        raise ValidationError(f"malformed bench point: {exc}") from exc
