"""Mitigation specs: the single source of truth for layout names.

Every layer that accepts a ``mitigation`` knob — ``PairwiseMergeSort``,
``SweepRunner``, ``WorkItem``, the service protocol, the CLI — resolves
it through :func:`create_mitigation`, the one way to choose a layout.

The four builtin families are ``"none"``, ``"padding"``,
``"cfree-sort"`` and ``"cfree-permute"``; a *spec string* optionally
parameterizes a family after a colon (``"padding:2"``). The backend
modules are imported on first use, so importing this module stays
cheap and cycle-free from anywhere in the package.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.mitigation.base import Mitigation

__all__ = [
    "DEFAULT_MITIGATION",
    "MITIGATION_MODES",
    "check_mitigation",
    "create_mitigation",
]

#: The one default every entry point shares: the stock layout.
DEFAULT_MITIGATION = "none"

#: Builtin backend families, in table/CLI display order.
MITIGATION_MODES = ("none", "padding", "cfree-sort", "cfree-permute")


def _split_spec(spec: str, field: str) -> tuple[str, str | None]:
    if not isinstance(spec, str) or not spec:
        raise ValidationError(f"{field} must be a non-empty spec string")
    name, sep, param = spec.partition(":")
    return name, (param if sep else None)


def _pad_width(param: str, spec: str, field: str) -> int:
    try:
        width = int(param)
    except ValueError:
        raise ValidationError(
            f"{field} padding width must be an integer; got {spec!r}"
        ) from None
    if width < 0:
        raise ValidationError(
            f"{field} padding width must be >= 0; got {spec!r}"
        )
    return width


def create_mitigation(
    spec: str | Mitigation, *, field: str = "mitigation"
) -> Mitigation:
    """Instantiate a backend from a spec string.

    ``"none"``, ``"padding"`` (pad 1), ``"padding:2"``, ``"cfree-sort"``,
    ``"cfree-permute"`` — family name, optionally ``:parameter``. A
    :class:`~repro.mitigation.base.Mitigation` instance passes through
    unchanged. Raises a :class:`~repro.errors.ValidationError` naming
    the known families for anything else, the same message from every
    layer (parse-time in the service protocol, construction-time in the
    sorters).
    """
    if isinstance(spec, Mitigation):
        return spec
    name, param = _split_spec(spec, field)
    if name not in MITIGATION_MODES:
        known = ", ".join(sorted(MITIGATION_MODES))
        raise ValidationError(
            f"unknown {field} {spec!r}; known backends: {known}"
        )
    if name == "padding":
        from repro.mitigation.padding import PaddingMitigation

        width = 1 if param is None else _pad_width(param, spec, field)
        if width:
            return PaddingMitigation(width)
        # Zero padding is the stock layout: one spec, one fingerprint.
        name = "none"
    elif param is not None:
        raise ValidationError(
            f"{field} backend {name!r} takes no parameter; got {spec!r}"
        )
    if name == "none":
        from repro.mitigation.none import NoMitigation

        return NoMitigation()
    if name == "cfree-sort":
        from repro.mitigation.cfree_sort import CFreeSortMitigation

        return CFreeSortMitigation()
    from repro.mitigation.cfree_permute import CFreePermuteMitigation

    return CFreePermuteMitigation()


def check_mitigation(value: str, *, field: str = "mitigation") -> str:
    """Validate a spec string, returning its canonical form.

    Canonicalization matters for fingerprints: ``"padding"`` becomes
    ``"padding:1"`` and ``"padding:0"`` becomes ``"none"``, so the wire
    form and the cache key agree on one spelling per layout.
    """
    return create_mitigation(value, field=field).spec
