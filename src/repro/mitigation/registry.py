"""Mitigation registry and the single source of truth for specs.

Mirrors :mod:`repro.engine.registry`: every layer that accepts a
``mitigation`` knob — ``PairwiseMergeSort``, ``SweepRunner``,
``WorkItem``, the service protocol, the CLI — validates it against the
constants here, and the padding/mitigation reconciliation is decided in
exactly one place, :func:`reconcile_mitigation`.

Backends register under family names (``"none"``, ``"padding"``,
``"cfree-sort"``, ``"cfree-permute"``); a *spec string* optionally
parameterizes the family after a colon (``"padding:2"``). Builtin
registration is lazy so importing this module stays cheap and
cycle-free from anywhere in the package.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import ValidationError
from repro.mitigation.base import Mitigation

__all__ = [
    "DEFAULT_MITIGATION",
    "MITIGATION_MODES",
    "check_mitigation",
    "create_mitigation",
    "mitigation_names",
    "reconcile_mitigation",
    "register_mitigation",
]

#: The one default every entry point shares. A bare ``padding=N`` knob
#: with the default mitigation reconciles to ``"padding:N"`` — the
#: legacy surface keeps working unchanged.
DEFAULT_MITIGATION = "none"

#: Builtin backend families, in table/CLI display order.
MITIGATION_MODES = ("none", "padding", "cfree-sort", "cfree-permute")


# -- registry ---------------------------------------------------------------

_FACTORIES: dict[str, Callable[..., Mitigation]] = {}
_BUILTINS_LOADED = False
_BUILTINS_GUARD = threading.RLock()


def register_mitigation(
    name: str, factory: Callable[..., Mitigation], *, replace: bool = False
) -> None:
    """Register a mitigation factory under a family ``name``.

    ``factory()`` (or ``factory(param)`` for parameterized families like
    padding) must return a :class:`~repro.mitigation.base.Mitigation`.
    Re-registering an existing name requires ``replace=True`` so typos
    do not silently shadow builtins.
    """
    if not replace and name in _FACTORIES:
        raise ValidationError(
            f"mitigation {name!r} is already registered (pass replace=True "
            "to override)"
        )
    _FACTORIES[name] = factory


def _ensure_builtins() -> None:
    """Import the builtin backend modules (registered below).

    Thread-safe and reentrant for the same reasons as the engine
    registry's loader: the daemon's executor threads can race to the
    first lookup, and the flag only flips once every builtin is in the
    table.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_GUARD:
        if _BUILTINS_LOADED:
            return
        from repro.mitigation.cfree_permute import CFreePermuteMitigation
        from repro.mitigation.cfree_sort import CFreeSortMitigation
        from repro.mitigation.none import NoMitigation
        from repro.mitigation.padding import PaddingMitigation

        _FACTORIES.setdefault("none", lambda: NoMitigation())
        _FACTORIES.setdefault(
            "padding", lambda padding=1: PaddingMitigation(padding)
        )
        _FACTORIES.setdefault("cfree-sort", lambda: CFreeSortMitigation())
        _FACTORIES.setdefault(
            "cfree-permute", lambda: CFreePermuteMitigation()
        )
        _BUILTINS_LOADED = True


def mitigation_names() -> tuple[str, ...]:
    """Registered mitigation family names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_FACTORIES))


def _split_spec(spec: str, field: str) -> tuple[str, str | None]:
    if not isinstance(spec, str) or not spec:
        raise ValidationError(f"{field} must be a non-empty spec string")
    name, sep, param = spec.partition(":")
    return name, (param if sep else None)


def create_mitigation(spec: str, *, field: str = "mitigation") -> Mitigation:
    """Instantiate a backend from a spec string.

    ``"none"``, ``"padding"`` (pad 1), ``"padding:2"``, ``"cfree-sort"``,
    ``"cfree-permute"`` — family name, optionally ``:parameter``. Raises
    a :class:`~repro.errors.ValidationError` naming the known families
    for anything else, the same message from every layer (parse-time in
    the service protocol, construction-time in the sorters).
    """
    _ensure_builtins()
    name, param = _split_spec(spec, field)
    factory = _FACTORIES.get(name)
    if factory is None:
        known = ", ".join(sorted(_FACTORIES))
        raise ValidationError(
            f"unknown {field} {spec!r}; known backends: {known}"
        )
    if param is None:
        return factory()
    if name != "padding":
        raise ValidationError(
            f"{field} backend {name!r} takes no parameter; got {spec!r}"
        )
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
    return factory(width)


def check_mitigation(value: str, *, field: str = "mitigation") -> str:
    """Validate a spec string, returning its canonical form.

    Canonicalization matters for fingerprints: ``"padding"`` becomes
    ``"padding:1"`` so the wire form, the memo context, and the cache
    key all agree on one spelling per layout.
    """
    return create_mitigation(value, field=field).spec


def reconcile_mitigation(
    mitigation: str | Mitigation | None,
    padding: int = 0,
    *,
    field: str = "mitigation",
) -> Mitigation:
    """THE padding/mitigation reconciliation, shared by every layer.

    * default mitigation + ``padding=N>0`` → ``padding:N`` (the legacy
      knob keeps working);
    * a padding-family mitigation + a ``padding`` knob must agree on the
      width — disagreeing is a :class:`~repro.errors.ValidationError`,
      not a silent preference;
    * any other mitigation + ``padding>0`` is contradictory and raises.
    """
    if isinstance(mitigation, Mitigation):
        resolved = mitigation
    else:
        spec = DEFAULT_MITIGATION if mitigation is None else mitigation
        resolved = create_mitigation(spec, field=field)
    if padding:
        if resolved.spec == DEFAULT_MITIGATION:
            return create_mitigation(f"padding:{padding}", field=field)
        if resolved.native_padding != padding:
            raise ValidationError(
                f"conflicting layout request: padding={padding} with "
                f"{field}={resolved.spec!r}"
            )
    return resolved
