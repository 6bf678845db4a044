"""Engine registry and the single source of truth for scoring modes.

Every layer that accepts a ``scoring`` knob — ``PairwiseMergeSort``,
``SweepRunner``, ``WorkItem``, the service protocol, the CLI — validates
it against the constants here, and ``"auto"`` routing is decided in
exactly one place, :func:`resolve_scoring`. Before this module existed
each layer kept its own literal tuple and its own copy of the
eligibility check, which is how the ``WorkItem`` default drifted from
the sweep default (serial and ``--jobs`` runs silently took different
paths).

Engines register under short names (see :func:`engine_names`); builtin
registration is lazy — the first :func:`create_engine` /
:func:`engine_names` call imports the concrete engine modules — so that
importing this module stays cheap and cycle-free from anywhere in the
package.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.errors import ValidationError

__all__ = [
    "DEFAULT_SCORING",
    "SCORING_MODES",
    "SIMULATOR_SCORINGS",
    "check_scoring",
    "create_engine",
    "engine_for_scoring",
    "engine_names",
    "register_engine",
    "resolve_scoring",
    "scoring_for_engine",
]

#: Scoring modes an instrumented sort accepts directly.
SIMULATOR_SCORINGS = ("vectorized", "loop", "analytic", "fused")

#: All scoring modes, including the routed ``"auto"``.
SCORING_MODES = ("auto",) + SIMULATOR_SCORINGS

#: The one default every sweep entry point shares: ``WorkItem``,
#: ``SweepRunner``, the CLI, and the service all start from ``"auto"``
#: so analytic-eligible constructed-family points go closed-form
#: regardless of which path submitted them.
DEFAULT_SCORING = "auto"


def check_scoring(
    value: str, *, allow_auto: bool = True, field: str = "scoring"
) -> str:
    """Validate a scoring mode, returning it unchanged.

    Raises :class:`~repro.errors.ValidationError` naming the accepted
    modes — the same message from every layer, parse-time in the service
    protocol and construction-time in the runners.
    """
    choices = SCORING_MODES if allow_auto else SIMULATOR_SCORINGS
    if value not in choices:
        quoted = ", ".join(f"'{c}'" for c in choices)
        raise ValidationError(
            f"{field} must be one of {quoted}; got {value!r}"
        )
    return value


def resolve_scoring(
    scoring: str,
    *,
    config,
    input_name: str,
    num_elements: int,
    mitigation: str = "none",
) -> str:
    """THE ``"auto"`` routing decision, shared by every execution path.

    Returns a concrete simulator scoring: ``"auto"`` resolves to
    ``"analytic"`` when the (input, config, N) point is analytic-eligible
    *and* the mitigation backend is analytically modeled, and to
    ``"fused"`` otherwise (the single-pass simulated path — it beats
    ``"vectorized"`` even without the compiled backend and is
    bit-identical to it); explicit modes pass through unchanged, except
    that explicit ``"analytic"`` with an unmodeled mitigation is a
    :class:`~repro.errors.ValidationError` here, before any sorter is
    built — matrix cells must never report closed-form numbers for
    layouts the model doesn't cover. (Explicit ``"analytic"`` on an
    ineligible *input* still fails loudly downstream, by design.)
    """
    mode = check_scoring(scoring)
    from repro.mitigation.registry import reconcile_mitigation

    layout = reconcile_mitigation(mitigation)
    if mode == "analytic" and not layout.analytic_supported:
        raise ValidationError(
            "scoring='analytic' cannot model mitigation "
            f"{layout.spec!r}; use a simulated scoring for this layout"
        )
    if mode != "auto":
        return mode
    if not layout.analytic_supported:
        return "fused"
    from repro.analytic import is_analytic_eligible

    return (
        "analytic"
        if is_analytic_eligible(input_name, config, num_elements)
        else "fused"
    )


# -- registry ---------------------------------------------------------------

_FACTORIES: dict[str, Callable] = {}
_BUILTINS_LOADED = False
_BUILTINS_GUARD = threading.RLock()


def register_engine(
    name: str, factory: Callable, *, replace: bool = False
) -> None:
    """Register an engine factory under ``name``.

    ``factory(**kwargs)`` must return an
    :class:`~repro.engine.base.ExecutionEngine`. Re-registering an
    existing name requires ``replace=True`` so typos do not silently
    shadow builtins.
    """
    if not replace and name in _FACTORIES:
        raise ValidationError(
            f"engine {name!r} is already registered (pass replace=True "
            "to override)"
        )
    _FACTORIES[name] = factory


def _ensure_builtins() -> None:
    """Import the builtin engine modules (each registers itself).

    Thread-safe: concurrent first callers (e.g. the daemon's executor
    threads serving their first requests) serialize on the guard, and
    the loaded flag only flips once every builtin has registered —
    setting it before the imports let a racing thread observe an empty
    registry.
    The lock is reentrant so an engine module consulting the registry
    mid-import cannot deadlock.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    with _BUILTINS_GUARD:
        if _BUILTINS_LOADED:
            return
        from repro.engine import (  # noqa: F401
            analytic,
            inline,
            pool,
            service,
        )

        _BUILTINS_LOADED = True


def engine_names() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    _ensure_builtins()
    return tuple(sorted(_FACTORIES))


def create_engine(name: str, **kwargs):
    """Instantiate a registered engine by name."""
    _ensure_builtins()
    factory = _FACTORIES.get(name)
    if factory is None:
        known = ", ".join(sorted(_FACTORIES))
        raise ValidationError(f"unknown engine {name!r}; known: {known}")
    return factory(**kwargs)


# -- scoring ↔ engine-name mapping ------------------------------------------

#: Inline engine name per (scoring, memoized) — the wire/CLI translation
#: table. ``"auto"`` maps to the general-purpose ``"inline"`` engine,
#: which routes per task through :func:`resolve_scoring`.
_ENGINE_BY_SCORING = {
    ("auto", True): "inline",
    ("auto", False): "inline",
    ("vectorized", True): "inline-memoized",
    ("vectorized", False): "inline-vectorized",
    ("loop", True): "inline-loop",
    ("loop", False): "inline-loop",
    ("fused", True): "inline-fused",
    ("fused", False): "inline-fused",
    ("analytic", True): "analytic",
    ("analytic", False): "analytic",
}

#: Wire fields per engine name; pool/service are execution strategies
#: with no wire equivalent and are deliberately absent.
_SCORING_BY_ENGINE = {
    "inline": {"scoring": "auto", "memo": True},
    "inline-memoized": {"scoring": "vectorized", "memo": True},
    "inline-vectorized": {"scoring": "vectorized", "memo": False},
    "inline-loop": {"scoring": "loop", "memo": False},
    "inline-fused": {"scoring": "fused", "memo": False},
    "analytic": {"scoring": "analytic", "memo": False},
}


def engine_for_scoring(scoring: str, *, memoized: bool = True) -> str:
    """The in-process engine name serving a scoring mode."""
    check_scoring(scoring)
    return _ENGINE_BY_SCORING[(scoring, bool(memoized))]


def scoring_for_engine(name: str) -> dict:
    """Wire fields (``scoring``, ``memo``) equivalent to an engine name.

    Raises for engines that are execution strategies rather than scorers
    (``pool``, ``service``) — there is nothing to forward for them.
    """
    fields = _SCORING_BY_ENGINE.get(name)
    if fields is None:
        known = ", ".join(sorted(_SCORING_BY_ENGINE))
        raise ValidationError(
            f"engine {name!r} has no wire equivalent (forwardable engines: "
            f"{known})"
        )
    return dict(fields)
