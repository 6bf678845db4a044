"""Bank-conflict mitigations — the other side of the paper's argument.

Section I recalls that *bank-conflict-free* algorithms avoid worst cases
at the price of extra complexity; this package makes the defenses
first-class. Four backends sit behind one :class:`Mitigation` contract
(address remap + shared-memory cost model), chosen by spec string:

* ``none`` — identity layout, the paper's full attack surface;
* ``padding`` — the Dotsenko et al. co-prime padding trick the paper
  cites: neutralizes adversarial alignment at an occupancy price;
* ``cfree-sort`` — the Sitchinava–Weichert bank-conflict-free sorting
  layout (arXiv:1306.5076): bank = lane, zero conflicts by construction;
* ``cfree-permute`` — Afshani–Sitchinava conflict-free permuting
  (arXiv:1507.01391): same guarantee via a double-pitch staging buffer,
  at twice the footprint.

Every scoring path (loop, vectorized, fused, analytic-gated), the
sweep runner, the service protocol, and the CLI dispatch through
:func:`create_mitigation`; the ``matrix`` experiment
(``repro-mergesort matrix``) crosses the backends against every input
family and sort backend. The original padding
helpers remain importable from here unchanged.
"""

from repro.mitigation.base import Mitigation
from repro.mitigation.padding import (
    pad_addresses,
    padded_size,
    padded_shared_bytes,
)
from repro.mitigation.registry import (
    DEFAULT_MITIGATION,
    MITIGATION_MODES,
    check_mitigation,
    create_mitigation,
)

__all__ = [
    "DEFAULT_MITIGATION",
    "MITIGATION_MODES",
    "Mitigation",
    "check_mitigation",
    "create_mitigation",
    "pad_addresses",
    "padded_shared_bytes",
    "padded_size",
]
