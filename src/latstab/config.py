"""Capacity budgets for the exact searches.

Library calls default to the constants below; the CLI sets them by its flags.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ValidationError


@dataclass(frozen=True)
class Budgets:
    """Hard limits for exact computations; each must be a positive integer.

    weight_cap: largest operator weight the brute-force distance search tries.
    node_cap:   largest search space any exact engine accepts: coset-graph
                nodes for barrier_exact (it allocates only the nodes it
                reaches), enumerated operators for the brute-force distance.
    mem_mb:     rough memory budget; bounds the DP state table at 4096
                states per MiB.
    """

    weight_cap: int = 6
    node_cap: int = 2**24
    mem_mb: int = 4096

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"{f.name}={value!r} is not a positive integer")

    @property
    def dp_state_cap(self) -> int:
        return self.mem_mb * 1024 * 1024 // 256


DEFAULT_BUDGETS = Budgets()
