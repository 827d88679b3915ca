"""Capacity budgets for the exact searches.

Library calls default to the constants below; the CLI also reads the
LATSTAB_* environment overrides through ``Budgets.from_env``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Budgets:
    """Hard limits for exact computations; each must be a positive integer.

    weight_cap: largest operator weight the brute-force distance search tries.
    node_cap:   largest coset graph (in nodes) barrier_exact accepts; the
                search allocates only the nodes it reaches.
    mem_mb:     rough memory budget; bounds the DP state table.
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
        return max(1024, self.mem_mb * 1024 * 1024 // 256)

    @staticmethod
    def from_env() -> "Budgets":
        """Defaults overridden by LATSTAB_WEIGHT_CAP, LATSTAB_NODE_CAP and
        LATSTAB_MEM_MB; a set variable must hold a positive integer."""
        budgets = Budgets()
        for name, var in (("weight_cap", "LATSTAB_WEIGHT_CAP"),
                          ("node_cap", "LATSTAB_NODE_CAP"),
                          ("mem_mb", "LATSTAB_MEM_MB")):
            raw = os.environ.get(var)
            if raw:
                try:
                    budgets = replace(budgets, **{name: int(raw)})
                except (ValueError, ValidationError):
                    raise ValidationError(f"{var}={raw!r} is not a positive integer") from None
        return budgets


DEFAULT_BUDGETS = Budgets()
