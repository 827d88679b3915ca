"""Capacity budgets for the exact searches.

Library calls default to the constants below; the CLI also reads the
LATSTAB_* environment overrides through ``Budgets.from_env``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Budgets:
    """Hard limits for exact computations.

    weight_cap: largest operator weight the brute-force distance search tries.
    node_cap:   largest coset graph (in nodes) barrier_exact accepts; the
                search allocates only the nodes it reaches.
    mem_mb:     rough memory budget; bounds the DP state table.
    """

    weight_cap: int = 6
    node_cap: int = 2**24
    mem_mb: int = 4096

    @property
    def dp_state_cap(self) -> int:
        return max(1024, self.mem_mb * 1024 * 1024 // 256)

    @staticmethod
    def from_env() -> "Budgets":
        """Defaults overridden by LATSTAB_WEIGHT_CAP, LATSTAB_NODE_CAP and
        LATSTAB_MEM_MB; a set variable must hold a positive integer."""
        def geti(name, default):
            raw = os.environ.get(name)
            if not raw:
                return default
            try:
                value = int(raw)
                if value > 0:
                    return value
            except ValueError:
                pass
            raise ValidationError(f"{name}={raw!r} is not a positive integer")

        base = Budgets()
        return Budgets(
            weight_cap=geti("LATSTAB_WEIGHT_CAP", base.weight_cap),
            node_cap=geti("LATSTAB_NODE_CAP", base.node_cap),
            mem_mb=geti("LATSTAB_MEM_MB", base.mem_mb),
        )


DEFAULT_BUDGETS = Budgets()
