"""Exact energy barrier: bottleneck search on the coset graph.

Energy cost and target status are invariant under multiplication by the
quotient subgroup Q (the stabilizer group; optionally the full gauge group in
the gauge-qubit mode when every Hamiltonian term commutes with Q), so the walk
search runs on cosets instead of all 4^n operators.  A coset is labeled by its
pairings with a fixed basis of C(Q) — stabilizer-basis bits first (the
independent syndrome), then gauge-pair class bits, then used-pair class bits —
so node count is 2^(2n - rank Q), e.g. 2^(n+k) for subspace codes.  Edges are
the 3n single-qubit multiplications, acting on labels by XOR; node energy is
reconstructed linearly from the label.  The search itself is a bucketed
bottleneck Dijkstra over the small even energy levels, vectorized over numpy
index arrays; the witness walk is rebuilt from parent edges and re-verified
against the unquotiented energy map.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codes import CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import CapacityError, ValidationError
from .gf2 import pairings, parity, solve
from .groups import get_structure
from .metrics import BarrierResult, WalkTrace
from .pauli import PauliOp, omega

_LETTERS = ("X", "Y", "Z")


class _Quotient:
    """Coset labeling for a quotient subgroup Q with C(Q) basis u_1..u_nb."""

    def __init__(self, code: CodeSpec, mode: str,
                 gauge_pair_indices: Optional[Sequence[int]] = None):
        st = get_structure(code)
        self.st = st
        n = st.n
        q_rows = list(st.S.rows)
        u_rows: List[int] = list(st.S.rows)
        if mode == "gauge_qubits":
            if gauge_pair_indices is None:
                raise ValidationError("gauge_qubits mode needs designated pair indices")
            designated = set(gauge_pair_indices)
            bad = designated - set(range(st.k))
            if bad:
                raise ValidationError(f"no such used pairs: {sorted(bad)}")
            for j in designated:
                xbar, zbar = st.logicals.pairs[j]
                q_rows += [xbar.vector, zbar.vector]
            keep = [j for j in range(st.k) if j not in designated]
        elif mode in ("stabilizer", "subsystem"):
            keep = list(range(st.k))
        else:
            raise ValidationError(f"unknown barrier mode {mode!r}")
        # gauge-pair class bits ride along as free coordinates
        for xbar, zbar in st.logicals.gauge_pairs:
            u_rows += [zbar.vector, xbar.vector]
        class_lo = len(u_rows)
        for j in keep:
            xbar, zbar = st.logicals.pairs[j]
            u_rows += [zbar.vector, xbar.vector]
        self.n = n
        self.keep = keep
        self.nbits = len(u_rows)
        self.synd_mask = (1 << st.s) - 1
        self.class_mask_all = ((1 << (2 * len(keep))) - 1) << class_lo
        self.class_lo = class_lo
        self.u_omega = [omega(u, n) for u in u_rows]
        self.u_rows = u_rows
        # soundness: every Hamiltonian term and every label functional must be
        # blind to Q, else cosets would mix energies or target status
        for q in q_rows:
            qo = omega(q, n)
            for g in st.gen_vectors:
                if parity(g & qo):
                    raise ValidationError(
                        "quotient unsound: a Hamiltonian term anticommutes with Q"
                    )
            for u in u_rows:
                if parity(u & qo):
                    raise ValidationError("quotient unsound: label functional sees Q")
        # every Hamiltonian term expressed over the label basis
        self.gen_masks = []
        for g in st.gen_vectors:
            mask = solve(u_rows, g, 2 * n)
            if mask is None:
                raise ValidationError("quotient unsound: term outside span of C(Q) basis")
            self.gen_masks.append(mask)

    def label_of_vec(self, v: int) -> int:
        return pairings(v, self.u_omega)

    def lift_class_mask(self, class_mask: Optional[int]) -> int:
        """Map a used-pair class mask (bit 2j/2j+1 layout) into label bits."""
        if class_mask is None:
            return self.class_mask_all
        out = 0
        for pos, j in enumerate(self.keep):
            for half in (0, 1):
                if (class_mask >> (2 * j + half)) & 1:
                    out |= 1 << (self.class_lo + 2 * pos + half)
        if out == 0:
            raise ValidationError("class mask selects no kept logical pairs")
        return out


def barrier_exact(
    code: CodeSpec,
    mode: str = "subsystem",
    class_mask: Optional[int] = None,
    gauge_pair_indices: Optional[Sequence[int]] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> BarrierResult:
    """Exact minimax energy over single-qubit walks from identity to any
    logical target, with the achieving walk as witness."""
    st = get_structure(code)
    if st.k == 0 or (gauge_pair_indices is not None and len(set(gauge_pair_indices)) >= st.k):
        return BarrierResult(None, "no_logicals", "exact_bottleneck")
    quo = _Quotient(code, mode, gauge_pair_indices)
    nbits = quo.nbits
    if (1 << nbits) > budgets.node_cap:
        raise CapacityError(
            f"coset graph needs 2^{nbits} nodes > node cap {budgets.node_cap}; "
            f"use barrier_walk_bound for an upper bound",
            required=1 << nbits, cap=budgets.node_cap,
        )
    n = st.n
    N = 1 << nbits
    idx_dtype = np.uint32 if nbits <= 31 else np.uint64
    idx = np.arange(N, dtype=idx_dtype)

    energy = np.zeros(N, dtype=np.uint16)
    for mask in quo.gen_masks:
        energy += (np.bitwise_count(idx & idx_dtype(mask)) & 1).astype(np.uint16)
    energy *= 2

    deltas = []
    edge_ops = []
    for q in range(n):
        for letter in _LETTERS:
            v = PauliOp.single(n, q, letter).vector
            deltas.append(quo.label_of_vec(v))
            edge_ops.append((q, letter))

    target_sel = quo.lift_class_mask(class_mask)
    targets = ((idx & idx_dtype(quo.synd_mask)) == 0) & ((idx & idx_dtype(target_sel)) != 0)
    if not targets.any():
        return BarrierResult(None, "no_logicals", "exact_bottleneck")

    INF = np.uint16(0xFFFF)
    bval = np.full(N, INF, dtype=np.uint16)
    bval[0] = energy[0]
    expanded = np.zeros(N, dtype=bool)
    parent_edge = np.full(N, -1, dtype=np.int16)

    levels = np.unique(energy)
    expanded_total = 0
    for level in levels:
        B = np.uint16(level)
        while True:
            frontier = np.flatnonzero((bval == B) & ~expanded)
            if frontier.size == 0:
                break
            expanded[frontier] = True
            expanded_total += int(frontier.size)
            for ei, d in enumerate(deltas):
                nbrs = frontier ^ idx_dtype(d)
                newb = np.maximum(B, energy[nbrs])
                better = newb < bval[nbrs]
                if better.any():
                    upd = nbrs[better]
                    bval[upd] = newb[better]
                    parent_edge[upd] = ei
        hits = np.flatnonzero(targets & (bval <= B))
        if hits.size:
            best = int(hits[int(np.argmin(bval[hits]))])
            value = int(bval[best])
            # every walk's first state is a single-qubit operator
            assert value % 2 == 0
            assert value >= min(int(energy[d]) for d in deltas)
            steps = _reconstruct(best, parent_edge, deltas, edge_ops, N)
            trace = WalkTrace.build(st, steps)
            assert trace.eps_max == value
            if mode == "gauge_qubits":
                check_mask = 0
                for j in quo.keep:
                    check_mask |= 0b11 << (2 * j)
                if class_mask is not None:
                    check_mask &= class_mask
            else:
                check_mask = class_mask
            assert st.is_logical(trace.final, "subsystem", check_mask)
            return BarrierResult(
                value, "exact", "exact_bottleneck", witness=trace,
                stats={"nodes": N, "expanded": expanded_total,
                       "levels": [int(x) for x in levels.tolist()]},
            )
    raise AssertionError("single-qubit walks connect the Pauli group; unreachable")


def _reconstruct(node: int, parent_edge, deltas, edge_ops, N) -> List[Tuple[int, str]]:
    rev = []
    cur = node
    for _ in range(N + 1):
        if cur == 0:
            break
        ei = int(parent_edge[cur])
        assert ei >= 0, "node has no parent"
        rev.append(edge_ops[ei])
        cur ^= deltas[ei]
    else:
        raise AssertionError("parent chain does not terminate")
    rev.reverse()
    return rev
