"""Exact energy barrier: bottleneck search on the coset graph.

Energy cost and target status are invariant under multiplication by the
quotient subgroup Q (the stabilizer group; optionally the full gauge group in
the gauge-qubit mode when every Hamiltonian term commutes with Q), so the walk
search runs on cosets instead of all 4^n operators.  A coset is labeled by its
pairings with a fixed basis of C(Q) — stabilizer-basis bits first (the
independent syndrome), then gauge-pair class bits, then used-pair class bits —
so the graph has 2^(2n - rank Q) nodes, e.g. 2^(n+k) for subspace codes.  Edges
are the 3n single-qubit multiplications, acting on labels by XOR; node energy
is reconstructed linearly from the label.  The search is a bucketed bottleneck
Dijkstra over the small even energy levels that only ever holds the labels it
has generated: each wave of a level is expanded as one numpy array, and the
energy of a label is computed when the label is first generated.  The witness
walk is rebuilt from parent edges and re-verified against the unquotiented
energy map; a failed re-verification raises CertificateError.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .codes import CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import CapacityError, CertificateError, ValidationError, certify
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
    logical target, with the achieving walk as witness.

    ``stats`` counts the distinct labels the search generated (``nodes``) and
    the labels it expanded (``expanded``).
    """
    st = get_structure(code)
    if mode != "gauge_qubits":
        st.check_mode(mode)
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
    if nbits > 64:
        raise CapacityError(f"coset labels need {nbits} bits; the search holds 64",
                            required=1 << nbits, cap=1 << 64)
    n = st.n
    deltas = []
    edge_ops = []
    for q in range(n):
        for letter in _LETTERS:
            v = PauliOp.single(n, q, letter).vector
            deltas.append(quo.label_of_vec(v))
            edge_ops.append((q, letter))
    delta_arr = np.array(deltas, dtype=np.uint64)
    gen_masks = [np.uint64(mask) for mask in quo.gen_masks]

    def energy(labels):
        e = np.zeros(labels.size, dtype=np.uint16)
        for mask in gen_masks:
            e += np.bitwise_count(labels & mask) & 1
        return 2 * e

    synd_mask = np.uint64(quo.synd_mask)
    target_sel = np.uint64(quo.lift_class_mask(class_mask))
    # A label's bval is fixed when it is first touched: later levels only
    # raise the bound, so the first touch is never improved on.  It is kept
    # implicitly as the bucket the label sits in; the map keeps the edge
    # that first touched it (the lowest edge index within that wave).
    parent = {0: -1}
    buckets = {0: [np.zeros(1, dtype=np.uint64)]}
    expanded = 0
    while buckets:
        level = min(buckets)
        wave = np.sort(np.concatenate(buckets.pop(level)))
        reached = [wave]
        while wave.size:
            expanded += wave.size
            # edge-major: candidate i came from edge i // wave.size
            labels, first = np.unique((delta_arr[:, None] ^ wave).ravel(), return_index=True)
            fresh = ~np.fromiter(map(parent.__contains__, labels.tolist()), bool, labels.size)
            labels = labels[fresh]
            parent.update(zip(labels.tolist(), (first[fresh] // wave.size).tolist()))
            e = energy(labels)
            above = e > level
            for lv in np.unique(e[above]).tolist():
                buckets.setdefault(lv, []).append(labels[e == lv])
            wave = labels[~above]
            reached.append(wave)
        # no target was reached below this level, else the search had stopped
        at_level = np.concatenate(reached)
        hits = at_level[((at_level & synd_mask) == 0) & ((at_level & target_sel) != 0)]
        if hits.size:
            value = level
            # every walk's first state is a single-qubit operator
            certify(value % 2 == 0, f"barrier {value} is odd")
            certify(value >= int(energy(delta_arr).min()),
                    f"barrier {value} is below every single-qubit energy")
            steps = _reconstruct(int(hits.min()), parent, deltas, edge_ops)
            trace = WalkTrace.build(st, steps)
            certify(trace.eps_max == value,
                    f"witness walk peaks at {trace.eps_max}, not {value}")
            if mode == "gauge_qubits":
                check_mask = 0
                for j in quo.keep:
                    check_mask |= 0b11 << (2 * j)
                if class_mask is not None:
                    check_mask &= class_mask
            else:
                check_mask = class_mask
            certify(st.is_logical(trace.final, "subsystem", check_mask),
                    "witness walk does not end on a target logical")
            return BarrierResult(
                value, "exact", "exact_bottleneck", witness=trace,
                stats={"nodes": len(parent), "expanded": expanded},
            )
    raise CertificateError("search ran out of nodes without reaching a target; "
                           "single-qubit walks connect the Pauli group")


def _reconstruct(node: int, parent, deltas, edge_ops) -> List[Tuple[int, str]]:
    rev = []
    cur = node
    for _ in range(len(parent) + 1):
        if cur == 0:
            break
        ei = parent.get(cur, -1)
        certify(ei >= 0, f"label {cur} has no parent")
        rev.append(edge_ops[ei])
        cur ^= deltas[ei]
    else:
        certify(False, "parent chain does not terminate")
    rev.reverse()
    return rev
