"""Exact energy barrier: bottleneck search on the coset graph.

Energy cost and target status are invariant under multiplication by the
stabilizer group S, so the walk search runs on cosets of S instead of all 4^n
operators.  A coset is labeled by its pairings with a fixed basis of C(S) —
stabilizer-basis bits first (the independent syndrome), then gauge-pair class
bits, then used-pair class bits — so the graph has 2^(2n - s) nodes, e.g.
2^(n+k) for subspace codes; that size is checked against the node cap before
the labeling is built.  Treating some used pairs as gauge qubits needs no
other quotient: it is the barrier whose class_mask covers the kept pairs.
Edges are the 3n single-qubit multiplications, acting on labels by XOR; node
energy is reconstructed linearly from the label.  The search is a bucketed
bottleneck Dijkstra over the small even energy levels that only ever holds the
labels it has generated: each wave of a level is expanded as one numpy array,
and the energy of a label is computed when the label is first generated.  The
witness walk is rebuilt from parent edges and re-verified against the
unquotiented energy map; a failed re-verification raises CertificateError.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .codes import CodeSpec
from .config import DEFAULT_BUDGETS, Budgets
from .errors import CapacityError, CertificateError, certify
from .gf2 import Echelon, combine, transpose
from .groups import CodeStructure, get_structure
from .metrics import BarrierResult, WalkTrace
from .pauli import LETTERS, letter_pairings, omega


class _Quotient:
    """Coset labeling for the stabilizer group S with C(S) basis u_1..u_nb."""

    def __init__(self, st: CodeStructure):
        n = st.n
        u_rows: List[int] = list(st.S.rows)
        # gauge-pair class bits ride along as free coordinates before the
        # used-pair class bits, which start at class_lo
        for xbar, zbar in st.logicals.gauge_pairs + st.logicals.pairs:
            u_rows += [zbar.vector, xbar.vector]
        self.synd_mask = (1 << st.s) - 1
        self.class_lo = st.s + 2 * st.g
        # the label functionals' column table; soundness: every Hamiltonian
        # term and every label functional must be blind to S, else cosets
        # would mix energies or target status
        self.u_table = transpose([omega(u, n) for u in u_rows], 2 * n)
        for q in st.S.rows:
            certify(not st.syndrome_vec(q),
                    "quotient unsound: a Hamiltonian term anticommutes with S")
            certify(not combine(q, self.u_table), "quotient unsound: label functional sees S")
        # every Hamiltonian term over the label basis, from one factorization
        basis = Echelon(u_rows, 2 * n)
        self.gen_masks = []
        for g in st.gen_vectors:
            mask = basis.solve(g)
            certify(mask is not None, "quotient unsound: term outside span of C(S) basis")
            self.gen_masks.append(mask)


def barrier_exact(
    code: CodeSpec,
    class_mask: Optional[int] = None,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> BarrierResult:
    """Exact minimax energy over single-qubit walks from identity to any
    logical target (the subsystem targets: in C(S), outside G), with the
    achieving walk as witness.

    ``class_mask`` restricts the targets to used classes overlapping it (see
    ``CodeStructure.target_bits``); the barrier with some pairs treated as
    gauge qubits is the one whose mask covers the other, kept pairs.  Input
    is checked first, then the coset graph's 2^(2n - s) nodes against
    ``budgets.node_cap``, before the quotient or the logical basis is built.
    ``stats`` counts the distinct labels the search generated (``nodes``) and
    the labels it expanded (``expanded``).
    """
    st = get_structure(code)
    if st.k == 0:
        return BarrierResult(None, "no_logicals", "exact_bottleneck")
    targets = st.target_bits(class_mask)
    nbits = 2 * st.n - st.s
    # coset nodes against the node cap, then label bits against the 64 held
    for limit, required, cap in (
            (f"exceeds node cap {budgets.node_cap}", 1 << nbits, budgets.node_cap),
            (f"needs {nbits}-bit labels; the search holds 64", nbits, 64)):
        if required > cap:
            reason = f"coset graph 2^{nbits} {limit}"
            raise CapacityError(f"{reason}; use barrier_walk_bound for an upper bound",
                                required=required, cap=cap, reason=reason)
    quo = _Quotient(st)
    # edges by qubit, then X, Y, Z
    deltas = [m for triple in letter_pairings(quo.u_table, st.n) for m in triple]
    edge_ops = [(q, letter) for q in range(st.n) for letter in LETTERS]
    delta_arr = np.array(deltas, dtype=np.uint64)
    gen_masks = [np.uint64(mask) for mask in quo.gen_masks]

    def energy(labels):
        e = np.zeros(labels.size, dtype=np.uint16)
        for mask in gen_masks:
            e += np.bitwise_count(labels & mask) & 1
        return 2 * e

    synd_mask = np.uint64(quo.synd_mask)
    target_sel = np.uint64(targets << quo.class_lo)
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
            # a set, not np.unique: numpy 2's unique imports numpy.ma on first use
            for lv in sorted(set(e[above].tolist())):
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
            certify(st.is_logical(trace.final, "subsystem", class_mask),
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
