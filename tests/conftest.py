"""Shared helpers: independent oracles the implementation tests check against."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import combinations, product

import pytest

import latstab
from latstab import PauliOp, get_structure
from latstab.gf2 import parity
from latstab.pauli import omega


def all_paulis(n):
    """Every projective Pauli on n qubits (4^n of them)."""
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliOp(n, x, z)


def brute_min_weight(code, predicate, max_weight):
    """Weight-ordered exhaustive scan, independent of the metrics module."""
    n = code.n
    for w in range(1, max_weight + 1):
        for support in combinations(range(n), w):
            for letters in product("XYZ", repeat=w):
                op = PauliOp.from_letters(n, list(zip(support, letters)))
                if predicate(op):
                    return w, op
    return None, None


def walk_barrier_oracle(code, is_target, n_limit=7):
    """Exhaustive bottleneck search over the full, unquotiented Pauli group.

    Independent of the coset-graph implementation: nodes are all 4^n
    operators, energies recomputed from scratch, and the minimax value comes
    from a plain threshold sweep with breadth-first floods.
    """
    n = code.n
    assert n <= n_limit, "oracle is exhaustive; keep it tiny"
    st = get_structure(code)
    gen_om = [omega(g.vector, n) for g in code.generators]

    def energy(vec):
        return 2 * sum(parity(vec & row) for row in gen_om)

    nodes = list(range(1 << (2 * n)))
    energies = [energy(v) for v in nodes]
    steps = []
    for q in range(n):
        for letter in "XYZ":
            steps.append(PauliOp.single(n, q, letter).vector)
    targets = [v for v in nodes if is_target(PauliOp.from_vector(n, v))]
    if not targets:
        return None
    for level in sorted(set(energies)):
        seen = {0} if energies[0] <= level else set()
        frontier = list(seen)
        while frontier:
            nxt = []
            for v in frontier:
                for s in steps:
                    u = v ^ s
                    if u not in seen and energies[u] <= level:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        if any(t in seen for t in targets):
            return level
    raise AssertionError("walks connect the Pauli group")


def coset_reduce_oracle(vec, rows, n):
    """Least (weight, vector) element of vec + span(rows) by plain enumeration
    of the span as Python ints, independent of the numpy coset reducer."""
    def wt(v):
        return ((v & ((1 << n) - 1)) | (v >> n)).bit_count()

    best, bw = vec, wt(vec)
    span = [0]
    for r in rows:
        span += [s ^ r for s in span]
    for s in span:
        cand = vec ^ s
        cw = wt(cand)
        if cw < bw or (cw == bw and cand < best):
            best, bw = cand, cw
    return best


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_centralizer_element(rng, st, bare=False):
    """Random element of C(S) (or C(G) with bare=True) as a product of the
    stabilizer basis, used pairs and (unless bare) gauge pairs."""
    v = 0
    for row in st.S.rows:
        if rng.random() < 0.5:
            v ^= row
    pools = [op.vector for pair in st.logicals.pairs for op in pair]
    if not bare:
        pools += [op.vector for pair in st.logicals.gauge_pairs for op in pair]
    for w in pools:
        if rng.random() < 0.5:
            v ^= w
    return PauliOp.from_vector(st.n, v)


def run_optimized(script, env_changes=None):
    """Run a script under `python -O` (asserts stripped) against this
    checkout's latstab; returns its stdout split into words. `env_changes`
    sets (a string) or removes (None) variables in the child's environment."""
    src = os.path.dirname(os.path.dirname(latstab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for key, value in (env_changes or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()
