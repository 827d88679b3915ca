"""Independent checks of the cleaning certificates returned by the program.

Operators arrive as (x, z) hex pairs; the symplectic vector is x | z << n, as
in latstab.  The span tests use their own GF(2) elimination, so a wrong
answer from the program's elimination kernel cannot hide here.
"""


def _echelon(vectors):
    """Pivot (highest set bit) -> row, for a basis of span(vectors)."""
    basis = {}
    for v in vectors:
        v = _reduce(v, basis)
        if v:
            basis[v.bit_length() - 1] = v
    return basis


def _reduce(v, basis):
    while v:
        row = basis.get(v.bit_length() - 1)
        if row is None:
            return v
        v ^= row
    return 0


def _vec(pair, n):
    return int(pair[0], 16) | (int(pair[1], 16) << n)


def _anticommutes(a, b, n):
    mask = (1 << n) - 1
    return (((a & mask) & (b >> n)) ^ ((a >> n) & (b & mask))).bit_count() & 1


class CodeCheck:
    """The generators and qubit anchors of one stabilizer code."""

    def __init__(self, info):
        self.n = n = info["n"]
        self.gens = [_vec(g, n) for g in info["generators"]]
        self.anchors = info["anchors"]
        self.stabilizers = _echelon(self.gens)

    def qubit_mask(self, lo, hi):
        mask = 0
        for q, a in enumerate(self.anchors):
            if all(lo[j] <= a[j] < hi[j] for j in range(len(a))):
                mask |= 1 << q
        return mask

    def support(self, v):
        return (v | (v >> self.n)) & ((1 << self.n) - 1)

    def clean_error(self, rec):
        """None when the certificate holds, else the reason it does not."""
        n = self.n
        op = _vec(rec["op"], n)
        mask = self.qubit_mask(rec["lo"], rec["hi"])
        both = mask | (mask << n)
        if rec["outcome"] == "cleaned":
            stab = _vec(rec["stabilizer"], n)
            cleaned = _vec(rec["cleaned"], n)
            idx = rec["generator_indices"]
            if cleaned != op ^ stab:
                return "cleaned operator is not op times the multiplier"
            if cleaned & both:
                return "cleaned operator acts on the region"
            if len(set(idx)) != len(idx) or not all(0 <= i < len(self.gens) for i in idx):
                return "bad generator indices"
            product = 0
            for i in idx:
                if not self.support(self.gens[i]) & mask:
                    return f"generator {i} does not overlap the region"
                product ^= self.gens[i]
            if product != stab:
                return "multiplier differs from the product of its generators"
            return None
        if rec["outcome"] != "trapped_logical":
            return f"unknown outcome {rec['outcome']!r}"
        trapped = _vec(rec["trapped"], n)
        if not trapped or trapped & ~both:
            return "trapped operator is trivial or leaves the region"
        if any(_anticommutes(trapped, g, n) for g in self.gens):
            return "trapped operator is not in the centralizer"
        if not _reduce(trapped, self.stabilizers):
            return "trapped operator is a stabilizer"
        local = _echelon(g & both for g in self.gens if self.support(g) & mask)
        if not _reduce(op & both, local):
            return "operator was cleanable but reported trapped"
        return None
