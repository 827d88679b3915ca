"""The GF(2) elimination kernel: seeded differential tests against brute
force at small widths and against a textbook elimination at code widths, and
SHA-256 pins of the structure it feeds.

The pins were recorded before the elimination copies were merged into one
kernel; they fix the echelon convention (ascending lowest-bit pivots, fully
reduced rows) through everything derived from it: the stabilizer, gauge and
centralizer bases, the logical pairs and the barrier quotient's term masks.
"""

import hashlib
import json
import random

import pytest

from latstab import gf2, get_structure
from latstab.barrier import _Quotient
from latstab.zoo import FAMILIES


def _xor(mask, rows):
    acc = 0
    for i, r in enumerate(rows):
        if (mask >> i) & 1:
            acc ^= r
    return acc


def _random_rows(rng, m, ncols):
    # a repeated row and a zero row now and then, so dependent sets are common
    rows = [rng.getrandbits(ncols) for _ in range(m)]
    if m >= 2 and rng.random() < 0.5:
        rows[rng.randrange(m)] = rows[rng.randrange(m)]
    if m and rng.random() < 0.2:
        rows[rng.randrange(m)] = 0
    return rows


def test_incremental_insertion_equals_rref():
    rng = random.Random(2024)
    for _ in range(300):
        ncols = rng.randint(1, 14)
        rows = _random_rows(rng, rng.randint(0, 12), ncols)
        ech = gf2.Echelon()
        independent = [ech.extend((r,)) == 1 for r in rows]
        red, pivots = gf2.rref(rows)
        assert ech.piv2row == dict(zip(pivots, red))
        assert sum(independent) == gf2.rank(rows)
        # a row is kept exactly when it leaves the span of the rows before it
        for i, r in enumerate(rows):
            assert independent[i] == (gf2.rank(rows[:i + 1]) > gf2.rank(rows[:i]))


def test_factor_once_solve_matches_enumeration():
    rng = random.Random(99)
    for _ in range(120):
        ncols = rng.randint(1, 8)
        m = rng.randint(0, 10)
        rows = _random_rows(rng, m, ncols)
        ech = gf2.Echelon(rows, ncols)
        span = {}
        for c in range(1 << m):
            span.setdefault(_xor(c, rows), []).append(c)
        for target in range(1 << ncols):
            sol = ech.solve(target)
            if target in span:
                assert sol in span[target]
                assert gf2.combine(sol, rows) == target
            else:
                assert sol is None
            assert sol == gf2.Echelon(rows, ncols).solve(target)


def _assert_reduced(ech):
    """Each pivot is its row's lowest data bit, set in no other row, and
    pivmask holds exactly the pivots."""
    assert ech.pivmask == sum(1 << p for p in ech.piv2row)
    for p, q in ech.piv2row.items():
        assert gf2.low_bit(q & ech.data_mask) == p
        assert all(r >> p & 1 == (r == q) for r in ech.piv2row.values())


def _reference_rref(vectors):
    """Textbook Gauss-Jordan over whole ints, column by column from bit 0:
    {pivot: row}, each pivot the lowest bit of its row and in no other row."""
    rows = [v for v in vectors if v]
    out = {}
    while rows:
        col = min((r & -r).bit_length() - 1 for r in rows)
        pick = next(r for r in rows if r >> col & 1)
        rows.remove(pick)
        rows = [v for v in (r ^ pick if r >> col & 1 else r for r in rows) if v]
        out = {p: q ^ pick if q >> col & 1 else q for p, q in out.items()}
        out[col] = pick
    return out


def _sparse_row(rng, ncols):
    return sum(1 << c for c in rng.sample(range(ncols), rng.randint(2, 14)))


def _reference_reduce(v, ref):
    """The vector of span(ref) that agrees with v on every pivot of ref."""
    w = 0
    for p, q in ref.items():
        if (v ^ w) >> p & 1:
            w ^= q
    return w


def test_interleaved_operations_at_code_widths():
    # a tagged echelon's rows are the reduced basis of W, the span of the
    # independent tagged rows added so far, with solves interleaved.  The
    # reference keeps a basis of W and re-eliminates it from scratch; the
    # widths reach toric 12's 2n = 576 with stabilizer-like sparse rows
    rng = random.Random(576)
    for ncols in (128, 200, 320, 451, 576, 600):
        data_mask = (1 << ncols) - 1
        ech = gf2.Echelon(ncols=ncols)
        span, kernel, added = [], [], []
        for _ in range(120):
            op = rng.random()
            if op < 0.5:
                batch = []
                for _ in range(rng.randint(1, 3)):
                    if added and rng.random() < 0.3:  # often in the span
                        batch.append(added[rng.randrange(len(added))]
                                     ^ added[rng.randrange(len(added))])
                    else:
                        batch.append(_sparse_row(rng, ncols))
                added += batch
                independent = 0
                for row in batch:
                    ref = _reference_rref(span)
                    tagged = row | 1 << (ncols + len(ref) + len(kernel))
                    w = _reference_reduce(tagged, ref)
                    if (tagged ^ w) & data_mask:
                        span.append(tagged)
                        independent += 1
                    else:
                        kernel.append((tagged ^ w) >> ncols)
                assert ech.extend(batch) == independent
            else:
                ref = _reference_rref(span)
                if rng.random() < 0.6:
                    target = _xor(rng.getrandbits(len(ref)), list(ref.values())) & data_mask
                else:
                    target = _sparse_row(rng, ncols)
                w = _reference_reduce(target, ref)
                assert ech.solve(target) == (None if (target ^ w) & data_mask else w >> ncols)
            _assert_reduced(ech)
            assert ech.piv2row == _reference_rref(span)
            assert ech.kernel == kernel
        red, pivots = gf2.rref(added)
        assert dict(zip(pivots, red)) == _reference_rref(added)


def test_left_kernel_counts_all_zero_combinations():
    rng = random.Random(5)
    for _ in range(150):
        ncols = rng.randint(1, 8)
        m = rng.randint(0, 10)
        rows = _random_rows(rng, m, ncols)
        kernel = gf2.Echelon(rows, ncols).kernel
        assert len(kernel) == m - gf2.rank(rows)
        spanned = {0}
        for mask in kernel:
            spanned |= {s ^ mask for s in spanned}
        zero = {c for c in range(1 << m) if _xor(c, rows) == 0}
        assert spanned == zero and len(zero) == 1 << (m - gf2.rank(rows))


def test_gather_scatter_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        ncols = rng.randint(1, 20)
        cols = sorted(rng.sample(range(ncols), rng.randint(0, ncols)))
        mask = sum(1 << c for c in cols)
        v = rng.getrandbits(ncols)
        packed = gf2.gather(v, mask)
        assert packed >> len(cols) == 0
        assert all((packed >> j) & 1 == (v >> c) & 1 for j, c in enumerate(cols))
        assert gf2.scatter(packed, mask) == v & mask


def _sha(values):
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


PINNED = {
    ("toric", 4): {
        "S": "b98f313bba4664ee2ae97d94ec18f6ca8561330e0457ce1264e6b6b5431bd455",
        "G": "b98f313bba4664ee2ae97d94ec18f6ca8561330e0457ce1264e6b6b5431bd455",
        "CG": "907e9a394cc9ed2907b6a38738af3a1ee44c1efe4d413624a774e482f2a25ea9",
        "logicals": "b0b92f96fb12b928d54ba8cb3a1518abd4e265cf07c7a6ad23474241011ac751",
        "gen_masks": "1b9e31298e1b5fc03aba6116f7111fffa926931db225ece49ff4dea8800fe238",
    },
    ("surface", 4): {
        "S": "c74ad6e40e009fc2440193ce7400871e3f3ec28bc27b6f3f4d05d1d13b5f6d44",
        "G": "c74ad6e40e009fc2440193ce7400871e3f3ec28bc27b6f3f4d05d1d13b5f6d44",
        "CG": "03acc1949554d56922c422eddf28ccf8367eb3333b5374360a47ca690ef5f33d",
        "logicals": "23c4c29c513bb1c5ad4d890672e9e6b70106c749b636f20030b81dba3967ccbb",
        "gen_masks": "97a1d9ef820668375060da02911cc463e36ea06dcbcd6df8e55a77171ca0e3b3",
    },
    ("bacon_shor", 4): {
        "S": "85a2cf71930f44c5899a58e141d71c101642ec1ef005820d8ad261924d650c84",
        "G": "fc1b1b14cc02f74752134d5d7ca14f6e20a3da6db8e52ef392ea0ce9be7d63fe",
        "CG": "dbc108477f97991388d1c0c5b6acb408e5574c85422b9fc4756122435e015ff9",
        "logicals": "5aa8bf119c426ca287a0b86d4d23f25912a35181d7fc231fc86fe00a03e453ef",
        "gen_masks": "026d8aaa81acc6607249a10357272d111291e2ec56c3f0118d8e1e995a769393",
    },
    ("steane_chain", 3): {
        "S": "0657f8726b1ab052ee66187f7ae63989ae2cd1d319d647200eebea3b50a9b9de",
        "G": "7ff39d33006400d9ad597c7ba4bc13ee2a02d30670b4415b00ef443d6b032308",
        "CG": "44c562539a56e2c42dd27f42632934568ebc0f5d7b7be13f8f41ff54a66426d3",
        "logicals": "20d3d5314a5c3d083f0b59146941781fe1795bbc379c64a367424a58aadf47ae",
        "gen_masks": "eb344b15ec0ac32db8a762f3a57e3f5b6d5bf3284164befe0cd2d3924fca3b71",
    },
    ("heisenberg", 11): {
        "S": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "G": "4d41d9ae98d7088ff0f40a8aea18b90c141a933cd8014af355c811e53e04084a",
        "CG": "614c9e9ea94b43858a6cf1ab0c20ec1125ce004c4a304de9030bd22cd1035aee",
        "logicals": "31a2ab0e083bc439fb71a0eb145577ebb5cda8191dc0d3fda27743c00e7f1657",
        "gen_masks": "19f9c5a155cbc8de880f32bd1927a45086433ad8d2ccad2b96388e122504f532",
    },
}


@pytest.mark.parametrize("family, L", sorted(PINNED))
def test_structure_pins(family, L):
    st = get_structure(FAMILIES[family](L=L))
    lb = st.logicals
    got = {
        "S": _sha(list(st.S.rows)),
        "G": _sha(list(st.G.rows)),
        "CG": _sha(list(st.CG.rows)),
        "logicals": _sha([[[x.vector, z.vector] for x, z in lb.pairs],
                          [[x.vector, z.vector] for x, z in lb.gauge_pairs]]),
        "gen_masks": _sha(_Quotient(st).gen_masks),
    }
    assert got == PINNED[(family, L)]
