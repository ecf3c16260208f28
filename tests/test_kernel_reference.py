"""The staircase kernel against a reference copy of its earlier form.

``RefStairBasis`` and ``ref_axpy`` are the straightforward versions:
``add`` and ``reduce`` take the next column with ``min`` over the whole
working row, and ``ref_axpy`` adds every entry through ``ring.add`` and
``ring.mul``.  The kernel in ``cathom`` takes columns from a heap and has a
loop per ring; both must give the same pivots, growth flags, residuals and
recorded coefficients, with entries in the ring's canonical form.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cathom.intlin import StairBasis, _xgcd
from cathom.matrix import _axpy
from cathom.rings import GF, QQ, ZZ

RINGS = {"Z": ZZ, "Q": QQ, "F2": GF(2), "F5": GF(5)}


def ref_axpy(ring, dst, src, c):
    z = ring.zero
    for k, x in src.items():
        v = ring.add(dst.get(k, z), ring.mul(c, x))
        if v:
            dst[k] = v
        else:
            dst.pop(k, None)


class RefStairBasis:
    def __init__(self, ring, ncols):
        self.ring = ring
        self.ncols = ncols
        self.pivots = {}

    def add(self, vec):
        ring = self.ring
        row = dict(vec)
        grew = False
        while row:
            c = min(row)
            lead = row[c]
            piv = self.pivots.get(c)
            if piv is None:
                if ring.is_field:
                    inv = ring.inv(lead)
                    row = {j: ring.mul(inv, x) for j, x in row.items()}
                elif lead < 0:
                    row = {j: -x for j, x in row.items()}
                self.pivots[c] = row
                return True
            a = piv[c]
            if ring.is_field:
                ref_axpy(ring, row, piv, ring.neg(ring.mul(lead, ring.inv(a))))
                continue
            q, r = divmod(lead, a)
            if r == 0:
                ref_axpy(ring, row, piv, -q)
                continue
            g, x, y = _xgcd(a, lead)
            new_piv = {}
            for j in set(piv) | set(row):
                v = x * piv.get(j, 0) + y * row.get(j, 0)
                if v:
                    new_piv[j] = v
            rem = {}
            fa = a // g
            fb = lead // g
            for j in set(piv) | set(row):
                v = fa * row.get(j, 0) - fb * piv.get(j, 0)
                if v:
                    rem[j] = v
            self.pivots[c] = new_piv
            row = rem
            grew = True
        return grew

    def reduce(self, vec, record=None):
        ring = self.ring
        z = ring.zero
        row = dict(vec)
        stuck = set()
        while True:
            cands = [c for c in row if c not in stuck]
            if not cands:
                break
            c = min(cands)
            piv = self.pivots.get(c)
            if piv is None:
                stuck.add(c)
                continue
            a = piv[c]
            x = row[c]
            if ring.is_field:
                q = ring.mul(x, ring.inv(a))
            else:
                q, r = divmod(x, a)
                if r != 0:
                    stuck.add(c)
                    continue
            ref_axpy(ring, row, piv, ring.neg(q))
            if record is not None:
                record[c] = ring.add(record.get(c, z), q)
        return row


def canonical(ring, x):
    if ring.kind == "Fp":
        return type(x) is int and 0 <= x < ring.p
    if ring.kind == "Q":
        return type(x) is Fraction
    return type(x) is int


# non-unit leads (2, 3, 4, 6, -9) force gcd steps and stuck columns over Z
NUMBERS = [0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -9]


@st.composite
def vectors(draw, ring, ncols, count):
    def entry():
        x = draw(st.sampled_from(NUMBERS))
        if ring is QQ:
            return Fraction(x, draw(st.sampled_from([1, 1, 2, 3])))
        return ring.coerce(x)

    out = []
    for _ in range(draw(st.integers(0, count))):
        vec = {j: entry() for j in range(ncols)}
        out.append({j: x for j, x in vec.items() if x})
    return out


@st.composite
def kernel_cases(draw):
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    ncols = draw(st.integers(1, 7))
    return ring, ncols, draw(vectors(ring, ncols, 8)), draw(vectors(ring, ncols, 5))


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_add_and_reduce(self, case):
        ring, ncols, inserts, queries = case
        ref, new = RefStairBasis(ring, ncols), StairBasis(ring, ncols)
        for vec in inserts:
            assert new.add(vec) == ref.add(vec)
            assert new.pivots == ref.pivots
        for row in new.pivots.values():
            assert all(canonical(ring, x) for x in row.values())
        for vec in [*queries, *inserts]:
            rec_ref, rec_new = {}, {}
            res = new.reduce(vec, rec_new)
            assert res == ref.reduce(vec, rec_ref)
            assert rec_new == rec_ref
            assert all(canonical(ring, x) for x in [*res.values(), *rec_new.values()])

    @settings(max_examples=300, deadline=None)
    @given(kernel_cases(), st.sampled_from(NUMBERS))
    def test_axpy(self, case, c):
        ring, _ncols, vecs, more = case
        c = Fraction(c, 2) if ring is QQ else ring.coerce(c)
        for dst, src in zip([*vecs, *more], [*more, *vecs][::-1]):
            want, got = dict(dst), dict(dst)
            ref_axpy(ring, want, src, c)
            _axpy(ring, got, src, c)
            assert got == want
            assert all(canonical(ring, x) for x in got.values())
