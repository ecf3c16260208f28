"""Coefficient rings: the integers, the rationals, and prime fields.

All arithmetic is exact.  Integers are Python ints (arbitrary precision),
rationals are ``fractions.Fraction``, prime-field elements are ints reduced
into ``[0, p)``.
"""

from __future__ import annotations

from fractions import Fraction


P_LIMIT = 1 << 64  # prime fields are taken only below this size


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 primes as bases, which is exact for
    n < P_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017))."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % a == 0:
            return n == a
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """Common interface for the three supported coefficient rings."""

    kind: str  # "Z", "Q" or "Fp"
    is_field: bool

    def coerce(self, x):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        raise NotImplementedError

    def exact_div(self, a, b):
        """a / b when b divides a exactly; raises otherwise."""
        raise NotImplementedError

    def to_json(self) -> dict:
        if self.kind == "Fp":
            return {"ring": "Fp", "p": self.p}  # type: ignore[attr-defined]
        return {"ring": self.kind}

    def entry_to_json(self, a):
        return a

    def entry_from_json(self, a):
        return self.coerce(a)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and getattr(
            self, "p", None
        ) == getattr(other, "p", None)

    def __hash__(self):
        return hash((self.kind, getattr(self, "p", None)))

    def __repr__(self):
        if self.kind == "Fp":
            return f"F{self.p}"  # type: ignore[attr-defined]
        return self.kind


class IntegerRing(Ring):
    kind = "Z"
    is_field = False
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            if isinstance(x, Fraction) and x.denominator == 1:
                return int(x)
            raise TypeError(f"not an integer: {x!r}")
        return x

    def inv(self, a):
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit in Z")


class RationalRing(Ring):
    kind = "Q"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator: {x!r}") from None
        raise TypeError(f"not a rational: {x!r}")

    def inv(self, a):
        return 1 / a

    def exact_div(self, a, b):
        return a / b

    def entry_to_json(self, a):
        if a.denominator == 1:
            return int(a)
        return f"{a.numerator}/{a.denominator}"


class PrimeField(Ring):
    kind = "Fp"
    is_field = True

    def __init__(self, p: int):
        if p >= P_LIMIT:
            raise ValueError(f"p = {p} is too large: prime fields are taken below 2**64")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, x):
        if isinstance(x, int) and not isinstance(x, bool):
            return x % self.p
        raise TypeError(f"not a prime-field element: {x!r}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return pow(a, self.p - 2, self.p)

    def exact_div(self, a, b):
        return (a * self.inv(b)) % self.p


ZZ = IntegerRing()
QQ = RationalRing()

_FP_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if type(p) is not int:  # before the cache, where 5.0 would find GF(5)
        raise ValueError(f"p must be an integer, not {p!r}")
    if p not in _FP_CACHE:
        _FP_CACHE[p] = PrimeField(p)
    return _FP_CACHE[p]


def ring_from_tag(tag: str, p: int | None = None) -> Ring:
    """Parse a ring tag: "Z", "Q", "Fp" (with p), or "Fp:5" style."""
    if not isinstance(tag, str):
        raise ValueError(f"ring tag must be a string, not {tag!r}")
    if tag == "Z":
        return ZZ
    if tag == "Q":
        return QQ
    if tag == "Fp":
        if p is None:
            raise ValueError("Fp needs a prime p")
        return GF(p)
    if tag.startswith("Fp:"):
        return GF(int(tag.split(":", 1)[1]))
    if tag.startswith("F") and tag[1:].isdigit():
        return GF(int(tag[1:]))
    raise ValueError(f"unknown ring tag {tag!r}")


def ring_from_json(d: dict) -> Ring:
    return ring_from_tag(d["ring"], d.get("p"))
