"""Exact arithmetic for geodesics of binary quadratic forms on the upper half-plane.

Coordinates stay rational throughout: a point x + iy is stored as the pair
(x, y^2), and every operation used by the rest of the package (Moebius action,
form evaluation, geodesic intersection) maps rational data to rational data.
No float enters any predicate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional, Union

HALF = Fraction(1, 2)

Rat = Union[int, Fraction]


class InvalidDiscriminant(ValueError):
    """The integer cannot be the discriminant of a real quadratic form."""


def check_discriminant(disc: int) -> int:
    """Return disc if it is positive and 0 or 1 mod 4, else raise."""
    if isinstance(disc, bool) or not isinstance(disc, int) or disc <= 0:
        raise InvalidDiscriminant(f"not a discriminant ({disc} is not a positive integer)")
    if disc % 4 not in (0, 1):
        raise InvalidDiscriminant(f"not a discriminant ({disc} ≡ {disc % 4} mod 4)")
    return disc


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def is_even_square(disc: int) -> bool:
    """True when disc is the square of an even integer."""
    return is_square(disc) and isqrt(disc) % 2 == 0


# ---------------------------------------------------------------------------
# Integer 2x2 matrices of determinant 1
# ---------------------------------------------------------------------------


class _Entries(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class Mat2(_Entries):
    """Element of SL2(Z), acting on the upper half-plane by Moebius maps.

    A tuple of its entries (a, b, c, d), so equality and hash run in C; it
    also equals that plain tuple."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "Mat2":
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1: [[{a},{b}],[{c},{d}]]")
        return tuple.__new__(cls, (a, b, c, d))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def trace(self) -> int:
        return self.a + self.d

    def __repr__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = Mat2(1, 0, 0, 1)
T = Mat2(1, 1, 0, 1)  # translation tau -> tau + 1
S = Mat2(0, -1, 1, 0)  # inversion tau -> -1/tau


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraicPoint:
    """The point x + i*sqrt(s) of the upper half-plane, with x, s rational, s > 0."""

    x: Fraction
    s: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "s", Fraction(self.s))
        if self.s <= 0:
            raise ValueError(f"point must lie in the upper half-plane: s={self.s}")

    def norm_sq(self) -> Fraction:
        """|tau|^2 = x^2 + s."""
        return self.x * self.x + self.s


def apply_mobius(g: Mat2, p: AlgebraicPoint) -> AlgebraicPoint:
    """Image of p under the fractional linear map of g. Stays rational:

    with q = (cx+d)^2 + c^2 s,
      x' = ((ax+b)(cx+d) + a c s) / q,   s' = s / q^2.
    """
    x, s = p.x, p.s
    q = (g.c * x + g.d) ** 2 + g.c * g.c * s
    x2 = ((g.a * x + g.b) * (g.c * x + g.d) + g.a * g.c * s) / q
    return AlgebraicPoint(x2, s / (q * q))


def reduce_point(p: AlgebraicPoint) -> tuple[Mat2, AlgebraicPoint]:
    """Move p into the standard fundamental domain of SL2(Z).

    Returns (g, p') with p' = g.p, -1/2 < x' <= 1/2 and |p'|^2 >= 1; on the
    unit circle the representative with x' >= 0 is chosen.
    """
    g = IDENTITY
    cur = p
    while True:
        n = math.ceil(cur.x - HALF)  # shift into (-1/2, 1/2]
        if n:
            shift = Mat2(1, -n, 0, 1)
            cur = apply_mobius(shift, cur)
            g = shift @ g
        nsq = cur.norm_sq()
        if nsq > 1 or (nsq == 1 and cur.x >= 0):
            return g, cur
        cur = apply_mobius(S, cur)
        g = S @ g


# ---------------------------------------------------------------------------
# Quadratic forms and their geodesics
# ---------------------------------------------------------------------------


class _Coefficients(NamedTuple):
    a: int
    b: int
    c: int


class QuadForm(_Coefficients):
    """Integral binary quadratic form [a, b, c] with positive discriminant.

    Stored with the sign normalized so that a > 0, or a = 0 and b > 0; the
    geodesic a|tau|^2 + b x + c = 0 does not see the overall sign. A tuple of
    its coefficients, which it also equals.
    """

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int) -> "QuadForm":
        if a < 0 or (a == 0 and b < 0):
            a, b, c = -a, -b, -c
        if b * b - 4 * a * c <= 0:
            raise ValueError(f"form [{a},{b},{c}] must have positive discriminant")
        return tuple.__new__(cls, (a, b, c))

    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def as_list(self) -> list[int]:
        return [self.a, self.b, self.c]


def eval_form(q: QuadForm, p: AlgebraicPoint) -> Fraction:
    """a|tau|^2 + b Re(tau) + c at p; zero exactly on the geodesic of q."""
    return q.a * p.norm_sq() + q.b * p.x + q.c


def form_action(q: QuadForm, g: Mat2) -> QuadForm:
    """The form q' with q'(p) proportional to q(g.p); same discriminant.

    Characterizing property: p lies on the geodesic of q' exactly when g.p
    lies on the geodesic of q.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    qa, qb, qc = q.a, q.b, q.c
    na = qa * a * a + qb * a * c + qc * c * c
    nb = 2 * qa * a * b + qb * (a * d + b * c) + 2 * qc * c * d
    nc = qa * b * b + qb * b * d + qc * d * d
    return QuadForm(na, nb, nc)


# an abscissa p/q as the pair (p, q), q > 0, not necessarily reduced
Pair = tuple[int, int]
Ends = tuple[Pair, Pair]
_WALLS: Ends = ((-1, 2), (1, 2))


def arc_ends(q: QuadForm) -> Optional[Ends]:
    """The x-interval where the geodesic of q (a != 0) meets the closed domain
    |x| <= 1/2, |tau| >= 1 in more than one point, as its two ends (p, r)
    with r > 0; None otherwise.

    Inside |x| <= 1/2 the bound |tau|^2 >= 1 forces y^2 >= 3/4 on the circle,
    so the only active constraints are the two walls and the unit circle, and
    both ends are rational. A single-point (corner) tangency yields an empty
    interval here by design.
    """
    a, b, c = q
    if a == 0:
        raise ValueError("arc_ends needs a form with a != 0")
    # |tau|^2 >= 1 along the circle reads a + c + b x <= 0 (using a > 0): the
    # whole strip or nothing when b = 0, else the side of x = -(a+c)/b, which
    # holds more than a point of |x| <= 1/2 iff 2(a+c) < |b|; that end lies
    # strictly inside iff -|b| < 2(a+c)
    s = 2 * (a + c)
    if b == 0:
        return _WALLS if s <= 0 else None
    if s >= abs(b):
        return None
    if s <= -abs(b):
        return _WALLS
    return ((-1, 2), (-(a + c), b)) if b > 0 else ((a + c, -b), (1, 2))


def semicircle_interval(q: QuadForm) -> Optional[tuple[Fraction, Fraction]]:
    """arc_ends(q) as Fractions."""
    ends = arc_ends(q)
    return None if ends is None else (Fraction(*ends[0]), Fraction(*ends[1]))


def enumerate_forms(disc: int) -> list[QuadForm]:
    """All normalized forms of discriminant disc whose geodesic meets the
    closed fundamental domain in more than one point, sorted canonically:
    semicircles by (a, |b|, b < 0), then vertical lines by abscissa -c/b.

    A semicircle [a, b, c] has its arc iff 2(a+c) < |b|, or b = 0 and
    a + c <= 0 (arc_ends); with 4ac = b^2 - disc that reads
    (|b| - a)^2 < disc - 3a^2, and a^2 <= disc - 3a^2 for b = 0. So a runs
    up to sqrt(disc/3) and |b| over the window a -+ sqrt(disc - 3a^2), with
    b = disc mod 2 so that 4a can divide b^2 - disc. Emitting a, then |b|,
    then +b before -b gives the canonical order with no sort. Vertical lines
    occur only for square disc: b = sqrt(disc), -1/2 <= -c/b <= 1/2.
    """
    check_discriminant(disc)
    out: list[QuadForm] = []
    for a in range(1, isqrt(disc // 3) + 1):
        room = disc - 3 * a * a
        t = isqrt(room)
        four_a = 4 * a
        lo = max(a - t, 0)
        for m in range(lo + (lo + disc) % 2, a + t + 1, 2):
            num = m * m - disc
            if num % four_a:
                continue
            if m == 0:
                out.append(QuadForm(a, 0, num // four_a))
            elif (m - a) ** 2 < room:
                c = num // four_a
                out.append(QuadForm(a, m, c))
                out.append(QuadForm(a, -m, c))
    root = isqrt(disc)
    if root * root == disc:
        # -1/2 <= -c/b <= 1/2  <=>  -b/2 <= c <= b/2, listed by -c/b
        for c in range(root // 2, -(root // 2) - 1, -1):
            out.append(QuadForm(0, root, c))
    return out


# ---------------------------------------------------------------------------
# Exact complex numbers u + v*i*sqrt(s)
# ---------------------------------------------------------------------------


def _rational_sqrt(f: Fraction) -> Optional[Fraction]:
    """sqrt(f) if it is rational, else None (f >= 0)."""
    n, d = f.numerator, f.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class ExactComplex:
    """The complex number u + v * i * sqrt(s) with rational u, v, s >= 0.

    Closed under the arithmetic needed to evaluate local polynomials at
    points x + i*sqrt(s): sums and products keep a single radicand because
    every radicand arising from one base point differs from s by the square
    of a rational (Moebius maps rescale s by exact rational squares).
    """

    u: Fraction
    v: Fraction = Fraction(0)
    s: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        u, v, s = Fraction(self.u), Fraction(self.v), Fraction(self.s)
        if s < 0:
            raise ValueError("radicand must be nonnegative")
        if v == 0 or s == 0:
            v = Fraction(0)
            s = Fraction(0)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "s", s)

    @classmethod
    def from_point(cls, p: AlgebraicPoint) -> "ExactComplex":
        return cls(p.x, Fraction(1), p.s)

    @staticmethod
    def _coerce(val: "ExactComplex | Rat") -> "ExactComplex":
        if isinstance(val, ExactComplex):
            return val
        return ExactComplex(Fraction(val))

    def _match(self, other: "ExactComplex") -> tuple[Fraction, Fraction, Fraction]:
        """Rewrite both imaginary parts over one radicand: returns (v1, v2, s)."""
        if self.v == 0:
            return Fraction(0), other.v, other.s
        if other.v == 0:
            return self.v, Fraction(0), self.s
        if self.s == other.s:
            return self.v, other.v, self.s
        r = _rational_sqrt(self.s / other.s)
        if r is None:
            raise ValueError(f"incompatible radicands {self.s} and {other.s}")
        return self.v * r, other.v, other.s

    def __add__(self, other: "ExactComplex | Rat") -> "ExactComplex":
        o = self._coerce(other)
        v1, v2, s = self._match(o)
        return ExactComplex(self.u + o.u, v1 + v2, s)

    __radd__ = __add__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.u, -self.v, self.s)

    def __sub__(self, other: "ExactComplex | Rat") -> "ExactComplex":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "ExactComplex | Rat") -> "ExactComplex":
        return self._coerce(other) + (-self)

    def __mul__(self, other: "ExactComplex | Rat") -> "ExactComplex":
        o = self._coerce(other)
        v1, v2, s = self._match(o)
        return ExactComplex(self.u * o.u - v1 * v2 * s, self.u * v2 + v1 * o.u, s)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExactComplex":
        if n < 0:
            raise ValueError("negative powers not supported")
        acc = ExactComplex(Fraction(1))
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(Fraction(other))
        if not isinstance(other, ExactComplex):
            return NotImplemented
        try:
            v1, v2, _ = self._match(other)
        except ValueError:
            return False
        return self.u == other.u and v1 == v2

    def __hash__(self) -> int:
        if self.v == 0:
            return hash(self.u)  # equal to the int or Fraction it equals
        sign = (self.v > 0) - (self.v < 0)
        return hash((self.u, self.v * self.v * self.s, sign))

    def __repr__(self) -> str:
        if self.v == 0:
            return f"ExactComplex({self.u})"
        return f"ExactComplex({self.u} + {self.v}*i*sqrt({self.s}))"
