"""Spaces of piecewise polynomials matching across glued boundaries.

Weight k is even and nonpositive; on each face the function is a polynomial
of degree at most w = -k, stored as a coefficient vector in the basis
1, X, ..., X^w. The slash action of g = [[a,b],[c,d]] sends P to
(cX+d)^w P((aX+b)/(cX+d)), an integer matrix on coefficient vectors, and
the space attached to a gluing graph is cut out orbit by orbit: the root
polynomial must be fixed by every cycle word, everything else is transport.

A coefficient is an int when it is an integer and a Fraction, denominator
> 1, only when it is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from operator import mul
from typing import Sequence

from .arrangement import FaceComplex, build_arrangement
from .geometry import IDENTITY, AlgebraicPoint, ExactComplex, Mat2, Rat, is_even_square, reduce_point
from .gluing import Orbits, build_gluing_graph, orbits_and_cycles


class InvalidWeight(ValueError):
    """Weight must be an even integer <= 0."""


def check_weight(k: int) -> int:
    """Return w = -k after validating the weight."""
    if isinstance(k, bool) or not isinstance(k, int) or k > 0 or k % 2:
        raise InvalidWeight(f"invalid weight {k} (need an even integer <= 0)")
    return -k


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    # one pass of p per nonzero term of q: a word with a zero entry makes
    # every power of (cX+d) in slash_matrix a monomial
    out = [0] * (len(p) + len(q) - 1)
    for j, qj in enumerate(q):
        if qj:
            for i, pi in enumerate(p, j):
                out[i] += pi * qj
    return out


@dataclass(frozen=True)
class SlashMatrix:
    """Matrix of P -> P|g on coefficient vectors; composition reverses order:
    slash_matrix(g @ h, w) == slash_matrix(h, w) @ slash_matrix(g, w)."""

    mat: tuple[tuple[int, ...], ...]  # (w+1) x (w+1): its size is the weight

    def __matmul__(self, other: "SlashMatrix") -> "SlashMatrix":
        n = len(self.mat)
        if len(other.mat) != n:
            raise InvalidWeight("weight mismatch in slash composition")
        prod = tuple(
            tuple(sum(self.mat[i][t] * other.mat[t][j] for t in range(n)) for j in range(n))
            for i in range(n)
        )
        return SlashMatrix(prod)

    def apply(self, vec: Sequence[Rat]) -> tuple[Rat, ...]:
        # integer dot products over one common denominator; an entry it
        # divides is an int, any other a Fraction
        den = lcm(*(x.denominator for x in vec))
        nums = [x.numerator * (den // x.denominator) for x in vec]
        sums = [sum(map(mul, row, nums)) for row in self.mat]
        if den == 1:
            return tuple(sums)
        return tuple(Fraction(t, den) if t % den else t // den for t in sums)


def slash_matrix(g: Mat2, w: int) -> SlashMatrix:
    if w < 0 or w % 2:
        raise InvalidWeight(f"invalid degree {w} (need an even integer >= 0)")
    # column j holds the coefficients of (aX+b)^j (cX+d)^(w-j), from running
    # powers up[j] = (aX+b)^j and down[j] = (cX+d)^j
    up, down = [[1]], [[1]]
    for _ in range(w):
        up.append(_poly_mul(up[-1], [g.b, g.a]))
        down.append(_poly_mul(down[-1], [g.d, g.c]))
    cols = [_poly_mul(up[j], down[w - j]) for j in range(w + 1)]
    # tuples here are built from lists, as on the arrangement's sweep path
    rows = list(zip(*cols))
    return SlashMatrix(tuple(rows))


def fixed_space(constraints: Sequence[SlashMatrix], w: int) -> list[tuple[Rat, ...]]:
    """Basis of the joint fixed space {v : M v = v for every M}.

    Integer Gauss-Jordan on the rows of M - I, each kept primitive (divided by
    the gcd of its entries): a pivot updates only the rows with a nonzero
    entry in its column, so each row stays a multiple of its row in the
    reduced echelon form. A kernel vector is read off over one lcm of the
    pivot entries and scaled so its first nonzero coefficient (lowest degree)
    is 1, each entry an int where that scaling divides it and a Fraction
    elsewhere; the vectors come out ordered by free column. With no
    constraints this is the standard basis.
    """
    n = w + 1
    rows: list[list[int]] = []
    for m in constraints:
        if len(m.mat) != n:
            raise InvalidWeight("constraint weight does not match")
        for i in range(n):
            row = [m.mat[i][j] - (i == j) for j in range(n)]
            if any(row):
                rows.append(_primitive(row))
    pivots: list[int] = []
    for col in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        prow, p = rows[r], rows[r][col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(col)
        # rows past the pivots that cancelled to zero constrain nothing
        rows[r + 1:] = [row for row in rows[r + 1:] if any(row)]
        if r + 1 == len(rows):
            break
    scale = lcm(*[rows[ri][pc] for ri, pc in enumerate(pivots)])
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[free] = scale
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][free] * (scale // rows[ri][pc])
        lead = next(x for x in v if x)
        basis.append(tuple([Fraction(x, lead) if x % lead else x // lead for x in v]))
    return basis


def _primitive(row: list[int]) -> list[int]:
    """row divided by the gcd of its entries; a zero row stays zero."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


@dataclass
class LocalPolySpace:
    """Weight-k space for one discriminant.

    dim is counted without a root vector per orbit: w+1 for every orbit with
    no non-identity cycle (and every face, when augmented), plus the size of
    each cycle orbit's fixed space. by_orbit holds the transport orbit by
    orbit, built on first read: each face's tuple of images of the root
    vectors, one tuple per (slash matrix, root vectors). A free root's images
    are its matrix's columns; every other root vector is applied once per
    matrix. basis flattens it, one element per root vector: basis[i] maps face
    index -> coefficient vector, faces in increasing order; faces a given
    element vanishes on identically are simply absent from its mapping. Equal
    images are one shared tuple; treat the basis as read-only.
    """

    k: int
    augmented: bool
    complex: FaceComplex
    orbits: Orbits
    dim: int
    # orbit index -> the vectors its root polynomial may take, for the orbits
    # with a non-identity cycle; every other root is free
    fixed: dict[int, list] = field(repr=False, compare=False)
    # the memo solve_space filled: the slash matrix of every non-identity word
    # the transport reads, keyed by (word, w)
    memo: dict = field(repr=False, compare=False)

    @property
    def w(self) -> int:
        return -self.k

    @property
    def bound(self) -> int:
        """The paper's bound (w+1)*rF on dim."""
        return _bound(self.k, self.complex.face_count())

    @cached_property
    def units(self) -> tuple[tuple[int, ...], ...]:
        """The standard basis of coefficient vectors, 1, X, ..., X^w: the one
        tuple every free root takes."""
        n = self.w + 1
        return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))

    @cached_property
    def roots(self) -> tuple[tuple[dict[int, Mat2], Sequence], ...]:
        """Per orbit (per face when augmented), its transport words and the
        vectors its root polynomial may take; free roots share self.units."""
        units = self.units
        if self.augmented:
            # no matching conditions at all: monomials on every face
            return tuple(({f: IDENTITY}, units) for f in range(self.complex.face_count()))
        return tuple((orb.words, self.fixed.get(i, units)) for i, orb in enumerate(self.orbits))

    @cached_property
    def by_orbit(self) -> tuple[tuple[tuple[int, ...], tuple[tuple, ...]], ...]:
        """Per orbit with root vectors (per face when augmented), its faces in
        increasing order and, per face, the tuple of vectors the root vectors
        transport to. Equal transports are one shared tuple: the identity's
        face holds the root's own vectors, a free root's images under a word
        are its slash matrix's columns, and a face alone holds (units,)."""
        units, n = self.units, self.complex.face_count()
        # glued orbits share words and root lists; the memo, self.fixed and
        # these dicts keep every matrix, list and tuple alive, so no id is reused
        owned: dict[int, tuple] = {id(units): units}
        images: dict[tuple[int, int], tuple] = {}

        def image(m: SlashMatrix, vecs: tuple) -> tuple:
            key = (id(m), id(vecs))
            out = images.get(key)
            if out is None:
                # m e_j is column j
                out = tuple(zip(*m.mat)) if vecs is units else tuple(m.apply(v) for v in vecs)
                images[key] = out
            return out

        memo, w = self.memo, self.w
        # each glued face maps to its orbit's entry at the root and to None at
        # a twin or at a root whose fixed space is zero
        at: dict[int, tuple | None] = {}
        # an augmented space has no matching conditions: monomials on every face
        for i, orb in () if self.augmented else self.orbits.glued:
            words = orb.words
            faces = tuple(sorted(words))
            at.update(dict.fromkeys(faces))
            vecs = self.fixed.get(i, units)
            if not vecs:
                continue
            # a fixed space is a list in the memo; its orbits share one tuple
            own = owned.get(id(vecs))
            if own is None:
                own = owned[id(vecs)] = tuple(vecs)
            # the memo holds every word of an orbit with vectors but never the
            # identity, whose face carries the root vectors as they are
            at[faces[0]] = faces, tuple(
                own if words[f] == IDENTITY else image(memo[(words[f], w)], own)
                for f in faces
            )
        alone = (units,)
        return tuple([e for f in range(n) if (e := at.get(f, ((f,), alone))) is not None])

    @cached_property
    def basis(self) -> tuple[dict[int, tuple[Rat, ...]], ...]:
        """One element per root vector, flattened from by_orbit in its order."""
        return tuple(
            dict(zip(faces, row)) for faces, rows in self.by_orbit for row in zip(*rows)
        )


def solve_space(
    fc: FaceComplex,
    orbits: Orbits,
    k: int,
    augmented: bool = False,
    *,
    memo: dict | None = None,
) -> LocalPolySpace:
    """Weight-k space of the complex, given orbits_and_cycles of its gluing graph.

    Only orbits with a non-identity cycle solve for their root vectors, and
    only orbits of more than one face get slash matrices for transport, so
    only orbits.glued is read. The basis is transported when it is first
    read, with the matrices the space keeps in its memo. memo holds slash
    matrices keyed by (word, w) and fixed spaces keyed by (cycle words, w),
    so calls that share it build each once. Without one, the call shares
    nothing.
    """
    w = check_weight(k)
    if memo is None:
        memo = {}
    fixed: dict[int, list] = {}
    if augmented:
        dim = (w + 1) * fc.face_count()
        return LocalPolySpace(k, True, fc, orbits, dim, fixed, memo)

    def slash(g: Mat2) -> SlashMatrix:
        m = memo.get((g, w))
        if m is None:
            m = memo[(g, w)] = slash_matrix(g, w)
        return m

    for i, orb in orbits.glued:
        vecs = None
        if orb.cycles:
            words = tuple([g for g in orb.cycles if g != IDENTITY])
            if words:
                vecs = memo.get((words, w))
                if vecs is None:
                    vecs = memo[(words, w)] = fixed_space([slash(g) for g in words], w)
                fixed[i] = vecs
        # every transport word gets its matrix now: reading the basis later
        # only applies them
        if len(orb.words) > 1 and (vecs is None or vecs):
            for g in orb.words.values():
                if g != IDENTITY:
                    slash(g)
    dim = (w + 1) * (len(orbits) - len(fixed)) + sum(map(len, fixed.values()))
    return LocalPolySpace(k, False, fc, orbits, dim, fixed, memo)


def _bound(k: int, rf: int) -> int:
    """The paper's bound (w+1)*rF on the weight-k dim, w = -k."""
    return (1 - k) * rf


def cusp_law(disc: int, cusp: int) -> list[str]:
    """The cusp faces number 1, sqrt(D) or sqrt(D)+1 as D is a non-square, an
    even square or an odd square: the message when cusp breaks that, else none."""
    root = isqrt(disc)
    expect = root + root % 2 if root * root == disc else 1
    return [] if cusp == expect else [f"D={disc}: cuspFaces={cusp}, expected {expect}"]


def dim_laws(disc: int, k: int, augmented: bool, dim: int, rf: int, orbit_count: int) -> list[str]:
    """Every way one space's counts break the paper's laws, as one message
    each, in order; empty when all hold.

    dim <= (w+1)*rF, with equality for augmented spaces always and otherwise,
    at k != 0, exactly when D is an even square; at k = 0 the dim is the orbit
    count, and rF for an even square.
    """
    bound = _bound(k, rf)
    if augmented:
        return [] if dim == bound else [f"D={disc} k={k}: augmented dim {dim} != {bound}"]
    # independent checks: one bad dim may break several laws at once
    fails: list[str] = []
    if dim > bound:
        fails.append(f"D={disc} k={k}: dim {dim} exceeds bound {bound}")
    even_square = is_even_square(disc)
    if k == 0:
        if dim != orbit_count:
            fails.append(f"D={disc} k=0: dim {dim} != orbit count {orbit_count}")
        if even_square and dim != rf:
            fails.append(f"D={disc} k=0: dim {dim} != rF {rf}")
    elif even_square:
        if dim != bound:
            fails.append(f"D={disc} k={k}: dim {dim} != bound {bound} (even square)")
    elif dim >= bound:
        fails.append(f"D={disc} k={k}: dim {dim} not below bound {bound}")
    return fails


def check_laws(
    fc: FaceComplex, orbits: Orbits, spaces: Sequence[LocalPolySpace]
) -> list[str]:
    """Every way the complex, its orbits and its spaces break the paper's laws,
    as one message each, in order; empty when all hold: cusp_law, then for an
    odd square the cusp faces' sqrt(D) orbits, counted from orbits.glued, then
    dim_laws per space.
    """
    disc, rf = fc.disc, fc.face_count()
    fails = cusp_law(disc, fc.cusp_face_count())
    root = isqrt(disc)
    if root * root == disc and root % 2:
        cusp = fc.cusp_faces
        # every face is in one orbit, alone or glued with at most one twin
        pairs = [orb for _, orb in orbits.glued if len(orb.words) == 2]
        cusp_orbits = len(cusp) - sum(cusp.issuperset(orb.words) for orb in pairs)
        if cusp_orbits != root:
            fails.append(f"D={disc}: cusp orbit count {cusp_orbits}, expected {root}")
    for space in spaces:
        fails += dim_laws(disc, space.k, space.augmented, space.dim, rf, len(orbits))
    return fails


def compute_space(disc: int, k: int, augmented: bool = False) -> LocalPolySpace:
    check_weight(k)
    fc = build_arrangement(disc)
    return solve_space(fc, orbits_and_cycles(build_gluing_graph(fc)), k, augmented)


def _eval_poly(coeffs: Sequence[Rat], z: ExactComplex) -> ExactComplex:
    acc = ExactComplex(Fraction(0))
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def evaluate(space: LocalPolySpace, index: int, point: AlgebraicPoint) -> ExactComplex:
    """Value of basis element #index at the point x + i sqrt(s).

    With p' = g.p in the fundamental domain, the value is (P|g)(p), the
    element's polynomial at p' slashed by g. On the exceptional set P is the
    mean of the adjacent faces' polynomials, which is what the matching
    condition prescribes there; the mean commutes with the slash.
    """
    if not 0 <= index < space.dim:
        raise IndexError(f"basis index {index} out of range 0..{space.dim - 1}")
    g, moved = reduce_point(point)
    faces = space.complex.locate(moved)
    elem = space.basis[index]
    vecs = [elem[f] for f in faces if f in elem]
    if not vecs:
        return ExactComplex(0)
    mean = [Fraction(sum(cs), len(faces)) for cs in zip(*vecs)]
    return _eval_poly(slash_matrix(g, space.w).apply(mean), ExactComplex.from_point(point))
