from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from mlp import (
    IDENTITY,
    S,
    T,
    AlgebraicPoint,
    ExactComplex,
    InvalidDiscriminant,
    Mat2,
    QuadForm,
    apply_mobius,
    enumerate_forms,
    eval_form,
    form_action,
    reduce_point,
)
from mlp.geometry import check_discriminant, is_even_square, semicircle_interval

from _support import random_word

HALF = Fraction(1, 2)
RHO = AlgebraicPoint(HALF, Fraction(3, 4))
POINT_I = AlgebraicPoint(0, 1)


# -- independent enumeration oracle ----------------------------------------
#
# Decides whether the geodesic of [a, b, c] meets the closed strip
# |x| <= 1/2, |tau| >= 1 in more than one point, by interval arithmetic on
# numbers u + v*sqrt(D) with exact sign evaluation. Unlike the library it
# keeps the circle-span endpoints m +- r in the comparison set, so agreement
# is a genuine cross-check and not a reimplementation.


def _sign_quad(u: Fraction, v: Fraction, disc: int) -> int:
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    lhs, rhs = u * u, v * v * disc
    if u > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


def _qlt(p, q, disc):
    return _sign_quad(p[0] - q[0], p[1] - q[1], disc) < 0


def _oracle_feasible(a: int, b: int, c: int, disc: int) -> bool:
    if a == 0:
        if b <= 0 or b * b != disc:
            return False
        return abs(Fraction(-c, b)) <= HALF
    if a < 0:
        return False
    m = Fraction(-b, 2 * a)
    rad = Fraction(1, 2 * a)  # radius is rad * sqrt(D)
    lo = (-HALF, Fraction(0))
    hi = (HALF, Fraction(0))
    if _qlt(lo, (m, -rad), disc):
        lo = (m, -rad)
    if _qlt((m, rad), hi, disc):
        hi = (m, rad)
    # on the geodesic |tau|^2 = -(b x + c)/a, and |tau| >= 1 gives b x <= -(a+c)
    if b > 0:
        wall = (Fraction(-(a + c), b), Fraction(0))
        if _qlt(wall, hi, disc):
            hi = wall
    elif b < 0:
        wall = (Fraction(-(a + c), b), Fraction(0))
        if _qlt(lo, wall, disc):
            lo = wall
    elif a + c > 0:
        return False
    return _qlt(lo, hi, disc)


def _oracle_forms(disc: int) -> set[tuple[int, int, int]]:
    from math import isqrt

    out = set()
    amax = 3 * (isqrt(disc // 3) + 2)  # deliberately oversized box
    bmax = 3 * (amax + isqrt(disc) + 2)
    for a in range(amax + 1):
        for b in range(-bmax, bmax + 1):
            if a == 0:
                if b > 0 and b * b == disc:
                    for c in range(-bmax, bmax + 1):
                        if _oracle_feasible(0, b, c, disc):
                            out.add((0, b, c))
                continue
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if _oracle_feasible(a, b, c, disc):
                out.add((a, b, c))
    return out


def _canonical_key(q):
    """Semicircles by (a, |b|, b < 0, c), then vertical lines by -c/b."""
    if q.a:
        return (0, q.a, abs(q.b), q.b < 0, q.c)
    return (1, Fraction(-q.c, q.b), 0, 0, 0)


def test_enumerate_forms_matches_independent_scan():
    # the forms of every valid D <= 400, each once, in canonical order
    for disc in range(1, 401):
        if disc % 4 not in (0, 1):
            continue
        forms = enumerate_forms(disc)
        got = {(q.a, q.b, q.c) for q in forms}
        assert got == _oracle_forms(disc), f"D={disc}"
        assert len(got) == len(forms), f"D={disc}"
        assert forms == sorted(forms, key=_canonical_key), f"D={disc}"


def test_enumerate_forms_pinned_examples():
    assert [q.as_list() for q in enumerate_forms(5)] == [[1, 1, -1], [1, -1, -1]]
    assert {tuple(q.as_list()) for q in enumerate_forms(4)} == {
        (1, 0, -1),
        (0, 2, -1),
        (0, 2, 1),
        (0, 2, 0),
    }
    assert {tuple(q.as_list()) for q in enumerate_forms(8)} == {
        (1, 0, -2),
        (1, 2, -1),
        (1, -2, -1),
    }
    # single-point tangencies are excluded
    assert (1, 2, 0) not in {tuple(q.as_list()) for q in enumerate_forms(4)}
    assert (1, -4, 1) not in {tuple(q.as_list()) for q in enumerate_forms(12)}


def test_enumerate_forms_counts_frozen():
    # counts confirmed against the scan oracle before freezing
    expected = {1: 1, 4: 4, 5: 2, 8: 3, 9: 7, 12: 3, 16: 11, 25: 17, 100: 43}
    for disc, count in expected.items():
        assert len(enumerate_forms(disc)) == count


def test_enumerate_forms_distinct_geodesics():
    # a semicircle is its (center, radius^2), a vertical line its abscissa
    for disc in (4, 9, 16, 36, 100):
        geos = [
            (Fraction(-q.b, 2 * q.a), Fraction(disc, 4 * q.a * q.a))
            if q.a
            else Fraction(-q.c, q.b)
            for q in enumerate_forms(disc)
        ]
        assert len(geos) == len(set(geos))


def test_discriminant_validation():
    with pytest.raises(InvalidDiscriminant, match=r"7 ≡ 3 mod 4"):
        check_discriminant(7)
    with pytest.raises(InvalidDiscriminant):
        check_discriminant(6)
    with pytest.raises(InvalidDiscriminant):
        check_discriminant(0)
    with pytest.raises(InvalidDiscriminant):
        check_discriminant(-4)
    with pytest.raises(InvalidDiscriminant):
        enumerate_forms(11)
    check_discriminant(1)
    check_discriminant(8)
    # bool is an int subclass; True must not pass as D=1
    for bad in (True, False):
        with pytest.raises(InvalidDiscriminant):
            check_discriminant(bad)


def test_boundary_on_geodesics_iff_even_square():
    # [a, 0, -a] has D = 4a^2, and a vertical line x = -c/b = +-1/2 needs
    # b = sqrt(D) even: the floor and both walls lie on geodesics together,
    # exactly when D is an even square
    for disc in (d for d in range(1, 2001) if d % 4 in (0, 1)):
        forms = enumerate_forms(disc)
        floor = any(q.a and q.b == 0 and q.c == -q.a for q in forms)
        walls = {Fraction(-q.c, q.b) for q in forms if not q.a}
        assert floor == (-HALF in walls) == (HALF in walls) == is_even_square(disc), disc


def test_is_even_square():
    assert [d for d in range(1, 101) if is_even_square(d)] == [4, 16, 36, 64, 100]


def test_quadform_normalization():
    assert QuadForm(-1, 1, 1).as_list() == [1, -1, -1]
    assert QuadForm(0, -2, 1).as_list() == [0, 2, -1]
    assert QuadForm(1, 1, -1).disc() == 5
    with pytest.raises(ValueError):
        QuadForm(0, 0, 1)
    with pytest.raises(ValueError):
        QuadForm(1, 0, 1)  # discriminant -4


def test_eval_form_examples():
    assert eval_form(QuadForm(1, 1, -1), POINT_I) == 0
    assert eval_form(QuadForm(1, -1, -1), RHO) == Fraction(-1, 2)
    assert eval_form(QuadForm(1, 0, -1), POINT_I) == 0


def test_semicircle_interval_clipping():
    assert semicircle_interval(QuadForm(1, 1, -1)) == (-HALF, Fraction(0))
    assert semicircle_interval(QuadForm(1, 0, -2)) == (-HALF, HALF)
    # corner tangency: single point is not an interval
    assert semicircle_interval(QuadForm(1, 2, 0)) is None


def _fraction_interval(q: QuadForm):
    """semicircle_interval clipped with Fraction min/max and compared as
    Fractions: the wall at 1/2 against the end -(a+c)/b of |tau|^2 >= 1."""
    lo, hi = -HALF, HALF
    if q.b > 0:
        hi = min(hi, Fraction(-(q.a + q.c), q.b))
    elif q.b < 0:
        lo = max(lo, Fraction(-(q.a + q.c), q.b))
    elif q.a + q.c > 0:
        return None
    if lo >= hi:
        return None
    return lo, hi


def test_semicircle_interval_matches_fraction_reference():
    arcs = 0
    for a in range(1, 25):
        for b in range(-40, 41):
            for c in range(-40, 41):
                if b * b - 4 * a * c <= 0:
                    continue
                q = QuadForm(a, b, c)
                got = semicircle_interval(q)
                assert got == _fraction_interval(q), q
                if got is not None:
                    arcs += 1
                    assert all(type(x) is Fraction for x in got), q
    assert arcs > 0


def test_semicircle_interval_edge_cases():
    # corner tangency 2(a+c) = |b|: the arc meets the strip at one point
    assert semicircle_interval(QuadForm(1, 4, 1)) is None
    assert semicircle_interval(QuadForm(2, -6, 1)) is None
    # the unit circle itself spans the strip
    for a in (1, 3):
        assert semicircle_interval(QuadForm(a, 0, -a)) == (-HALF, HALF)
    # b = 0 with a + c > 0: a circle inside the unit disc
    assert semicircle_interval(QuadForm(2, 0, -1)) is None
    # an end exactly on a wall, 2(a+c) = -|b|: the whole strip
    assert semicircle_interval(QuadForm(1, 2, -2)) == (-HALF, HALF)


def test_mat2_basics():
    assert T @ S == Mat2(1, -1, 1, 0)
    assert T.inv() == Mat2(1, -1, 0, 1)
    assert S @ S == Mat2(-1, 0, 0, -1)
    assert S.inv() @ S == IDENTITY
    assert IDENTITY.trace() == 2
    with pytest.raises(ValueError):
        Mat2(1, 0, 0, 2)


def test_form_action_examples():
    q = QuadForm(1, 1, -1)
    assert form_action(q, IDENTITY) == q
    assert form_action(q, T).as_list() == [1, 3, 1]
    assert form_action(q, T).disc() == 5


def test_form_action_preserves_discriminant():
    rng = random.Random(20240501)
    for _ in range(100):
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(-9, 0)
        if b * b - 4 * a * c <= 0:
            continue
        q = QuadForm(a, b, c)
        g = random_word(rng)
        assert form_action(q, g).disc() == q.disc()


def test_apply_mobius_examples():
    assert apply_mobius(T, POINT_I) == AlgebraicPoint(1, 1)
    assert apply_mobius(S, POINT_I) == POINT_I
    assert apply_mobius(S, RHO) == AlgebraicPoint(-HALF, Fraction(3, 4))


def test_geodesics_are_modular_invariant():
    # p on the geodesic of Q.g exactly when g(p) is on the geodesic of Q
    rng = random.Random(987123)
    checked = 0
    while checked < 100:
        a = rng.randint(1, 6)
        b = rng.randint(-8, 8)
        c = rng.randint(-8, 0)
        if b * b - 4 * a * c <= 0:
            continue
        q = QuadForm(a, b, c)
        g = random_word(rng)
        qg = form_action(q, g)
        # a few points exactly on the pulled-back geodesic
        placed = 0
        for num in range(-6, 7):
            x = Fraction(num, 13)
            if qg.a == 0:
                if qg.b * x + qg.c != 0:
                    continue
                s = Fraction(rng.randint(1, 50), 7)
            else:
                s = Fraction(-(qg.b * x + qg.c), qg.a) - x * x
                if s <= 0:
                    continue
            p = AlgebraicPoint(x, s)
            assert eval_form(qg, p) == 0
            assert eval_form(q, apply_mobius(g, p)) == 0
            placed += 1
        # and a few generic points where both sides must agree on nonvanishing
        for _ in range(5):
            p = AlgebraicPoint(Fraction(rng.randint(-20, 20), 17), Fraction(rng.randint(1, 60), 11))
            lhs = eval_form(qg, p) == 0
            rhs = eval_form(q, apply_mobius(g, p)) == 0
            assert lhs == rhs
        if placed:
            checked += 1


def test_reduce_point_examples():
    g, p = reduce_point(AlgebraicPoint(0, 4))
    assert g == IDENTITY and p == AlgebraicPoint(0, 4)
    g, p = reduce_point(AlgebraicPoint(1, 4))
    assert g == T.inv() and p == AlgebraicPoint(0, 4)
    g, p = reduce_point(AlgebraicPoint(0, Fraction(1, 4)))
    assert g == S and p == AlgebraicPoint(0, 4)


def test_reduce_point_properties():
    rng = random.Random(55221)
    for _ in range(200):
        p0 = AlgebraicPoint(
            Fraction(rng.randint(-400, 400), rng.randint(1, 40)),
            Fraction(rng.randint(1, 500), rng.randint(1, 100)),
        )
        g, p = reduce_point(p0)
        assert -HALF < p.x <= HALF
        assert p.x * p.x + p.s >= 1
        assert apply_mobius(g, p0) == p


def test_exact_complex_ring():
    rho = ExactComplex(HALF, HALF, 3)  # 1/2 + i sqrt(3)/2... scaled: v^2 s = 3/4
    assert rho * rho == ExactComplex(-HALF, HALF, 3)
    assert rho**2 - rho + ExactComplex(1, 0, 0) == ExactComplex(0, 0, 0)
    z = ExactComplex(Fraction(2, 3), Fraction(1, 5), 7)
    assert z * z == z**2
    assert (z + z) == z * ExactComplex(2, 0, 0)
    assert z - z == ExactComplex(0, 0, 0)


def test_exact_complex_radicand_rescaling():
    # i*sqrt(12) and 2i*sqrt(3) are the same number
    assert ExactComplex(0, 1, 12) == ExactComplex(0, 2, 3)
    assert hash(ExactComplex(0, 1, 12)) == hash(ExactComplex(0, 2, 3))
    mixed = ExactComplex(1, 1, 12) + ExactComplex(1, 1, 3)
    assert mixed == ExactComplex(2, 3, 3)


def test_exact_complex_equals_and_hashes_as_rationals():
    three = ExactComplex(3)
    assert three == 3 and three == Fraction(3)
    assert hash(three) == hash(3) == hash(Fraction(3))
    assert len({three, 3, Fraction(3)}) == 1
    assert ExactComplex(HALF) == HALF and hash(ExactComplex(HALF)) == hash(HALF)
    assert ExactComplex(3, 1, 2) != 3
    assert (three == "3") is False  # no coercion from str
    assert three.__eq__("3") is NotImplemented


def test_exact_complex_incompatible_radicands():
    # i sqrt(2) and i sqrt(3) share no radicand: unequal, and not addable
    r2, r3 = ExactComplex(0, 1, 2), ExactComplex(0, 1, 3)
    assert r2 != r3 and (r2 == r3) is False
    with pytest.raises(ValueError, match="incompatible radicands"):
        r2 + r3


def test_exact_complex_reflected_subtraction_and_repr():
    z = ExactComplex(Fraction(1, 3), Fraction(1, 2), 5)
    assert 2 - z == ExactComplex(Fraction(5, 3), Fraction(-1, 2), 5)
    assert 2 - z == -(z - 2)
    assert repr(ExactComplex(Fraction(-1, 2))) == "ExactComplex(-1/2)"
    assert repr(z) == "ExactComplex(1/3 + 1/2*i*sqrt(5))"


def _to_complex(z: ExactComplex) -> complex:
    return complex(float(z.u), float(z.v) * math.sqrt(float(z.s)))


def test_exact_complex_against_floats():
    rng = random.Random(77007)
    for _ in range(100):
        u = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        v = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        s = rng.randint(0, 20)
        w = ExactComplex(u, v, s)
        zf = _to_complex(w)
        for n in range(5):
            exact = _to_complex(w**n)
            approx = zf**n
            assert abs(exact - approx) <= 1e-9 * max(1.0, abs(approx))


def test_exact_complex_from_point():
    z = ExactComplex.from_point(RHO)
    assert z == ExactComplex(HALF, 1, Fraction(3, 4))
    assert abs(_to_complex(z) - complex(0.5, 0.8660254037844386)) < 1e-12


def test_value_types_keep_repr_hash_and_checks():
    # Mat2 and QuadForm print and hash as they did as frozen dataclasses
    assert [(repr(m), hash(m)) for m in (IDENTITY, S, Mat2(2, 3, 1, 2))] == [
        ("[[1,0],[0,1]]", 8845706618679074035),
        ("[[0,-1],[1,0]]", -4936627272825922070),
        ("[[2,3],[1,2]]", -417948466306862758),
    ]
    forms = (QuadForm(1, 1, -1), QuadForm(-2, 3, 1), QuadForm(0, 3, -1))
    assert [(repr(q), hash(q)) for q in forms] == [
        ("QuadForm(a=1, b=1, c=-1)", -2372014913340491271),
        ("QuadForm(a=2, b=-3, c=-1)", -846466477055918254),
        ("QuadForm(a=0, b=3, c=-1)", 5100121539009099872),
    ]
    with pytest.raises(ValueError, match="determinant"):
        Mat2(1, 1, 1, 1)
    with pytest.raises(ValueError, match="positive discriminant"):
        QuadForm(1, 0, 1)
