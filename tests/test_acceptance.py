"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line on success; pytest -v adds its own
per-test verdict. Stated runtime limits are asserted with a monotonic
clock. Everything here is exact rational arithmetic; no tolerances.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import isqrt

from mlp import (
    IDENTITY,
    S,
    T,
    AlgebraicPoint,
    ExactComplex,
    QuadForm,
    apply_mobius,
    build_arrangement,
    build_gluing_graph,
    compute_space,
    enumerate_forms,
    eval_form,
    evaluate,
    form_action,
    orbits_and_cycles,
)
from mlp.polyspace import slash_matrix

from _support import euler_counts, exceptional_points, random_word, stable_grid_face_count

ALL_DISCS = [d for d in range(1, 101) if d % 4 in (0, 1)]
RHO = AlgebraicPoint(Fraction(1, 2), Fraction(3, 4))
ZERO = ExactComplex(0, 0, 0)


def test_criterion_1_golden_d5():
    start = time.monotonic()
    assert [q.as_list() for q in enumerate_forms(5)] == [[1, 1, -1], [1, -1, -1]]
    space = compute_space(5, -2)
    assert space.dim == 2
    assert space.complex.face_count() == 3
    (rho_face,) = space.complex.locate(RHO)
    matches = [
        elem for elem in space.basis if elem.get(rho_face) == (1, -1, 1)
    ]
    assert len(matches) == 1  # X^2 - X + 1 on the face containing rho
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden D=5 (dim 2, rF 3, X^2-X+1 at rho) in {elapsed:.2f}s")


def test_criterion_2_even_square_equality():
    start = time.monotonic()
    for disc in (4, 16, 36, 64, 100):
        rf = build_arrangement(disc).face_count()
        for k in (-2, -4, -6):
            assert compute_space(disc, k).dim == (-k + 1) * rf, (disc, k)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: even-square equality dim=(|k|+1)rF in {elapsed:.2f}s")


def test_criterion_3_strict_inequality_otherwise():
    start = time.monotonic()
    even_squares = {4, 16, 36, 64, 100}
    for disc in ALL_DISCS:
        if disc in even_squares:
            continue
        rf = build_arrangement(disc).face_count()
        for k in (-2, -4):
            assert compute_space(disc, k).dim < (-k + 1) * rf, (disc, k)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"PASS criterion 3: strict dim < (|k|+1)rF off even squares in {elapsed:.2f}s")


def test_criterion_4_weight_zero_dimension():
    for disc in ALL_DISCS:
        fc = build_arrangement(disc)
        orbits = orbits_and_cycles(build_gluing_graph(fc))
        dim = compute_space(disc, 0).dim
        assert dim == len(orbits), disc
        if fc.even_square:
            assert dim == fc.face_count(), disc
    print("PASS criterion 4: weight-0 dimension = gluing-orbit count, D <= 100")


def test_criterion_5_cusp_counts():
    for disc in ALL_DISCS:
        fc = build_arrangement(disc)
        cusp = fc.cusp_face_count()
        root = isqrt(disc)
        if root * root != disc:
            assert cusp == 1, disc
        elif root % 2 == 0:
            assert cusp == root, disc
        else:
            assert cusp == root + 1, disc
            orbits = orbits_and_cycles(build_gluing_graph(fc))
            cusp_orbits = sum(1 for o in orbits if not fc.cusp_faces.isdisjoint(o.words))
            assert cusp_orbits == root, disc
    print("PASS criterion 5: cusp face counts (1 / sqrt(D) / sqrt(D)+1), D <= 100")


def test_criterion_6_derived_regressions():
    # face counts re-confirmed live against the independent grid oracle
    for disc, expected in ((1, 2), (4, 2), (8, 4)):
        assert stable_grid_face_count(disc) == expected
        assert build_arrangement(disc).face_count() == expected
    assert compute_space(4, -2).dim == 6
    assert compute_space(8, -2).dim == 5
    assert compute_space(8, 0).dim == 3
    assert compute_space(1, -2).dim == 1
    print("PASS criterion 6: frozen regressions rF(4)=2, dim(4,-2)=6, rF(8)=4, "
          "dim(8,-2)=5, dim(8,0)=3, dim(1,-2)=1")


def test_criterion_7_property_suites():
    rng = random.Random(1789)

    # slash composition law and torsion, 100 random words, every even w <= 8
    for _ in range(100):
        g1, g2 = random_word(rng), random_word(rng)
        for w in (0, 2, 4, 6, 8):
            assert slash_matrix(g1 @ g2, w) == slash_matrix(g2, w) @ slash_matrix(g1, w)
    for w in (0, 2, 4, 6, 8):
        st = slash_matrix(S, w) @ slash_matrix(T, w)
        assert (st @ st @ st) == slash_matrix(IDENTITY, w)

    # SL2-invariance of the exceptional set, 100 random (form, word) pairs
    pairs = 0
    while pairs < 100:
        a = rng.randint(0, 5)
        b = rng.randint(-8, 8)
        c = rng.randint(-8, 8)
        if b * b - 4 * a * c <= 0 or (a == 0 and b == 0):
            continue
        q = QuadForm(a, b, c) if a or b > 0 else QuadForm(-a, -b, -c)
        g = random_word(rng)
        qg = form_action(q, g)
        for num in (-2, 1, 3):
            x = Fraction(num, 7)
            if qg.a == 0:
                s = Fraction(5, 3)
                expect_zero = qg.b * x + qg.c == 0
            else:
                s = Fraction(-(qg.b * x + qg.c), qg.a) - x * x
                if s <= 0:
                    continue
                expect_zero = True
            p = AlgebraicPoint(x, s)
            assert (eval_form(qg, p) == 0) == expect_zero
            assert (eval_form(q, apply_mobius(g, p)) == 0) == expect_zero
        pairs += 1

    for disc in ALL_DISCS:
        fc = build_arrangement(disc)
        # wall/bottom segment symmetry
        assert [(s_.s_lo, s_.s_hi) for s_ in fc.left_segments] == [
            (s_.s_lo, s_.s_hi) for s_ in fc.right_segments
        ]
        assert sorted((-s_.x_hi, -s_.x_lo) for s_ in fc.bottom_segments) == sorted(
            (s_.x_lo, s_.x_hi) for s_ in fc.bottom_segments
        )
        # Euler relation on the cell decomposition
        v, e = euler_counts(fc)
        assert v - e + fc.face_count() == 1, disc

    # boundary averaging at 20 exceptional points per discriminant
    for disc in [d for d in range(1, 21) if d % 4 in (0, 1)]:
        space = compute_space(disc, -2)
        fc = space.complex
        zeros = (Fraction(0),) * 3
        for p in exceptional_points(fc, 20):
            loc = fc.locate(p)
            assert len(loc) == 2
            z = ExactComplex.from_point(p)
            for idx, elem in enumerate(space.basis):
                mean = ZERO
                for f in loc:
                    acc = ZERO
                    for coeff in reversed(elem.get(f, zeros)):
                        acc = acc * z + ExactComplex(coeff, 0, 0)
                    mean = mean + acc
                mean = mean * ExactComplex(Fraction(1, len(loc)), 0, 0)
                assert evaluate(space, idx, p) == mean
    print("PASS criterion 7: slash laws, invariance, symmetry, Euler, boundary averaging")


def test_criterion_8_augmented_mode():
    for disc in [d for d in range(1, 51) if d % 4 in (0, 1)]:
        rf = build_arrangement(disc).face_count()
        for k in (0, -2, -4):
            assert compute_space(disc, k, augmented=True).dim == (-k + 1) * rf, (disc, k)
    print("PASS criterion 8: augmented dimension = (|k|+1)rF, D <= 50")
