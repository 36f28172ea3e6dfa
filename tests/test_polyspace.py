from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from math import isqrt

import pytest

from mlp import (
    IDENTITY,
    S,
    T,
    AlgebraicPoint,
    ExactComplex,
    InvalidDiscriminant,
    InvalidWeight,
    Mat2,
    Orbit,
    Orbits,
    build_arrangement,
    build_gluing_graph,
    check_laws,
    compute_space,
    evaluate,
    orbits_and_cycles,
)
from mlp import polyspace
from mlp.polyspace import (
    SlashMatrix,
    check_weight,
    fixed_space,
    slash_matrix,
    solve_space,
)

from _support import (
    coeffs_canonical,
    deficit_law_dim,
    exceptional_points,
    modular_rank_dim,
    quotient_orbit_count,
    random_word,
)

HALF = Fraction(1, 2)
RHO = AlgebraicPoint(HALF, Fraction(3, 4))
ZERO = ExactComplex(0, 0, 0)
ONE = ExactComplex(1, 0, 0)


def _identity_matrix(w: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(w + 1)) for i in range(w + 1))


def _poly_at(coeffs, p: AlgebraicPoint) -> ExactComplex:
    z = ExactComplex.from_point(p)
    acc = ZERO
    for c in reversed(coeffs):
        acc = acc * z + ExactComplex(c, 0, 0)
    return acc


def test_check_weight():
    assert check_weight(0) == 0
    assert check_weight(-6) == 6
    # bool is an int subclass; False must not pass as k=0
    for bad in (2, -1, -3, 1, False, True):
        with pytest.raises(InvalidWeight):
            check_weight(bad)


def _reference_apply(m, vec) -> tuple[Fraction, ...]:
    """Plain Fraction mat-vec, the reference for SlashMatrix.apply."""
    n = len(m.mat)
    return tuple(sum((m.mat[i][j] * Fraction(vec[j]) for j in range(n)), Fraction(0))
                 for i in range(n))


def test_slash_apply_matches_fraction_reference():
    rng = random.Random(52711)
    for w in range(0, 13, 2):
        for _ in range(15):
            m = slash_matrix(random_word(rng), w)
            mixed = [Fraction(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(w + 1)]
            ints = [rng.randint(-50, 50) for _ in range(w + 1)]
            both = [x if rng.random() < 0.5 else Fraction(x, 7) for x in ints]
            for vec in (mixed, ints, both, [0] * (w + 1)):
                got = m.apply(vec)
                assert got == _reference_apply(m, vec)
                assert coeffs_canonical([got])


def test_slash_matrix_pins():
    assert slash_matrix(IDENTITY, 4).mat == _identity_matrix(4)
    # composition with X+1, column-wise binomial expansion
    assert slash_matrix(T, 2).mat == ((1, 1, 1), (0, 1, 2), (0, 0, 1))
    with pytest.raises(InvalidWeight):
        slash_matrix(T, 3)


def _reference_slash_matrix(g: Mat2, w: int) -> tuple[tuple[int, ...], ...]:
    """Column j as (aX+b)^j (cX+d)^(w-j), each power expanded from scratch:
    the reference slash_matrix's running powers must reproduce exactly."""

    def mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    def power(p, n):
        out = [1]
        for _ in range(n):
            out = mul(out, p)
        return out

    cols = [mul(power([g.b, g.a], j), power([g.d, g.c], w - j)) for j in range(w + 1)]
    return tuple(tuple(cols[j][i] for j in range(w + 1)) for i in range(w + 1))


def test_slash_matrix_matches_reference_expansion():
    rng = random.Random(1909)
    for w in range(0, 25, 2):
        words = [IDENTITY, S, T, T.inv() @ S] + [random_word(rng) for _ in range(30)]
        for g in words:
            assert slash_matrix(g, w).mat == _reference_slash_matrix(g, w), (g, w)


def test_slash_matrix_weight_zero_is_trivial():
    rng = random.Random(31007)
    for _ in range(20):
        assert slash_matrix(random_word(rng), 0).mat == ((1,),)


def test_slash_right_action_law():
    rng = random.Random(90210)
    for w in (0, 2, 4, 6, 8):
        for _ in range(20):
            g1, g2 = random_word(rng), random_word(rng)
            assert slash_matrix(g1 @ g2, w) == slash_matrix(g2, w) @ slash_matrix(g1, w)


def test_slash_torsion_relations():
    for w in (0, 2, 4, 6, 8):
        ms, mt = slash_matrix(S, w), slash_matrix(T, w)
        assert (ms @ ms).mat == _identity_matrix(w)
        st = ms @ mt
        assert (st @ st @ st).mat == _identity_matrix(w)


def test_fixed_space_pins():
    assert fixed_space([slash_matrix(T, 2)], 2) == [(1, 0, 0)]
    corner = Mat2(1, -1, 1, 0)
    assert fixed_space([slash_matrix(corner, 2)], 2) == [(1, -1, 1)]
    # no constraint, or only identities, leaves no row and so no pivot: the
    # elimination returns the unit vectors. S @ S = -I slashes to the
    # identity at even w
    for w in (0, 2, 4, 12):
        units = [tuple(Fraction(int(i == j)) for i in range(w + 1)) for j in range(w + 1)]
        assert fixed_space([], w) == units
        assert fixed_space([slash_matrix(S @ S, w)], w) == units


def test_fixed_space_counts_by_cycle_type():
    # a parabolic word fixes 1 polynomial of degree <= w, an elliptic one of
    # order 4 fixes 2*(w//4)+1 and one of order 3 or 6 fixes 2*(w//6)+1, by
    # counting its eigenvalues; conjugating the word keeps the count
    for c in (IDENTITY, T, Mat2(2, 1, 1, 1)):
        for g in (T, S, S @ T, T @ S, S.inv()):
            word = c.inv() @ g @ c
            for w in range(0, 25, 2):
                expected = {2: 1, 0: 2 * (w // 4) + 1, 1: 2 * (w // 6) + 1}
                count = len(fixed_space([slash_matrix(word, w)], w))
                assert count == expected[abs(word.trace())], (c, g, w)


def test_fixed_space_normalization():
    # first nonzero coefficient of each basis vector is 1
    for disc in (5, 8, 9, 13):
        for k in (0, -2, -4):
            space = compute_space(disc, k)
            for elem in space.basis:
                root_poly = min(elem.items())[1]
                lead = next(c for c in root_poly if c)
                assert lead == 1


def _fraction_fixed_space(constraints, w):
    """Joint fixed space by plain Gauss-Jordan over Fraction: the reference
    the integer elimination in fixed_space must reproduce exactly."""
    n = w + 1
    rows = []
    for m in constraints:
        for i in range(n):
            row = [m.mat[i][j] - (i == j) for j in range(n)]
            if any(row):
                rows.append([Fraction(e) for e in row])
    if not rows:
        return [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    pivots = []
    r = 0
    for col in range(n):
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        rows[r] = [e / rows[r][col] for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][free]
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return basis


def _low_rank_constraint(rng, w):
    """I + A B for random integer A (n x r) and B (r x n): M - I has rank <= r."""
    n = w + 1
    r = rng.randint(0, n)
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    mat = tuple(
        tuple(int(i == j) + sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n))
        for i in range(n)
    )
    return SlashMatrix(mat)


def test_fixed_space_matches_fraction_reference():
    rng = random.Random(1968)
    for _ in range(400):
        w = rng.choice((0, 2, 4, 6, 8))
        cons = [_low_rank_constraint(rng, w) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            cons.append(slash_matrix(random_word(rng), w))
        assert fixed_space(cons, w) == _fraction_fixed_space(cons, w), cons
    # the cycle words of every orbit the sweep meets, as solve_space passes them
    for disc in [d for d in range(1, 151) if d % 4 in (0, 1)]:
        orbits = orbits_and_cycles(build_gluing_graph(build_arrangement(disc)))
        for k in (-2, -4, -12):
            for orb in orbits:
                cons = [slash_matrix(g, -k) for g in orb.cycles if g != IDENTITY]
                assert fixed_space(cons, -k) == _fraction_fixed_space(cons, -k), (disc, k)
    # every even w <= 24, on the cycle words T, S and the two of order 3, and
    # on random words alone and in pairs
    cycle_words = [T, S, Mat2(-1, -1, 1, 0), Mat2(0, 1, -1, -1)]
    for w in range(0, 25, 2):
        sets = [[g] for g in cycle_words + [random_word(rng) for _ in range(6)]]
        sets += [[random_word(rng), random_word(rng)] for _ in range(3)]
        for words in sets:
            cons = [slash_matrix(g, w) for g in words]
            assert fixed_space(cons, w) == _fraction_fixed_space(cons, w), (words, w)


def test_compute_space_d5_pinned_basis():
    space = compute_space(5, -2)
    assert space.dim == 2
    assert space.basis[0] == {0: (1, 0, 0)}
    assert space.basis[1] == {1: (1, 1, 1), 2: (1, -1, 1)}


def test_compute_space_d5_weight_zero():
    space = compute_space(5, 0)
    assert space.dim == 2
    assert space.basis[0] == {0: (1,)}
    assert space.basis[1] == {1: (1,), 2: (1,)}


def test_compute_space_d4_free_monomials():
    space = compute_space(4, -2)
    assert space.dim == 6
    for elem in space.basis:
        assert len(elem) == 1
        (coeffs,) = elem.values()
        assert sum(1 for c in coeffs if c) == 1 and 1 in coeffs


def test_compute_space_augmented():
    assert compute_space(5, -2, augmented=True).dim == 9
    assert compute_space(8, -4, augmented=True).dim == 20


def test_compute_space_rejects_bad_input():
    with pytest.raises(InvalidDiscriminant):
        compute_space(7, -2)
    with pytest.raises(InvalidWeight):
        compute_space(5, -3)
    with pytest.raises(InvalidWeight):
        compute_space(5, 2)


def test_dimension_regressions():
    expected = {
        (4, -2): 6,
        (8, -2): 5,
        (8, 0): 3,
        (1, -2): 1,
        (5, -2): 2,
        (9, -2): 28,
        (12, -2): 8,
    }
    for (disc, k), dim in expected.items():
        assert compute_space(disc, k).dim == dim, (disc, k)


def test_basis_satisfies_every_gluing_relation():
    # matrix check on each edge: P_src = P_dst slashed by the edge generator
    for disc in [d for d in range(1, 31) if d % 4 in (0, 1)]:
        for k in (0, -2, -4):
            space = compute_space(disc, k)
            graph = build_gluing_graph(space.complex)
            w = -k
            zeros = (Fraction(0),) * (w + 1)
            for elem in space.basis:
                for e in graph.edges:
                    lhs = elem.get(e.src, zeros)
                    rhs = slash_matrix(e.gen, w).apply(elem.get(e.dst, zeros))
                    assert tuple(lhs) == tuple(rhs)


def test_dim_matches_modular_rank_oracle():
    for disc in [d for d in range(1, 151) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        graph = build_gluing_graph(fc)
        orbits = orbits_and_cycles(graph)
        for k in (0, -2, -12):
            assert solve_space(fc, orbits, k).dim == modular_rank_dim(graph, k), (disc, k)


def test_dim_matches_deficit_law():
    # solved the sweep's way, with one memo over every D, so a memo entry
    # served to the wrong discriminant or weight shows as a wrong dim; up to
    # D = 300 the law is also fed the orbit count from the forms alone
    memo = {}
    weights = (*range(0, -16, -2), -24)
    for disc in [d for d in range(1, 401) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        orbits = orbits_and_cycles(build_gluing_graph(fc))
        forms_only = quotient_orbit_count(disc)[0] if disc <= 300 else None
        for k in weights:
            dim = solve_space(fc, orbits, k, memo=memo).dim
            assert dim == deficit_law_dim(fc, len(orbits), k), (disc, k)
            if forms_only is not None:
                assert dim == deficit_law_dim(fc, forms_only, k), (disc, k)


def test_dim_counts_the_basis():
    for disc in [d for d in range(1, 151) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        orbits = orbits_and_cycles(build_gluing_graph(fc))
        for k, augmented in [(0, False), (-2, False), (-4, False), (-12, False),
                             (0, True), (-2, True)]:
            space = solve_space(fc, orbits, k, augmented=augmented)
            assert space.dim == len(space.basis), (disc, k, augmented)


def test_basis_read_runs_no_elimination(monkeypatch):
    space = compute_space(33, -4)
    assert any(orb.cycles for orb in space.orbits)  # so fixed_space ran

    def refuse(*args):
        raise AssertionError("basis read built a matrix or solved a system")

    monkeypatch.setattr(polyspace, "fixed_space", refuse)
    monkeypatch.setattr(polyspace, "slash_matrix", refuse)
    basis = space.basis
    assert len(basis) == space.dim
    assert space.basis is basis  # transported once


def test_basis_refuses_a_missing_transport_matrix():
    # read as the identity, a missing matrix would give a basis of the right
    # length with wrong vectors
    space = compute_space(33, -4)
    word = next(
        g for words, vecs in space.roots if vecs for g in words.values() if g != IDENTITY
    )
    del space.memo[(word, space.w)]
    with pytest.raises(KeyError):
        space.basis


def test_empty_joint_fixed_space():
    # only the constants at w = 0 are fixed by both S and T: for w > 0 a root
    # with both cycles carries no vector and adds nothing to dim or basis
    for w, n in ((0, 1), (2, 0), (4, 0), (12, 0)):
        assert len(fixed_space([slash_matrix(S, w), slash_matrix(T, w)], w)) == n, w
    fc = build_arrangement(5)
    orbits = Orbits(3, {0: Orbit({0: IDENTITY, 1: T.inv()}, (S, T))})
    space = solve_space(fc, orbits, -2)
    assert space.fixed == {0: []}
    assert space.dim == 3 == len(space.basis)
    assert all(set(elem) == {2} for elem in space.basis)
    # the orbit with no root vector transports nothing
    assert (T.inv(), 2) not in space.memo


def test_matrices_of_another_size_are_refused():
    # a slash matrix's size is its weight, w + 1
    m2, m4 = slash_matrix(S, 2), slash_matrix(S, 4)
    with pytest.raises(InvalidWeight):
        fixed_space([m2], 4)
    with pytest.raises(InvalidWeight):
        fixed_space([m4, m2], 4)
    with pytest.raises(InvalidWeight):
        m2 @ m4


def _reference_basis(space):
    """The basis element by element: each root vector on every face of its
    orbit, faces in increasing order, slashed by the face's word."""
    memo, w = space.memo, space.w
    return [
        {f: v if g == IDENTITY else memo[(g, w)].apply(v) for f, g in sorted(words.items())}
        for words, vecs in space.roots
        for v in vecs
    ]


def test_basis_matches_element_by_element_transport():
    for disc in [d for d in range(1, 151) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        orbits = orbits_and_cycles(build_gluing_graph(fc))
        for k, augmented in [(0, False), (-2, False), (-8, False), (-12, False),
                             (0, True), (-2, True)]:
            space = solve_space(fc, orbits, k, augmented=augmented)
            expect = _reference_basis(space)
            assert len(space.basis) == len(expect), (disc, k, augmented)
            for elem, ref in zip(space.basis, expect):
                # the same vectors on the same faces, in the same order
                assert list(elem.items()) == list(ref.items()), (disc, k, augmented)
                assert coeffs_canonical(elem.values()), (disc, k, augmented)


def test_coefficients_are_ints_unless_fractional():
    rng = random.Random(3301)
    # fixed spaces with fractional entries: low-rank constraints and words
    fractional = 0
    for _ in range(200):
        w = rng.choice((2, 4, 6, 8))
        cons = [_low_rank_constraint(rng, w), slash_matrix(random_word(rng), w)]
        cons = cons[:rng.randint(1, 2)]
        vecs = fixed_space(cons, w)
        assert coeffs_canonical(vecs), cons
        fractional += any(type(c) is Fraction for vec in vecs for c in vec)
    assert fractional
    for disc in [d for d in range(1, 101) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        orbits = orbits_and_cycles(build_gluing_graph(fc))
        for k, augmented in [(0, False), (-2, False), (-12, False), (-4, True)]:
            space = solve_space(fc, orbits, k, augmented=augmented)
            assert coeffs_canonical(space.units), disc
            for vecs in space.fixed.values():
                assert coeffs_canonical(vecs), (disc, k)
            # every row of the view, so every coefficient a record spells
            for _, rows in space.by_orbit:
                for row in rows:
                    assert coeffs_canonical(row), (disc, k, augmented)


def test_basis_transports_each_word_and_vector_once(monkeypatch):
    calls = []
    apply = SlashMatrix.apply

    def counted(self, vec):
        calls.append(vec)
        return apply(self, vec)

    class Columns:
        """A transport matrix that counts the reads of its entries outside
        apply: the basis read takes a free root's images as its columns."""

        def __init__(self, m):
            self.m, self.reads = m, 0

        @property
        def mat(self):
            self.reads += 1
            return self.m.mat

        def apply(self, vec):
            return self.m.apply(vec)

    monkeypatch.setattr(SlashMatrix, "apply", counted)
    for disc, k, pairs, free_words in ((33, -4, 1, 2), (97, -8, 3, 2), (145, -12, 5, 2)):
        space = compute_space(disc, k)
        for key, m in list(space.memo.items()):
            if isinstance(m, SlashMatrix):
                space.memo[key] = Columns(m)
        # apply runs once per word and root vector that is not a unit vector
        distinct = {
            (g, id(v))
            for words, vecs in space.roots
            if vecs is not space.units
            for g in words.values()
            if g != IDENTITY
            for v in vecs
        }
        free = {
            g
            for words, vecs in space.roots
            if vecs is space.units
            for g in words.values()
            if g != IDENTITY
        }
        calls.clear()
        basis = space.basis
        assert len(calls) == len(distinct) == pairs, (disc, k)
        assert len(free) == free_words, (disc, k)
        # each word's columns are read once, and only for a free root
        for (g, w), m in space.memo.items():
            if isinstance(m, Columns):
                assert m.reads == (g in free), (disc, k, g)
        # faces reached by the same word from the same root vector share the image
        seen = {}
        elems = iter(basis)
        for words, vecs in space.roots:
            for v in vecs:
                elem = next(elems)
                for f, g in words.items():
                    if g != IDENTITY:
                        assert seen.setdefault((g, id(v)), elem[f]) is elem[f], (disc, k, f)
        assert len(seen) == pairs + (space.w + 1) * free_words
        assert next(elems, None) is None
        # orbits share the standard basis and their images, so no reader may grow them
        assert type(space.units) is tuple
        assert all(type(row) is tuple for _, rows in space.by_orbit for row in rows)


def test_dim_bound_and_weight_zero_identity():
    for disc in [d for d in range(1, 41) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        orbits = orbits_and_cycles(build_gluing_graph(fc))
        rf = fc.face_count()
        assert compute_space(disc, 0).dim == len(orbits)
        for k in (-2, -4):
            dim = compute_space(disc, k).dim
            assert dim <= (-k + 1) * rf
            assert (dim == (-k + 1) * rf) == fc.even_square


def _laws_input(disc: int):
    fc = build_arrangement(disc)
    return fc, orbits_and_cycles(build_gluing_graph(fc))


def test_check_laws_hold():
    for disc in [d for d in range(1, 61) if d % 4 in (0, 1)]:
        fc, orbits = _laws_input(disc)
        spaces = [solve_space(fc, orbits, k) for k in (0, -2, -4)]
        assert check_laws(fc, orbits, spaces) == [], disc
        aug = [solve_space(fc, orbits, k, augmented=True) for k in (0, -2)]
        assert check_laws(fc, orbits, aug) == [], disc


@pytest.mark.parametrize(
    "disc, k, augmented, dim, expected",
    [
        # D=5: rF 3, 2 orbits; off even squares dim < bound at k != 0
        (5, 0, False, 4, ["D=5 k=0: dim 4 exceeds bound 3", "D=5 k=0: dim 4 != orbit count 2"]),
        (5, 0, False, 1, ["D=5 k=0: dim 1 != orbit count 2"]),
        (5, -2, False, 10, ["D=5 k=-2: dim 10 exceeds bound 9",
                            "D=5 k=-2: dim 10 not below bound 9"]),
        (5, -2, False, 9, ["D=5 k=-2: dim 9 not below bound 9"]),
        # D=16: rF 18, 18 orbits; an even square has dim = bound at k != 0
        (16, 0, False, 17, ["D=16 k=0: dim 17 != orbit count 18", "D=16 k=0: dim 17 != rF 18"]),
        (16, -2, False, 53, ["D=16 k=-2: dim 53 != bound 54 (even square)"]),
        (16, -2, False, 55, ["D=16 k=-2: dim 55 exceeds bound 54",
                             "D=16 k=-2: dim 55 != bound 54 (even square)"]),
        # augmented spaces reach the bound and are held to nothing else
        (5, -2, True, 10, ["D=5 k=-2: augmented dim 10 != 9"]),
        (16, 0, True, 17, ["D=16 k=0: augmented dim 17 != 18"]),
    ],
)
def test_check_laws_reports_doctored_dims(disc, k, augmented, dim, expected):
    fc, orbits = _laws_input(disc)
    space = solve_space(fc, orbits, k, augmented=augmented)
    assert check_laws(fc, orbits, [dataclasses.replace(space, dim=dim)]) == expected


def test_check_laws_reports_cusp_counts(monkeypatch):
    fc, orbits = _laws_input(5)
    space = solve_space(fc, orbits, -2)
    monkeypatch.setattr(fc, "cusp_face_count", lambda: 2)
    # cusp messages come first, then each space in order
    assert check_laws(fc, orbits, [space, dataclasses.replace(space, dim=9)]) == [
        "D=5: cuspFaces=2, expected 1",
        "D=5 k=-2: dim 9 not below bound 9",
    ]
    fc, orbits = _laws_input(16)
    monkeypatch.setattr(fc, "cusp_face_count", lambda: 5)
    assert check_laws(fc, orbits, []) == ["D=16: cuspFaces=5, expected 4"]
    # an odd square has sqrt(D) + 1 cusp faces in sqrt(D) orbits
    fc, orbits = _laws_input(9)
    assert check_laws(fc, orbits, []) == []
    # glue the cusp faces 4 and 7: one cusp orbit fewer
    roots = {min(orb.words): orb for _, orb in orbits.glued}
    fewer = Orbits(fc.face_count(), {**roots, 4: Orbit({4: IDENTITY, 7: T}, ())})
    assert check_laws(fc, fewer, []) == ["D=9: cusp orbit count 2, expected 3"]
    monkeypatch.setattr(fc, "cusp_face_count", lambda: 3)
    assert check_laws(fc, orbits, []) == ["D=9: cuspFaces=3, expected 4"]


def test_check_laws_counts_odd_square_cusp_orbits():
    # an odd square has sqrt(D) + 1 cusp faces in sqrt(D) orbits: D = 9 has
    # cusp faces 0, 4, 7 and 10, and 0 and 10 are one orbit
    fc, orbits = _laws_input(9)
    roots = {min(orb.words): orb for _, orb in orbits.glued}
    assert sorted(fc.cusp_faces) == [0, 4, 7, 10] and set(roots[0].words) == {0, 10}
    # glue the cusp faces 4 and 7 as well, or cut 0 from 10: only the orbit
    # count breaks, read from the glued orbits alone
    glued = Orbits(fc.face_count(), {**roots, 4: Orbit({4: IDENTITY, 7: T}, ())})
    assert check_laws(fc, glued, []) == ["D=9: cusp orbit count 2, expected 3"]
    # a cusp face glued to a face off the cusp is still one cusp orbit
    mixed = Orbits(fc.face_count(), {**roots, 4: Orbit({4: IDENTITY, 5: T}, ())})
    assert 5 not in fc.cusp_faces and check_laws(fc, mixed, []) == []
    del roots[0]
    cut = Orbits(fc.face_count(), roots)
    assert check_laws(fc, cut, []) == ["D=9: cusp orbit count 4, expected 3"]
    # the count from the glued orbits is the count over every orbit
    for disc in (9, 25, 49, 81, 121):
        fc, orbits = _laws_input(disc)
        assert check_laws(fc, orbits, []) == [], disc
        walked = sum(not fc.cusp_faces.isdisjoint(orb.words) for orb in orbits)
        assert walked == isqrt(disc), disc


def test_evaluate_constant_element():
    space = compute_space(5, -2)
    assert evaluate(space, 0, AlgebraicPoint(0, 9)) == ONE
    # constant on the cusp face, zero on the other orbit's faces
    assert evaluate(space, 1, AlgebraicPoint(0, 9)) == ZERO


def test_evaluate_vanishes_at_corner():
    # X^2 - X + 1 has rho as a root
    space = compute_space(5, -2)
    assert evaluate(space, 1, RHO) == ZERO
    # same point reached from the left corner via x -> x+1
    assert evaluate(space, 1, AlgebraicPoint(-HALF, Fraction(3, 4))) == ZERO


def test_evaluate_rejects_bad_index():
    space = compute_space(5, -2)
    for bad in (-1, space.dim, 7):
        with pytest.raises(IndexError, match=r"0\.\.1"):
            evaluate(space, bad, AlgebraicPoint(0, 9))


def test_evaluate_rejects_lower_half_plane():
    space = compute_space(5, -2)
    with pytest.raises(ValueError, match="upper half-plane"):
        evaluate(space, 0, AlgebraicPoint(0, -1))


def test_evaluate_is_modular():
    rng = random.Random(60911)
    for disc, k in ((5, -2), (8, -2), (5, 0)):
        space = compute_space(disc, k)
        w = -k
        for _ in range(50):
            g = random_word(rng, 8)
            p = AlgebraicPoint(
                Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                Fraction(rng.randint(1, 80), rng.randint(1, 10)),
            )
            jay = ExactComplex(g.c * p.x + g.d, Fraction(g.c), p.s)
            q = AlgebraicPoint(
                ((g.a * p.x + g.b) * (g.c * p.x + g.d) + g.a * g.c * p.s)
                / ((g.c * p.x + g.d) ** 2 + g.c * g.c * p.s),
                p.s / ((g.c * p.x + g.d) ** 2 + g.c * g.c * p.s) ** 2,
            )
            for idx in range(space.dim):
                val = evaluate(space, idx, p)
                assert val == jay**w * evaluate(space, idx, q)
                # the value is written over the point's own radicand
                assert val.s in (0, p.s)


def test_evaluate_averages_on_exceptional_set():
    for disc in [d for d in range(1, 21) if d % 4 in (0, 1)]:
        space = compute_space(disc, -2)
        fc = space.complex
        for p in exceptional_points(fc, 20):
            loc = fc.locate(p)
            assert len(loc) == 2
            carrier = next(
                q for q in fc.forms if q.a * (p.x * p.x + p.s) + q.b * p.x + q.c == 0
            )
            sides = _stable_side_faces(fc, p, vertical=carrier.a != 0)
            assert sides == set(loc)
            zeros = (Fraction(0),) * 3
            for idx, elem in enumerate(space.basis):
                mean = ZERO
                for f in loc:
                    mean = mean + _poly_at(elem.get(f, zeros), p)
                mean = mean * ExactComplex(Fraction(1, len(loc)), 0, 0)
                assert evaluate(space, idx, p) == mean


def _stable_side_faces(fc, p: AlgebraicPoint, vertical: bool) -> set[int]:
    """One-sided faces at an exceptional point, stabilized over shrinking steps."""
    from mlp.arrangement import OutOfRegion

    prev = None
    for t in (10, 13, 16, 19, 22, 25):
        eps = Fraction(1, 2**t)
        try:
            if vertical:
                a = fc.locate(AlgebraicPoint(p.x, p.s + eps))
                b = fc.locate(AlgebraicPoint(p.x, p.s - eps))
            else:
                a = fc.locate(AlgebraicPoint(p.x + eps, p.s))
                b = fc.locate(AlgebraicPoint(p.x - eps, p.s))
        except OutOfRegion:
            prev = None
            continue
        if len(a) != 1 or len(b) != 1:
            prev = None
            continue
        if prev == {*a, *b}:
            return prev
        prev = {*a, *b}
    raise AssertionError(f"one-sided faces did not stabilize at {p}")
