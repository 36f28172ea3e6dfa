from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from mlp import (
    IDENTITY,
    S,
    T,
    AlgebraicPoint,
    GluingEdge,
    GluingGraph,
    Mat2,
    apply_mobius,
    build_arrangement,
    build_gluing_graph,
    eval_form,
    orbits_and_cycles,
)
from mlp.geometry import is_square
from mlp.gluing import GluingMismatch
from mlp.polyspace import fixed_space, slash_matrix

from _support import I_POINT, RHO_POINT, eager_orbits, quotient_orbit_count

HALF = Fraction(1, 2)
MINUS_I = Mat2(-1, 0, 0, -1)


def _graph(disc: int) -> GluingGraph:
    return build_gluing_graph(build_arrangement(disc))


def _edge_segments(fc) -> list[tuple[GluingEdge, tuple]]:
    """Each gluing edge with its segment, in the documented edge order: one T
    edge per left wall segment, then one S edge per bottom segment at x <= 0."""
    edges = build_gluing_graph(fc).edges
    segs = [("wall", s.s_lo, s.s_hi) for s in fc.left_segments]
    segs += [("bottom", s.x_lo, s.x_hi) for s in fc.bottom_segments if s.x_hi <= 0]
    assert len(edges) == len(segs)
    return list(zip(edges, segs))


def test_d5_edges_pinned():
    edges = {(e.src, e.dst, e.gen, seg) for e, seg in _edge_segments(build_arrangement(5))}
    assert edges == {
        (1, 2, T, ("wall", Fraction(3, 4), Fraction(5, 4))),
        (0, 0, T, ("wall", Fraction(5, 4), None)),
        (1, 2, S, ("bottom", -HALF, Fraction(0))),
    }


def test_no_edges_iff_even_square():
    # the structural reason for the equality case dim = (w+1)*rF: only for an
    # even square does the gluing join no faces and impose no cycles
    for disc in (d for d in range(1, 401) if d % 4 in (0, 1)):
        even_square = disc % 2 == 0 and isqrt(disc) ** 2 == disc
        assert (_graph(disc).edges == ()) == even_square, disc


def test_d8_edges_and_orbits():
    graph = _graph(8)
    assert {(e.src, e.dst, e.gen) for e in graph.edges} == {
        (2, 3, T),
        (0, 0, T),
        (2, 3, S),
    }
    orbits = orbits_and_cycles(graph)
    assert [sorted(o.words) for o in orbits] == [[0], [1], [2, 3]]
    # the lens face carries no matching condition at all
    assert tuple(orbits)[1].cycles == ()


def test_d12_bottom_self_loop():
    # the full-width arc [1,0,-3] leaves one face touching the whole bottom
    loops = [e for e in _graph(12).edges if e.gen == S and e.src == e.dst]
    assert len(loops) == 1


def test_wall_edges_pair_heights_exactly():
    for disc in (5, 8, 9, 12, 13, 17, 20, 100):
        fc = build_arrangement(disc)
        wall_edges = [(e, seg) for e, seg in _edge_segments(fc) if e.gen == T]
        assert len(wall_edges) == len(fc.left_segments)
        assert [seg[0] for _, seg in wall_edges] == ["wall"] * len(wall_edges)
        spans = sorted((s.s_lo, s.s_hi) for s in fc.right_segments)
        assert sorted(seg[1:] for _, seg in wall_edges) == spans


def test_edges_map_into_their_destination_face():
    # from outside the sweep: a point strictly inside each boundary segment,
    # mapped by the edge's generator, lands in the face the edge names
    for disc in (d for d in range(1, 201) if d % 4 in (0, 1)):
        fc = build_arrangement(disc)
        for e, (kind, lo, hi) in _edge_segments(fc):
            if kind == "wall":
                p = AlgebraicPoint(-HALF, lo + 1 if hi is None else (lo + hi) / 2)
            else:
                x = (lo + hi) / 2
                p = AlgebraicPoint(x, 1 - x * x)
            image = apply_mobius(e.gen, p)
            if kind == "wall":
                assert image.x == HALF and image.s == p.s
            else:
                assert image.x == -p.x and image.norm_sq() == 1
            assert fc.locate(p) == (e.src,), (disc, e)
            assert fc.locate(image) == (e.dst,), (disc, e)


@pytest.mark.parametrize(
    "side, message",
    [("right_segments", "wall segments differ"), ("bottom_segments", "has no mirror")],
)
def test_gluing_rejects_unpaired_boundary(side, message):
    # drop one segment of a side. The arrangement mirrors the right wall and
    # the right floor from the left half, so they pair off by construction;
    # the sweep itself is checked by the pinned arrangement digests, the
    # grid and Euler oracles and the all-pairs merge reference
    fc = build_arrangement(5)
    setattr(fc, side, getattr(fc, side)[:-1])
    with pytest.raises(GluingMismatch, match=message):
        build_gluing_graph(fc)


def test_gluing_joins_each_face_to_its_mirror():
    # on the boundary T (on a wall) and S (on the unit circle) act as
    # z -> -conj(z) does, so an edge runs from a face to its mirror image and
    # an orbit holds at most two faces
    for disc in [*(d for d in range(1, 401) if d % 4 in (0, 1)), 1201, 2001, 2500]:
        fc = build_arrangement(disc)
        graph = build_gluing_graph(fc)
        for e in graph.edges:
            p = fc.samples[e.src]
            assert fc.locate(AlgebraicPoint(-p.x, p.s)) == (e.dst,), (disc, e)
        assert max(len(o.words) for o in orbits_and_cycles(graph)) <= 2, disc


def test_orbit_words_start_at_root():
    # the root is an orbit's least face and its first key, with the identity
    # word; the orbits partition the faces in order of their roots
    for disc in (5, 8, 9, 13):
        graph = _graph(disc)
        orbits = orbits_and_cycles(graph)
        roots = [next(iter(orb.words)) for orb in orbits]
        assert roots == sorted(roots)
        for root, orb in zip(roots, orbits):
            assert orb.words[root] == IDENTITY
            assert root == min(orb.words)
        assert sorted(f for orb in orbits for f in orb.words) == list(range(graph.n_faces))


def test_orbit_cycles_come_in_edge_order():
    # the orbits interleave in the edge list: each orbit's cycles follow the
    # order of its own edges, self-loops and identity cycles included, and
    # only the first edge to the twin gives a word
    edges = [(2, 2, S), (0, 1, T), (2, 2, T), (0, 1, S), (0, 1, T)]
    graph = GluingGraph(3, tuple(GluingEdge(a, b, g) for a, b, g in edges))
    pair, single = orbits_and_cycles(graph)
    assert list(pair.words.items()) == [(0, IDENTITY), (1, T.inv())]
    assert pair.cycles == (T.inv() @ S, IDENTITY)
    assert list(single.words.items()) == [(2, IDENTITY)]
    assert single.cycles == (S, T)
    with pytest.raises(AttributeError):
        pair.cycles = ()


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(1, 0, T)], "runs from a larger face"),
        ([(0, 1, T), (1, 2, T)], "leaves a twin"),
        ([(0, 1, T), (0, 2, S)], "third face"),
        ([(0, 1, T), (1, 1, S)], "leaves a twin"),
        ([(1, 1, S), (0, 1, T)], "another orbit"),
    ],
)
def test_orbits_refuse_a_graph_that_is_not_mirror_shaped(edges, message):
    # every edge joins a root to itself or to its one twin; a graph the
    # mirror law forbids is refused, not walked
    graph = GluingGraph(3, tuple(GluingEdge(a, b, g) for a, b, g in edges))
    with pytest.raises(GluingMismatch, match=message):
        orbits_and_cycles(graph)


def test_cycle_census_matches_the_forms():
    # Katok, Fuchsian Groups, ch. 2: a cycle word with |trace| 0 is elliptic
    # of order 4 (at i), with |trace| 1 of order 3 or 6 (at rho), with
    # |trace| 2 parabolic (at the cusp). Each orbit has at most one such
    # cycle, none is hyperbolic, and the counts by type are (c_i, c_rho,
    # c_cusp) as the deficit law reads them from the forms
    for disc in (d for d in range(1, 601) if d % 4 in (0, 1)):
        fc = build_arrangement(disc)
        census = [0, 0, 0]
        for orb in orbits_and_cycles(build_gluing_graph(fc)):
            words = [g for g in orb.cycles if g != IDENTITY]
            assert len(words) <= 1, (disc, orb)
            for g in words:
                assert abs(g.trace()) <= 2, (disc, g)
                census[abs(g.trace())] += 1
        c_i = all(eval_form(q, I_POINT) for q in fc.forms)
        c_rho = all(eval_form(q, RHO_POINT) for q in fc.forms)
        assert census == [c_i, c_rho, not is_square(disc)], disc


def test_orbit_count_matches_quotient_oracle():
    # the oracle reads only the forms and their clipped intervals; a graph G
    # on X(1) in more than one piece would be a finding, not a count to trust
    for disc in [*(d for d in range(1, 401) if d % 4 in (0, 1)), 1201, 2001, 2500]:
        count, components = quotient_orbit_count(disc)
        assert components == 1, disc
        assert len(orbits_and_cycles(_graph(disc))) == count, disc


def test_d5_cycle_has_order_three():
    orbits = orbits_and_cycles(_graph(5))
    assert [sorted(o.words) for o in orbits] == [[0], [1, 2]]
    top, pair = orbits
    assert top.cycles == (T,)
    (gamma,) = pair.cycles
    assert gamma.trace() in (-1, 1)
    cube = gamma @ gamma @ gamma
    assert cube in (IDENTITY, MINUS_I)
    # the pinned convention: the cycle at the root fixes X^2 + X + 1
    basis = fixed_space([slash_matrix(gamma, 2)], 2)
    assert basis == [(Fraction(1), Fraction(1), Fraction(1))]


def test_orbit_data_invariant_under_face_relabeling():
    rng = random.Random(424242)
    for disc in (5, 8, 9, 12, 13, 16):
        graph = _graph(disc)
        orbits = orbits_and_cycles(graph)
        partition = sorted(tuple(sorted(o.words)) for o in orbits)

        def orbit_dims(orbs, w):
            return sorted(
                len(fixed_space([slash_matrix(c, w) for c in o.cycles], w)) for o in orbs
            )

        for _ in range(5):
            perm = list(range(graph.n_faces))
            rng.shuffle(perm)
            # each edge runs from its smaller face; P_a = P_b | g says
            # P_b = P_a | g^-1, so a swapped edge carries the inverse
            redges = tuple(
                GluingEdge(perm[e.src], perm[e.dst], e.gen)
                if perm[e.src] <= perm[e.dst]
                else GluingEdge(perm[e.dst], perm[e.src], e.gen.inv())
                for e in graph.edges
            )
            rorbits = orbits_and_cycles(GluingGraph(graph.n_faces, redges))
            rpartition = sorted(
                tuple(sorted(perm.index(f) for f in o.words)) for o in rorbits
            )
            assert rpartition == partition
            for w in (2, 4):
                assert orbit_dims(rorbits, w) == orbit_dims(orbits, w)


def _assert_reads_as_eager(orbits, eager, label):
    assert len(orbits) == len(eager), label
    assert tuple(orbits) == eager, label
    assert orbits.glued == tuple(
        (i, orb) for i, orb in enumerate(eager) if orb.cycles or len(orb.words) > 1
    ), label


def test_orbits_agree_with_the_eager_tuple():
    # a free face is counted, and its Orbit built only when read: the orbits
    # iterate as the tuple with an Orbit for every face, and their glued view
    # is that tuple's orbits with a cycle or a twin, which is all solve_space
    # reads
    for disc in [*(d for d in range(1, 401) if d % 4 in (0, 1)), 1201, 2500]:
        graph = build_gluing_graph(build_arrangement(disc))
        _assert_reads_as_eager(orbits_and_cycles(graph), eager_orbits(graph), disc)
    # the arrangement numbers every twin after every root; a graph whose
    # twins come before later roots shifts those roots' orbit indices
    for n, edges in [
        (4, [(0, 1, T), (2, 2, S)]),
        (7, [(3, 4, S), (0, 2, T), (5, 5, T), (0, 2, S)]),
    ]:
        graph = GluingGraph(n, tuple(GluingEdge(a, b, g) for a, b, g in edges))
        _assert_reads_as_eager(orbits_and_cycles(graph), eager_orbits(graph), edges)
