from __future__ import annotations

import hashlib
from fractions import Fraction
from math import isqrt, lcm

import pytest

from mlp import AlgebraicPoint, arrangement, build_arrangement
from mlp.arrangement import OutOfRegion
from mlp.geometry import enumerate_forms, semicircle_interval

from _support import arrangement_digest, euler_counts, stable_grid_face_count

HALF = Fraction(1, 2)

ALL_DISCS = [d for d in range(1, 101) if d % 4 in (0, 1)]

# confirmed with stable_grid_face_count (two agreeing doubling resolutions)
# before freezing
GRID_CONFIRMED_FACE_COUNTS = {
    1: 2,
    4: 2,
    5: 3,
    8: 4,
    9: 14,
    12: 5,
    13: 6,
    16: 18,
    17: 13,
    20: 9,
}


def test_face_counts_match_grid_oracle_live():
    for disc in (1, 4, 5, 8, 12):
        assert build_arrangement(disc).face_count() == stable_grid_face_count(disc)


def test_face_counts_match_grid_oracle_frozen():
    for disc, count in GRID_CONFIRMED_FACE_COUNTS.items():
        assert build_arrangement(disc).face_count() == count, f"D={disc}"


def test_cusp_face_counts():
    assert build_arrangement(5).cusp_face_count() == 1
    assert build_arrangement(4).cusp_face_count() == 2
    assert build_arrangement(9).cusp_face_count() == 4
    assert build_arrangement(16).cusp_face_count() == 4


def test_cap_is_minimal_integer_above_arcs():
    for disc in ALL_DISCS:
        fc = build_arrangement(disc)
        assert 4 * fc.ycap**2 > disc
        assert 4 * (fc.ycap - 1) ** 2 <= disc
        # no arc reaches the cap
        for arc in fc.arcs:
            assert Fraction(disc, 4 * arc.a * arc.a) < fc.ycap ** 2


def test_d5_face_layout():
    fc = build_arrangement(5)
    assert fc.face_count() == 3
    assert fc.cusp_faces == {0}
    assert fc.locate(AlgebraicPoint(0, 2)) == (0,)
    assert fc.locate(AlgebraicPoint(Fraction(-1, 4), 1)) == (1,)
    assert fc.locate(AlgebraicPoint(Fraction(1, 4), 1)) == (2,)
    assert fc.locate(AlgebraicPoint(HALF, Fraction(3, 4))) == (2,)  # rho
    # i lies on both geodesics; every face touches it
    assert fc.locate(AlgebraicPoint(0, 1)) == (0, 1, 2)


def test_locate_samples_roundtrip():
    for disc in [d for d in ALL_DISCS if d <= 50]:
        fc = build_arrangement(disc)
        for fid, p in enumerate(fc.samples):
            assert fc.locate(p) == (fid,)


def test_locate_above_cap_clamps_to_cusp_face():
    fc = build_arrangement(5)
    assert fc.locate(AlgebraicPoint(0, 10**8)) == (0,)
    fc4 = build_arrangement(4)
    left = fc4.locate(AlgebraicPoint(Fraction(-1, 4), 10**8))
    right = fc4.locate(AlgebraicPoint(Fraction(1, 4), 10**8))
    assert {left, right} == {(0,), (1,)}


def test_locate_rejects_points_outside_region():
    fc = build_arrangement(5)
    with pytest.raises(OutOfRegion):
        fc.locate(AlgebraicPoint(Fraction(3, 5), 4))
    with pytest.raises(OutOfRegion):
        fc.locate(AlgebraicPoint(0, Fraction(1, 2)))


def test_d5_boundary_segments():
    fc = build_arrangement(5)
    assert [(s.s_lo, s.s_hi, s.face) for s in fc.left_segments] == [
        (Fraction(3, 4), Fraction(5, 4), 1),
        (Fraction(5, 4), None, 0),
    ]
    assert [(s.s_lo, s.s_hi, s.face) for s in fc.right_segments] == [
        (Fraction(3, 4), Fraction(5, 4), 2),
        (Fraction(5, 4), None, 0),
    ]
    assert [(s.x_lo, s.x_hi, s.face) for s in fc.bottom_segments] == [
        (-HALF, Fraction(0), 1),
        (Fraction(0), HALF, 2),
    ]
    assert not fc.even_square


def test_d4_boundary_coincides_with_geodesics():
    fc = build_arrangement(4)
    assert fc.left_segments == () and fc.right_segments == () and fc.bottom_segments == ()
    assert fc.even_square


def test_d8_wall_split_at_triple_point():
    # [1,0,-2] and [1,2,-1] both cross the left wall at s = 7/4
    fc = build_arrangement(8)
    assert [(s.s_lo, s.s_hi) for s in fc.left_segments] == [
        (Fraction(3, 4), Fraction(7, 4)),
        (Fraction(7, 4), None),
    ]
    assert [(s.x_lo, s.x_hi) for s in fc.bottom_segments] == [
        (-HALF, Fraction(0)),
        (Fraction(0), HALF),
    ]


def test_wall_and_bottom_symmetry():
    for disc in ALL_DISCS:
        fc = build_arrangement(disc)
        left, right, bottom = fc.left_segments, fc.right_segments, fc.bottom_segments
        assert [(s.s_lo, s.s_hi) for s in left] == [(s.s_lo, s.s_hi) for s in right]
        mirrored = sorted((-s.x_hi, -s.x_lo) for s in bottom)
        assert mirrored == sorted((s.x_lo, s.x_hi) for s in bottom)


def test_euler_relation():
    for disc in ALL_DISCS:
        fc = build_arrangement(disc)
        v, e = euler_counts(fc)
        assert v - e + fc.face_count() == 1, f"D={disc}"


def test_stack_heights_sorted_and_distinct():
    # within a slab, arcs are totally ordered by height; ties would mean a
    # missed crossing abscissa
    for disc in (5, 8, 9, 12, 16, 17, 20, 24, 100):
        fc = build_arrangement(disc)
        for si, idxs in enumerate(fc.slab_arcs):
            mid = (fc.xs[si] + fc.xs[si + 1]) / 2
            heights = [fc.arcs[k].height_sq(mid) for k in idxs]
            assert heights == sorted(heights)
            assert len(heights) == len(set(heights))


def test_slab_columns_are_the_live_arcs():
    # every slab, the right half too, holds exactly the arcs over its
    # midpoint p/q, bottom to top; built from fc.arcs alone, not by
    # mirroring. The key is Arc.height_sq(p/q) * q^2 * lcm(a), in integers:
    # with Fractions D = 1201 alone takes 10 s
    for disc in [d for d in range(1, 301) if d % 4 in (0, 1)] + [1201]:
        fc = build_arrangement(disc)
        scale = lcm(*(arc.a for arc in fc.arcs))
        for si, idxs in enumerate(fc.slab_arcs):
            mid = (fc.xs[si] + fc.xs[si + 1]) / 2
            p, q = mid.numerator, mid.denominator
            live = sorted(
                (-(arc.a * p * p + arc.b * p * q + arc.c * q * q) * (scale // arc.a), k)
                for k, arc in enumerate(fc.arcs) if arc.lo < mid < arc.hi
            )
            assert list(idxs) == [k for _, k in live], (disc, si)


def test_exceptional_faces_are_real_neighbors():
    # a point on exactly one arc separates exactly the two faces that a
    # small vertical displacement lands in
    for disc in (5, 8, 12, 13, 17):
        fc = build_arrangement(disc)
        for arc in fc.arcs:
            x = (arc.lo + arc.hi * 3) / 4
            s = arc.height_sq(x)
            if s <= 1 - x * x or s >= fc.ycap ** 2:
                continue
            p = AlgebraicPoint(x, s)
            others = sum(
                1
                for q in fc.forms
                if q.a * (x * x + s) + q.b * x + q.c == 0
            )
            if others != 1:
                continue
            loc = fc.locate(p)
            assert len(loc) == 2
            eps = Fraction(1, 2**20)
            (up,) = fc.locate(AlgebraicPoint(x, s + eps))
            (down,) = fc.locate(AlgebraicPoint(x, s - eps))
            assert {up, down} == set(loc)


def _all_pairs_partition(fc):
    """Root of every cell (si, lvl) when every left cell at each slab boundary
    is compared with every right cell on Fraction heights. Off the vertical
    lines, the overlap of left and right cells of positive length must be a
    bijection: the sweep pairs them off in order and never merges faces."""
    parent = {}

    def stack(si, x):
        return [1 - x * x, *(fc.arcs[k].height_sq(x) for k in fc.slab_arcs[si]), fc.ycap ** 2]

    def find(c):
        while parent.setdefault(c, c) != c:
            c = parent[c]
        return c

    vline_x = set(fc.vlines)
    for b in range(1, len(fc.xs) - 1):
        xb = fc.xs[b]
        if xb in vline_x:
            continue
        lvals = stack(b - 1, xb)
        rvals = stack(b, xb)
        lpos = [k for k in range(len(lvals) - 1) if lvals[k] < lvals[k + 1]]
        rpos = [l for l in range(len(rvals) - 1) if rvals[l] < rvals[l + 1]]
        overlap = [
            (k, l)
            for k in lpos
            for l in rpos
            if max(lvals[k], rvals[l]) < min(lvals[k + 1], rvals[l + 1])
        ]
        assert sorted(k for k, _ in overlap) == lpos, (fc.disc, b)
        assert sorted(l for _, l in overlap) == rpos, (fc.disc, b)
        for k, l in overlap:
            parent[find((b - 1, k))] = find((b, l))
    return {
        (si, lvl): find((si, lvl))
        for si, stack in enumerate(fc.slab_arcs)
        for lvl in range(len(stack) + 1)
    }


def test_boundary_merge_matches_all_pairs_reference():
    for fc in (build_arrangement(d) for d in range(1, 121) if d % 4 in (0, 1)):
        ref = _all_pairs_partition(fc)
        pairs = {
            (ref[(si, lvl)], fid)
            for si, row in enumerate(fc.face_of)
            for lvl, fid in enumerate(row)
        }
        # the pairs are a bijection between reference components and face ids
        roots = {r for r, _ in pairs}
        fids = {f for _, f in pairs}
        assert len(pairs) == len(roots) == len(fids) == fc.face_count(), fc.disc


def test_vertical_feet_are_arc_ends():
    # the floor breaks only at arc ends: off x = 0, a vertical line's foot is
    # the end of the mirror of its S-image, an arc of the same D
    lines = 0
    for root in range(1, 101):
        forms = enumerate_forms(root * root)
        ends = {x for q in forms if q.a for x in semicircle_interval(q)}
        for x in (Fraction(-q.c, q.b) for q in forms if q.a == 0):
            if 0 < abs(x) < HALF:
                lines += 1
                assert x in ends, (root * root, x)
    assert lines == 4900


def test_form_without_arc_raises(monkeypatch):
    monkeypatch.setattr(arrangement, "arc_ends", lambda q: None)
    with pytest.raises(RuntimeError, match="has no arc in the strip"):
        build_arrangement(5)


def _fraction_xs(fc) -> list[Fraction]:
    """Critical abscissae from the arcs and vertical lines, with every
    crossing built and range-checked as a Fraction."""
    crit = {-HALF, HALF, Fraction(0), *fc.vlines}
    for arc in fc.arcs:
        crit |= {arc.lo, arc.hi}
        apex = Fraction(-arc.b, 2 * arc.a)
        if arc.lo < apex < arc.hi:
            crit.add(apex)
    for i, ai in enumerate(fc.arcs):
        for aj in fc.arcs[i + 1:]:
            det = ai.a * aj.b - aj.a * ai.b
            if det:
                x = Fraction(aj.a * ai.c - ai.a * aj.c, det)
                if ai.lo <= x <= ai.hi and aj.lo <= x <= aj.hi:
                    crit.add(x)
    return sorted(crit)


def test_crossings_match_fraction_reference(monkeypatch):
    # only xs is compared, so the sweep over the slabs is skipped; the large
    # D have the largest denominators and abscissa keys
    monkeypatch.setattr(arrangement.FaceComplex, "_sweep", lambda self, events: None)
    for disc in [d for d in range(1, 401) if d % 4 in (0, 1)] + [1201, 2001, 2500]:
        fc = build_arrangement(disc)
        assert fc.xs == _fraction_xs(fc), disc


# arrangement_digest(200), taken from the cell-by-cell sweep before the
# sweep moved to runs: face ids, samples and boundary segments are pinned
ARRANGEMENT_200_SHA256 = "2b8f10c4d3c131e58076c1253d1ce4093d6a7115594da8015089bb1d09251cae"


def test_arrangement_digest_pinned():
    assert arrangement_digest(200) == ARRANGEMENT_200_SHA256


# arrangement_digest(discs=LARGE_DISCS), taken before the abscissae were keyed
# by integers: where denominators and keys are largest
LARGE_DISCS = (1201, 2001, 2500, 3600)
ARRANGEMENT_LARGE_SHA256 = "8cc18de24915ac4a37c0c095d39366b654b4bbccfce9e9a6ca6bf4b1624f2b14"


def test_arrangement_digest_pinned_large():
    assert arrangement_digest(discs=LARGE_DISCS) == ARRANGEMENT_LARGE_SHA256


# the top of the D <= 10,000 sweep, where the integer abscissa keys are
# largest: the non-square 9997 in full; for the odd square 9801 and the even
# square 10000 (laying out face_of and samples for these two takes about
# 20 s), xs, the face counts and the boundary segments
ARRANGEMENT_9997_SHA256 = "5a3e92182413d14844c65acd809b94ea4b3b7facb290aeb5b84c6144f22e5e5e"
SQUARES_TOP_SHA256 = {
    9801: "076d1130485ca9143b957b1d3505dc072ef1875bbdf674e42ac18199eeeb7f44",
    10000: "3179ac72c0a24fbb11de32e849e38504395fb955989be230dfa013b85bef68c3",
}


def test_arrangement_digest_pinned_top():
    assert arrangement_digest(discs=[9997]) == ARRANGEMENT_9997_SHA256
    for disc, digest in SQUARES_TOP_SHA256.items():
        fc = build_arrangement(disc)
        pinned = repr((
            disc,
            fc.face_count(),
            sorted(fc.cusp_faces),
            [str(x) for x in fc.xs],
            [(str(s.s_lo), str(s.s_hi), s.face) for s in fc.left_segments],
            [(str(s.x_lo), str(s.x_hi), s.face) for s in fc.bottom_segments],
        ))
        assert hashlib.sha256(pinned.encode()).hexdigest() == digest, disc
