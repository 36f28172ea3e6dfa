"""Shared helpers for the test suite.

The face-count oracle here is intentionally independent of the library's
sweep-line construction: it samples a rational grid and joins neighboring
sample points only when the straight segment between them provably misses
every geodesic (exact quadratic sign analysis). A count is accepted only
when two doubling resolutions agree.

The Euler oracle counts the vertices and edges of the cell structure from
the geodesics and the cap alone, so V - E + F = 1 checks the library's face
count against numbers the library never computes.

The dimension oracle writes every gluing relation as linear rows over all
face coefficients at once and takes the nullity by rank modulo primes: no
orbits, transport words, cycles or fixed spaces.

The quotient oracle counts the orbits with Euler's formula on the sphere
X(1) from the forms and their clipped intervals alone: no face, gluing edge
or orbit of the library.

The deficit law gives the dimension from the orbit count and three flags read
off the forms (does the cusp, i or rho lie on no geodesic), so it shares no
input with the cycles and fixed spaces the library solves.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import comb, isqrt
from typing import Iterable

from mlp import (
    IDENTITY,
    S,
    T,
    AlgebraicPoint,
    Mat2,
    Orbit,
    build_arrangement,
    enumerate_forms,
    eval_form,
)
from mlp.geometry import is_square, semicircle_interval

HALF = Fraction(1, 2)


def random_word(rng: random.Random, max_len: int = 10) -> Mat2:
    """Random element of the modular group as a short word in T, T^-1, S."""
    g = Mat2(1, 0, 0, 1)
    for _ in range(rng.randint(0, max_len)):
        g = g @ rng.choice((T, T.inv(), S))
    return g


def coeffs_canonical(vecs: Iterable[Iterable]) -> bool:
    """The library's coefficient rule: every coefficient of the vectors is an
    int when it is an integer and otherwise a Fraction with denominator > 1."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for vec in vecs
        for c in vec
    )


def _segment_hits_form(form, p0, p1) -> bool:
    # form value along the straight segment is a quadratic q(t), t in [0,1];
    # endpoints are assumed off the geodesic, so q(0), q(1) != 0
    a, b, c = form.a, form.b, form.c
    x0, s0 = p0
    dx, ds = p1[0] - p0[0], p1[1] - p0[1]
    A = a * dx * dx
    B = 2 * a * x0 * dx + a * ds + b * dx
    C = a * (x0 * x0 + s0) + b * x0 + c
    q0, q1 = C, A + B + C
    assert q0 != 0 and q1 != 0
    if (q0 > 0) != (q1 > 0):
        return True
    if A == 0:
        return False
    tstar = Fraction(-B, 2 * A)
    if not (0 < tstar < 1):
        return False
    qstar = C - Fraction(B * B, 4 * A)
    return qstar <= 0 if q0 > 0 else qstar >= 0


def grid_face_count(disc: int, n: int) -> int:
    """Connected components of an exact sample grid of the capped region."""
    forms = enumerate_forms(disc)
    cap_sq = Fraction((isqrt(disc) // 2 + 1) ** 2)
    xs = [Fraction(i, 2 * n) for i in range(-n + 1, n)]
    smin = Fraction(3, 4)
    svals = [smin + Fraction(j, n) * (cap_sq - smin) for j in range(n + 1)]

    nodes: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for i, x in enumerate(xs):
        for j, s in enumerate(svals):
            if not (1 - x * x < s < cap_sq):
                continue
            if any(f.a * (x * x + s) + f.b * x + f.c == 0 for f in forms):
                continue
            nodes[(i, j)] = (x, s)

    parent = {k: k for k in nodes}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for (i, j), p in nodes.items():
        for nb in ((i + 1, j), (i, j + 1), (i + 1, j + 1), (i + 1, j - 1)):
            if nb not in nodes:
                continue
            if any(_segment_hits_form(f, p, nodes[nb]) for f in forms):
                continue
            ri, rj = find((i, j)), find(nb)
            if ri != rj:
                parent[ri] = rj

    return len({find(k) for k in nodes})


def stable_grid_face_count(disc: int) -> int:
    """Grid count accepted only once two doubling resolutions agree."""
    for n in (24, 48):
        c1 = grid_face_count(disc, n)
        c2 = grid_face_count(disc, 2 * n)
        if c1 == c2:
            return c1
    raise AssertionError(f"grid face count unstable for D={disc}")


def exceptional_points(fc, want: int) -> list[AlgebraicPoint]:
    """Deterministic interior points lying on exactly one geodesic each."""

    def on_single_form(x: Fraction, s: Fraction) -> bool:
        hits = sum(1 for f in fc.forms if f.a * (x * x + s) + f.b * x + f.c == 0)
        return hits == 1

    rs = [Fraction(num, den) for den in (7, 11, 13, 17, 19, 23) for num in range(1, den)]
    pts: list[AlgebraicPoint] = []
    for r in rs:
        for arc in fc.arcs:
            x = arc.lo + (arc.hi - arc.lo) * r
            s = arc.height_sq(x)
            if 1 - x * x < s < fc.ycap ** 2 and on_single_form(x, s):
                pts.append(AlgebraicPoint(x, s))
                if len(pts) == want:
                    return pts
        for x in fc.vlines:
            smin = 1 - x * x
            s = smin + (fc.ycap ** 2 - smin) * r
            if on_single_form(x, s):
                pts.append(AlgebraicPoint(x, s))
                if len(pts) == want:
                    return pts
    raise AssertionError(f"only found {len(pts)} exceptional points for D={fc.disc}")


def euler_counts(fc) -> tuple[int, int]:
    """(V, E) of the capped region cut by fc.arcs and fc.vlines.

    Vertices are points (x, y^2): the four corners, arc ends, arc crossings,
    vertical-line feet and tops, and arc/vertical-line meets. Edges are the
    pieces of each arc, vertical line, wall, the cap and the unit circle
    between consecutive vertices on it.
    """

    def height_sq(arc, x):
        # a(x^2 + y^2) + bx + c = 0 solved for y^2
        return -(arc.a * x * x + arc.b * x + arc.c) / Fraction(arc.a)

    cap = fc.ycap ** 2
    verts = {(-HALF, Fraction(3, 4)), (HALF, Fraction(3, 4)), (-HALF, cap), (HALF, cap)}
    arc_xs = [{arc.lo, arc.hi} for arc in fc.arcs]
    vline_ss = [{1 - x * x, cap} for x in fc.vlines]
    for arc in fc.arcs:
        verts.update((e, height_sq(arc, e)) for e in (arc.lo, arc.hi))
    for x in fc.vlines:
        verts.update({(x, 1 - x * x), (x, cap)})
    for i, ai in enumerate(fc.arcs):
        for j in range(i + 1, len(fc.arcs)):
            aj = fc.arcs[j]
            # subtracting the two circle equations leaves a linear one in x
            det = ai.a * aj.b - aj.a * ai.b
            if det == 0:
                continue
            x = Fraction(aj.a * ai.c - ai.a * aj.c, det)
            if ai.lo <= x <= ai.hi and aj.lo <= x <= aj.hi:
                arc_xs[i].add(x)
                arc_xs[j].add(x)
                verts.add((x, height_sq(ai, x)))
    for i, arc in enumerate(fc.arcs):
        for j, x in enumerate(fc.vlines):
            if arc.lo <= x <= arc.hi:
                arc_xs[i].add(x)
                vline_ss[j].add(height_sq(arc, x))
                verts.add((x, height_sq(arc, x)))

    edges = sum(len(pts) - 1 for pts in arc_xs) + sum(len(ss) - 1 for ss in vline_ss)
    for left in (True, False):
        wall = -HALF if left else HALF
        ss = {Fraction(3, 4), cap}
        ss.update(height_sq(a, wall) for a in fc.arcs if (a.lo if left else a.hi) == wall)
        edges += len(ss) - 1
    cap_pts = {-HALF, HALF} | set(fc.vlines)
    edges += len(cap_pts) - 1
    touch = {e for arc in fc.arcs for e in (arc.lo, arc.hi) if height_sq(arc, e) == 1 - e * e}
    edges += len(cap_pts | touch) - 1  # unit circle
    return len(verts), edges


def quotient_orbit_count(disc: int) -> tuple[int, int]:
    """(F, C) for the graph G that the geodesics of disc draw on X(1): its
    faces F, one per orbit, and its connected components C, from Euler's
    formula V - E + F = 1 + C.

    Gluing the walls by T and the floor by S and adding the cusp turns the
    strip into the sphere X(1). G's pieces are the clipped arcs, each
    vertical line (foot to cusp), and the wall (rho to cusp) and the floor
    (rho to i) when they lie on geodesics. Its vertices are the crossings
    inside the strip, keyed (x, y^2), and the boundary points up to gluing:
    a wall point by y^2, a floor point by |x|, rho and the cusp. A piece with
    n vertices inside it is n + 1 edges.
    """
    rho, cusp = ("rho",), ("cusp",)

    def vertex(x, s):
        if abs(x) == HALF:
            return rho if s == Fraction(3, 4) else ("wall", s)
        return ("floor", abs(x)) if x * x + s == 1 else (x, s)

    def height_sq(q, x):
        return -(q.a * x * x + q.b * x + q.c) / Fraction(q.a)

    arcs, vlines = [], []
    wall = floor = False
    for q in enumerate_forms(disc):
        if q.a == 0:
            x = Fraction(-q.c, q.b)
            if abs(x) == HALF:
                wall = True
            else:
                vlines.append(x)
        elif q.b == 0 and q.c == -q.a:
            floor = True
        else:
            arcs.append((q, *semicircle_interval(q)))

    # along an arc |tau|^2 - 1 = -(bx + a + c)/a is linear in x, so only its
    # ends lie on the unit circle: two arcs that meet inside one meet inside
    # both, off the boundary
    arc_xs = [set() for _ in arcs]
    vline_ss = [set() for _ in vlines]
    for i, (qi, lo_i, hi_i) in enumerate(arcs):
        for j in range(i + 1, len(arcs)):
            qj, lo_j, hi_j = arcs[j]
            det = qi.a * qj.b - qj.a * qi.b
            if det:
                x = Fraction(qj.a * qi.c - qi.a * qj.c, det)
                if lo_i < x < hi_i and lo_j < x < hi_j:
                    arc_xs[i].add(x)
                    arc_xs[j].add(x)
        for j, x in enumerate(vlines):
            if lo_i < x < hi_i:
                arc_xs[i].add(x)
                vline_ss[j].add(height_sq(qi, x))

    # each piece lists its two ends, then the vertices inside it
    pieces = [
        [vertex(x, height_sq(q, x)) for x in (lo, hi, *xs)]
        for (q, lo, hi), xs in zip(arcs, arc_xs)
    ]
    pieces += [[vertex(x, 1 - x * x), cusp, *((x, s) for s in ss)]
               for x, ss in zip(vlines, vline_ss)]
    ends = {v for piece in pieces for v in piece[:2]}
    if wall:
        pieces.append([rho, cusp, *(v for v in ends if v[0] == "wall")])
    if floor:
        pieces.append([rho, ("floor", 0), *(v for v in ends if v[0] == "floor" and v[1])])

    # vertices numbered as first met, for a union-find over the pieces
    index: dict = {}
    pieces = [[index.setdefault(v, len(index)) for v in piece] for piece in pieces]
    parent = list(range(len(index)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for first, *rest in pieces:
        for v in rest:
            parent[find(v)] = find(first)
    components = sum(1 for v, p in enumerate(parent) if p == v)
    edges = sum(len(piece) - 1 for piece in pieces)
    return 1 + components + edges - len(index), components


RANK_PRIMES = (2**61 - 1, 2**31 - 1)


def _slash_columns(g, w: int) -> list[list[int]]:
    """cols[j][i] is the coefficient of X^i in (aX+b)^j (cX+d)^(w-j), by the
    binomial theorem, so P -> (cX+d)^w P((aX+b)/(cX+d)) sends coefficient j
    of P to column j."""
    a, b, c, d = g.a, g.b, g.c, g.d
    return [
        [
            sum(
                comb(j, s) * a**s * b ** (j - s)
                * comb(w - j, i - s) * c ** (i - s) * d ** (w - j - i + s)
                for s in range(max(0, i - w + j), min(j, i) + 1)
            )
            for i in range(w + 1)
        ]
        for j in range(w + 1)
    ]


def _rank_mod(rows: list[dict[int, int]], p: int) -> int:
    """Rank mod p of sparse integer rows {column: value}."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {col: v % p for col, v in row.items() if v % p}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[col]
            for c, v in piv.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    del row[c]
    return len(pivots)


def eager_orbits(graph) -> tuple[Orbit, ...]:
    """orbits_and_cycles built as one tuple, with an Orbit and a word dict
    for every face on no gluing edge too. The edges are taken to obey the
    mirror law: each runs from a root to itself or to its one twin."""
    roots: dict[int, Orbit] = {}
    root_of: dict[int, int] = {}
    for e in graph.edges:
        root_of.setdefault(e.src, e.src)
        words, cycles = roots.setdefault(e.src, Orbit({e.src: IDENTITY}, ()))
        if e.dst in words:
            roots[e.src] = Orbit(words, cycles + (words[e.dst] @ e.gen,))
        else:
            words[e.dst] = e.gen.inv()
            root_of[e.dst] = e.src
    return tuple(
        roots.get(f) or Orbit({f: IDENTITY}, ())
        for f in range(graph.n_faces)
        if root_of.get(f, f) == f
    )


def modular_rank_dim(graph, k: int) -> int:
    """Dimension of the weight-k space of a gluing graph.

    Each edge (src, dst, gen) gives the w+1 rows P_src - M_gen P_dst = 0 over
    all (w+1)*rF coefficients, and the dimension is their nullity. A rank
    mod p never exceeds the rank over Q, so the larger of two primes' ranks
    is taken.
    """
    n = -k + 1
    rows = []
    for e in graph.edges:
        cols = _slash_columns(e.gen, n - 1)
        for i in range(n):
            row = {e.src * n + i: 1}
            for j in range(n):
                key = e.dst * n + j
                row[key] = row.get(key, 0) - cols[j][i]
            rows.append(row)
    return n * graph.n_faces - max(_rank_mod(rows, p) for p in RANK_PRIMES)


I_POINT = AlgebraicPoint(Fraction(0), Fraction(1))
RHO_POINT = AlgebraicPoint(-HALF, Fraction(3, 4))


def deficit_law_dim(fc, orbit_count: int, k: int) -> int:
    """Weight-k dimension by the deficit law

        dim = (w+1)*orbits - w*c_cusp - (w - 2*(w//4))*c_i - (w - 2*(w//6))*c_rho

    with w = -k, c_cusp = 1 iff D is not a square, and c_i (c_rho) = 1 iff no
    form of D vanishes at i (at rho). A cycle at the cusp, i or rho fixes 1,
    2*(w//4)+1 or 2*(w//6)+1 polynomials of degree <= w, in the shape of the
    dimension formula for modular forms. The law is observed, not proven: a
    face holding two of the three points would break it.
    """
    w = -k
    c_cusp = not is_square(fc.disc)
    c_i = all(eval_form(q, I_POINT) for q in fc.forms)
    c_rho = all(eval_form(q, RHO_POINT) for q in fc.forms)
    return (
        (w + 1) * orbit_count
        - w * c_cusp
        - (w - 2 * (w // 4)) * c_i
        - (w - 2 * (w // 6)) * c_rho
    )


def arrangement_digest(max_disc: int = 0, discs: Iterable[int] = ()) -> str:
    """sha256 over every valid D <= max_disc, in order, then over discs, of
    the face of every cell, each face's sample and cusp flag, and the
    boundary segments."""
    h = hashlib.sha256()
    for d in [*(d for d in range(1, max_disc + 1) if d % 4 in (0, 1)), *discs]:
        fc = build_arrangement(d)
        h.update(repr((
            d,
            [list(r) for r in fc.face_of],
            [(i, str(p.x), str(p.s), i in fc.cusp_faces) for i, p in enumerate(fc.samples)],
            [(str(s.s_lo), str(s.s_hi), s.face) for s in fc.left_segments],
            [(str(s.s_lo), str(s.s_hi), s.face) for s in fc.right_segments],
            [(str(s.x_lo), str(s.x_hi), s.face) for s in fc.bottom_segments],
            # whether the left wall, the right wall and the floor lie on
            # geodesics: all three exactly when D is an even square
            fc.even_square,
            fc.even_square,
            fc.even_square,
        )).encode())
    return h.hexdigest()
