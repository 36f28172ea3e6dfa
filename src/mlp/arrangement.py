"""Decomposition of the capped fundamental domain by geodesics of fixed discriminant.

The domain is the standard fundamental strip |x| <= 1/2, |tau| >= 1, capped
above at y = ycap, the least integer strictly above every semicircle.
Heights are kept as y^2, so every stored value is an exact Fraction.

Faces are connected components of the domain minus the listed geodesics.
They are found by a sweep: the x-axis is cut at every critical abscissa
(arc endpoints, apexes, crossings, vertical lines); inside each open slab the
surviving arcs are totally ordered by height, a column from the unit circle
(the floor) to the cap, and the cell between two neighbours of the column is
one piece of a face. The sweep keeps one column and changes it only where an
event does (Bentley-Ottmann): arcs that end at a boundary end on the unit
circle, so they leave from the bottom; arcs that start there enter at the
bottom; arcs through one point cross there, so their adjacent group
reverses. A run is a cell whose two neighbours stay the same across
consecutive slabs, and only the runs a change ends and opens are compared.
At a boundary the windows whose cells change hold the same heights on both
sides: the arcs that end and the arcs that start there sit at the floor's
height, a flipped group at one height. So their cells of positive length
pair off in order, one to one, and each run a change opens continues the
face of its partner or, if it has none, starts a face. Faces never merge:
each is a chain of runs whose first is its least (first slab, -level) run.
Across a vertical geodesic no run continues.

The sweep covers only x <= 0. z -> -conj(z) maps the geodesic of [a, b, c]
to that of [a, -b, c], of the same D, so the strip right of 0 is the mirror
of the strip left of it: slab n - 1 - si holds the arcs of slab si mirrored,
at the same levels. A face whose cell in the last left slab has positive
length at x = 0 crosses it and is its own mirror, unless x = 0 lies on a
vertical geodesic (every square D). Every other face left of 0 has a twin
right of it, and every face right of 0 is one of these two. Face ids are the
(first slab, -level) order of first runs over the whole strip. The faces
left of 0 come first, as the sweep opens them; a twin's first run is the
mirror of its face's last run, so the twins follow, ordered by that run's
(-last slab, -level). The right wall, the floor right of 0, the samples of
the twins and the right half of slab_arcs and face_of are mirrored from the
left half.

The sweep reads the boundary where it meets it: the left wall from the first
column, and the floor's face at x = -1/2 and wherever an arc starts or ends,
the only places it can change; its last segment ends at x = 0.

Heights are compared as integers. At x = p/q the arc of [a, b, c] (a > 0)
has y^2 = -(a p^2 + b p q + c q^2) / (a q^2), so scaling every height at x by
q^2 * L, with L the lcm of the leading coefficients of all arcs, gives the
integers -(a p^2 + b p q + c q^2) * (L / a) for arcs, (q^2 - p^2) * L for the
unit circle and ycap^2 * q^2 * L for the cap. One L serves every column, so
values of different columns at the same x compare directly.

Abscissae are integer pairs and keyed by integers. Every critical abscissa
is p/q with integers q > 0, not necessarily in lowest terms: the walls and 0,
arc ends -(a+c)/b, apexes -b/2a, crossings num/det and vertical lines -c/b.
With qmax the largest q, two distinct ones differ by at least 1/qmax^2, so
for 2^K > qmax^2 the key floor(p * 2^K / q) separates them and keeps their
order, and equal values share one key whatever their p and q. The sweep
sorts, deduplicates and indexes the abscissae up to 0 by that key alone and
reads them as pairs; heights are compared only within one abscissa, so an
unreduced p/q is as good as its lowest terms. The arcs and xs as Fractions
are views built on first read. The boundary builds one Fraction per distinct
wall height and per floor break, and negates each floor break once for the
floor right of 0.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from typing import NamedTuple, Optional, Sequence

from .geometry import (
    HALF,
    AlgebraicPoint,
    Pair,
    QuadForm,
    arc_ends,
    enumerate_forms,
    is_even_square,
)

# column entries that are not arcs, as indices into FaceComplex._coeffs
FLOOR, CAP = -2, -1


class OutOfRegion(ValueError):
    """The point lies outside the fundamental strip (walls or unit circle)."""


class Arc(NamedTuple):
    """A semicircle geodesic clipped to the domain: x in [lo, hi]."""

    a: int
    b: int
    c: int
    lo: Fraction
    hi: Fraction

    def height_sq(self, x: Fraction) -> Fraction:
        """y^2 on the circle at abscissa x: -(bx+c)/a - x^2."""
        return Fraction(-(self.b * x + self.c), self.a) - x * x


class WallSegment(NamedTuple):
    """Maximal face-boundary interval on a wall; s_hi None means "up to the cap"."""

    s_lo: Fraction
    s_hi: Optional[Fraction]
    face: int


class BottomSegment(NamedTuple):
    """Maximal face-boundary interval on the unit circle, in x coordinates."""

    x_lo: Fraction
    x_hi: Fraction
    face: int


class FaceComplex:
    """Faces of the capped domain cut by the geodesics of one discriminant."""

    def __init__(self, disc: int):
        self.disc = disc
        self.forms: tuple[QuadForm, ...] = tuple(enumerate_forms(disc))
        self.even_square = is_even_square(disc)
        # the least integer strictly above every semicircle
        self.ycap = isqrt(disc) // 2 + 1

        # the floor [a, 0, -a] and the walls x = +-1/2 are geodesics exactly
        # when D is an even square; they bound the domain and cut nothing.
        # An arc is (a, b, c, lo.p, lo.q, hi.p, hi.q), its ends as integers
        arcs: list[tuple[int, ...]] = []
        vlines: list[Fraction] = []
        for q in self.forms:
            a, b, c = q
            if a:
                if b == 0 and c == -a:
                    continue
                ends = arc_ends(q)
                if ends is None:
                    raise RuntimeError(f"form {q.as_list()} has no arc in the strip")
                arcs.append((a, b, c, *ends[0], *ends[1]))
            elif 2 * abs(c) != b:
                vlines.append(Fraction(-c, b))
        self._arcs = arcs
        # the vertical geodesics inside the strip, foot to cap, by abscissa
        self.vlines = tuple(vlines)

        # tuples on the sweep path are built from lists: one built from a
        # generator is allocated at a guessed size and shrunk, which moves it
        # between the interpreter's per-size free lists until a full
        # collection empties them, and a process's peak memory grows
        self._lcm_a = lcm(*[arc[0] for arc in arcs])
        self._coeffs = [(a, b, c, self._lcm_a // a) for a, b, c, *_ in arcs]
        # FLOOR and CAP, the unit circle and y^2 = ycap^2, in the same terms
        self._coeffs += [(1, 0, -1, self._lcm_a), (0, 0, -self.ycap ** 2, self._lcm_a)]
        self._sweep(self._events())

    # -- construction -------------------------------------------------

    def _events(self) -> tuple[dict[int, list[int]], dict[int, int], dict[int, set[int]], set]:
        """Set the sorted critical abscissae up to x = 0, the left half of
        xs, and the position of x = 0 among them; return what happens at
        each: the arcs that start there, how many end there, the arcs that
        cross there while running through it, and the positions of the
        vertical lines. Only x <= 0 is searched: z -> -conj(z) maps the
        geodesics of D onto themselves, so xs right of 0 is xs left of it
        negated."""
        # the arcs that reach x < 0: the only ones that start, end or cross there
        ends = [(k, *arc) for k, arc in enumerate(self._arcs) if arc[3] < 0]
        # two arcs cross at x = num/det; with det > 0, lo < x < hi is
        # lo.n * det < num * lo.d and num * hi.d < hi.n * det
        crossings = []
        for i, (k1, a1, b1, c1, ln1, ld1, hn1, hd1) in enumerate(ends):
            for k2, a2, b2, c2, ln2, ld2, hn2, hd2 in ends[i + 1:]:
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue  # concentric circles never meet
                num = a2 * c1 - a1 * c2
                if det < 0:
                    det, num = -det, -num
                # a crossing at an arc's end is already critical as that end
                if (num < 0 and ln1 * det < num * ld1 and num * hd1 < hn1 * det
                        and ln2 * det < num * ld2 and num * hd2 < hn2 * det):
                    crossings.append((num, det, k1, k2))
        vxs = [(x.numerator, x.denominator) for x in self.vlines if x <= 0]
        # the other abscissae at x <= 0: the left wall, 0, arc ends and apexes
        crit = [(-1, 2), (0, 1), *vxs]
        for _, a, b, _, ln, ld, hn, hd in ends:
            crit.append((ln, ld))
            if hn <= 0:
                crit.append((hn, hd))
            if b > 0 and ln * 2 * a < -b * ld and -b * hd < hn * 2 * a:  # lo < apex < hi
                crit.append((-b, 2 * a))
        qmax = max(*(q for _, q in crit), *(det for _, det, _, _ in crossings))
        # every abscissa is p/q with 0 < q <= qmax: its key is
        # (p << shift) // q, exact and in order (see the module docstring)
        shift = 2 * qmax.bit_length()
        keyed = {(p << shift) // q: (p, q) for p, q in crit}
        for num, det, _, _ in crossings:
            keyed.setdefault((num << shift) // det, (num, det))

        keys = sorted(keyed)
        self._left_pq = [keyed[key] for key in keys]
        pos = {key: i for i, key in enumerate(keys)}
        self._origin = pos[0]
        starts: dict[int, list[int]] = {}
        stops: dict[int, int] = {}
        for k, _, _, _, ln, ld, hn, hd in ends:
            starts.setdefault(pos[(ln << shift) // ld], []).append(k)
            if hn <= 0:
                hi = pos[(hn << shift) // hd]
                stops[hi] = stops.get(hi, 0) + 1
        through: dict[int, set[int]] = {}
        for num, det, i, j in crossings:
            through.setdefault(pos[(num << shift) // det], set()).update((i, j))
        return starts, stops, through, {pos[(p << shift) // q] for p, q in vxs}

    def _heights(self, entries: Sequence[int], p: int, q: int) -> list[int]:
        """y^2 * q^2 * L of column entries (arcs, FLOOR, CAP) at x = p/q."""
        pp, pq, qq = p * p, p * q, q * q
        coeffs = self._coeffs
        return [-(a * pp + b * pq + c * qq) * s for a, b, c, s in (coeffs[k] for k in entries)]

    def _by_height(self, idxs: Sequence[int], x0: Pair, x1: Pair) -> list[int]:
        """Arcs idxs bottom to top between consecutive abscissae x0 and x1,
        where none meet: by height at their midpoint, an unreduced p/q."""
        (p0, q0), (p1, q1) = x0, x1
        return [k for _, k in sorted(zip(self._heights(idxs, p0 * q1 + p1 * q0, 2 * q0 * q1), idxs))]

    def _sweep(self, events) -> None:
        starts, stops, through, vertical = events
        xs = self._left_pq
        origin = self._origin
        heights = self._heights
        # a run is (first slab, level there + base, entry below, entry above);
        # last[r] is its last slab, face[r] its face; first_run[f] is the
        # run that opened face f
        runs: list[tuple[int, int, int, int]] = []
        last: list[int] = []
        face: list[int] = []
        first_run: list[int] = []

        def open_runs(lo: int, hi: int, si: int, cont: Sequence[Optional[int]] = ()) -> list[int]:
            """Runs for cells lo..hi of the column in slab si, numbered
            cap-down so that run order is (first slab, -level); returned
            bottom-up. cont holds, per cell bottom-up, the face it continues,
            or None for a new face, numbered in run order."""
            for lvl in range(hi, lo - 1, -1):
                f = cont[lvl - lo] if cont else None
                if f is None:
                    f = len(first_run)
                    first_run.append(len(runs))
                face.append(f)
                runs.append((si, lvl + base, col[lvl], col[lvl + 1]))
            last.extend([origin - 1] * (hi - lo + 1))
            return list(range(len(runs) - 1, len(runs) - 2 - hi + lo, -1))

        # col is the column bottom to top, FLOOR to CAP; arc k is col[where[k] - base],
        # so dropping or inserting at the bottom moves base, not every arc
        col = [FLOOR, *self._by_height(starts.get(0, ()), xs[0], xs[1]), CAP]
        where = [0] * len(self._arcs)
        base = 0
        for i in range(1, len(col) - 1):
            where[col[i]] = i
        cells = open_runs(0, len(col) - 2, 0)  # cells[lvl]: run of the cell above col[lvl]
        # the left wall, read from the first column at x = -1/2: one segment
        # per cell of positive length, the top one up to the cap. Consecutive
        # segments share an end, so each distinct height is one Fraction
        vals = heights(col, -1, 2)
        scale = 4 * self._lcm_a
        wall = []
        s_lo = Fraction(vals[0], scale)
        for k in range(len(vals) - 1):
            if vals[k] < vals[k + 1]:
                s_hi = None if k == len(vals) - 2 else Fraction(vals[k + 1], scale)
                wall.append(WallSegment(s_lo, s_hi, face[cells[k]]))
                s_lo = s_hi
        # the floor, as (position in xs, face) wherever its cell starts. An arc
        # ends on a wall or on the unit circle, so arcs leave and join the
        # floor only at arc ends. A vertical line x = x0 cuts it too, but at
        # x = 0 or at an arc end: for 0 < |x0| < 1/2, S maps the line to a
        # geodesic of the same D that leaves the unit circle at -x0 for a wall,
        # and its mirror under z -> -conj(z) is an arc ending at x0
        floor = [(0, face[cells[0]])]
        self._base, self._depth = [base], [len(cells)]

        for b in range(1, origin):
            e, new, crossing = stops.get(b, 0), starts.get(b, ()), through.get(b, ())
            if e or new or crossing or b in vertical:
                xb = xs[b]
                p, q = xb
                # adjacent arcs through one point, as index spans after the drop
                flips = []
                if crossing:
                    at = sorted(where[k] - base for k in crossing)
                    hs = heights([col[i] for i in at], p, q)
                    g = 0
                    for t in range(1, len(at) + 1):
                        if t == len(at) or at[t] != at[t - 1] + 1 or hs[t] != hs[t - 1]:
                            if t - g > 1:
                                flips.append((at[g] - e, at[t - 1] - e))
                            g = t
                # the cells whose neighbours change, as spans after the drop;
                # one that reaches cell 0 also holds the e ending and s new arcs
                wins = [[0, 0]] if e or new else []
                for lo, hi in flips:
                    if wins and lo - 1 <= wins[-1][1]:
                        wins[-1][1] = hi
                    else:
                        wins.append([lo - 1, hi])

                if e:
                    del col[1:e + 1]
                    base += e
                for lo, hi in flips:
                    col[lo:hi + 1] = col[lo:hi + 1][::-1]
                    for i in range(lo, hi + 1):
                        where[col[i]] = i + base
                if new:
                    new = self._by_height(new, xb, xs[b + 1])
                    col[1:1] = new
                    base -= len(new)
                    for i, k in enumerate(new, 1):
                        where[k] = i + base
                s = len(new)

                if b in vertical:
                    # no run crosses a vertical geodesic
                    for r in cells:
                        last[r] = b - 1
                    cells = open_runs(0, len(col) - 2, b)
                else:
                    # both sides of a window hold the same heights at xb, so
                    # right cell i of positive length continues left cell
                    # i + off: off = e - s in the bottom window, past the
                    # ended and new arcs at the floor. Top window first: only
                    # the bottom one changes length
                    for c0, c1 in reversed(wins):
                        lo_l, lo_r, off = (c0 + e, c0 + s, 0) if c0 else (0, 0, e - s)
                        ended = cells[lo_l:c1 + e + 1]
                        vals = heights(col[lo_r:c1 + s + 2], p, q)
                        cont = [face[ended[i + off]] if vals[i] < vals[i + 1] else None
                                for i in range(len(vals) - 1)]
                        cells[lo_l:c1 + e + 1] = open_runs(lo_r, c1 + s, b, cont)
                        for r in ended:
                            last[r] = b - 1
                if e or new:
                    floor.append((b, face[cells[0]]))
            self._base.append(base)
            self._depth.append(len(cells))

        # a face's id is its number as its first run opened, so ids follow
        # the scan "slabs left to right, each column cap-down": for every
        # discriminant the face at infinity of the leftmost slab gets id 0
        self._face, self._first_run = face, first_run
        self._runs, self._last = runs, last
        # a face whose cell in the last column has positive length at x = 0
        # crosses it and is its own mirror, unless a vertical geodesic lies
        # on x = 0. Every other face has a twin right of 0, which opens as
        # the mirror of its last run: twins are numbered after the faces
        # left of 0, in the scan order of those runs mirrored, that is by
        # (-last slab, -level). At one slab, level + base orders as the level
        own = set()
        if origin not in vertical:
            vals = heights(col, 0, 1)
            own = {face[r] for lvl, r in enumerate(cells) if vals[lvl] < vals[lvl + 1]}
        last_run = [0] * len(first_run)
        for r, f in enumerate(face):
            last_run[f] = r
        self._twin_runs = sorted(
            (last_run[f] for f in range(len(first_run)) if f not in own),
            key=lambda r: (-last[r], -runs[r][1]))
        twin = list(range(len(first_run)))
        for i, r in enumerate(self._twin_runs, len(first_run)):
            twin[face[r]] = i
        self._twin = twin
        # the faces with a run under the cap: cusp membership without samples
        cusp = {f for f, run in zip(face, runs) if run[3] == CAP}
        self.cusp_faces = frozenset(cusp | {twin[f] for f in cusp})
        if self.even_square:
            # the walls and the floor lie on geodesics: no face borders them
            self.left_segments = self.right_segments = self.bottom_segments = ()
            return
        # the right wall and the floor right of 0 are the mirrors of the left
        # wall and the floor left of it, with each face mapped to its twin.
        # Each floor break is one Fraction, negated once for the mirror
        self.left_segments = tuple(wall)
        self.right_segments = tuple([WallSegment(w.s_lo, w.s_hi, twin[w.face]) for w in wall])
        at = [Fraction(*xs[b]) for b, _ in floor] + [Fraction(0)]
        neg = [-x for x in at]
        faces = [f for _, f in floor]
        self.bottom_segments = tuple(
            [BottomSegment(at[i], at[i + 1], f) for i, f in enumerate(faces)]
            + [BottomSegment(neg[i + 1], neg[i], twin[faces[i]]) for i in reversed(range(len(faces)))])

    # -- queries --------------------------------------------------------

    @cached_property
    def samples(self) -> tuple[AlgebraicPoint, ...]:
        """Per face id, a point inside it: the middle of its first run's cell,
        for a twin the mirror of the middle of its face's last run's cell.
        Every run lies left of 0."""
        xs, runs = self._left_xs, self._runs

        def middle(r: int, si: int) -> tuple[Fraction, Fraction]:
            _, _, below, above = runs[r]
            m = (xs[si] + xs[si + 1]) / 2
            lo, hi = self._heights((below, above), m.numerator, m.denominator)
            return m, Fraction(lo + hi, 2 * m.denominator ** 2 * self._lcm_a)

        samples = [AlgebraicPoint(*middle(r, runs[r][0])) for r in self._first_run]
        for r in self._twin_runs:
            m, mid = middle(r, self._last[r])
            samples.append(AlgebraicPoint(-m, mid))
        return tuple(samples)

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs, with their ends as Fractions."""
        return tuple(Arc(a, b, c, Fraction(lp, lq), Fraction(hp, hq))
                     for a, b, c, lp, lq, hp, hq in self._arcs)

    @cached_property
    def _left_xs(self) -> list[Fraction]:
        """The sorted critical abscissae up to x = 0, the ones the sweep read."""
        return [Fraction(p, q) for p, q in self._left_pq]

    @cached_property
    def xs(self) -> list[Fraction]:
        """The sorted critical abscissae: the left half the sweep reads and
        its negation right of 0."""
        left = self._left_xs
        return left + [-x for x in reversed(left[:-1])]

    @cached_property
    def _rows(self) -> tuple[list[tuple[int, ...]], list[list[int]]]:
        """slab_arcs and face_of, laid out from the runs left of 0 and
        mirrored right of it."""
        arcs_rows = [[0] * (d - 1) for d in self._depth]
        face_rows = [[0] * d for d in self._depth]
        base = self._base
        for (first, v, _, above), end, fid in zip(self._runs, self._last, self._face):
            for si in range(first, end + 1):
                lvl = v - base[si]
                face_rows[si][lvl] = fid
                if above != CAP:
                    arcs_rows[si][lvl] = above
        # arc k of [a, b, c] mirrors to the arc of [a, -b, c], at the same level
        index = {arc[:3]: k for k, arc in enumerate(self._arcs)}
        mirror = [index[a, -b, c] for a, b, c, *_ in self._arcs]
        twin = self._twin
        arcs_rows = [tuple(row) for row in arcs_rows]
        arcs_rows += [tuple([mirror[k] for k in row]) for row in reversed(arcs_rows)]
        face_rows += [[twin[f] for f in row] for row in reversed(face_rows)]
        return arcs_rows, face_rows

    @property
    def slab_arcs(self) -> list[tuple[int, ...]]:
        """Per slab, its arcs bottom to top."""
        return self._rows[0]

    @property
    def face_of(self) -> list[list[int]]:
        """Per slab, the face of each cell, floor first."""
        return self._rows[1]

    def face_count(self) -> int:
        return len(self._first_run) + len(self._twin_runs)

    def cusp_face_count(self) -> int:
        return len(self.cusp_faces)

    def locate(self, p: AlgebraicPoint) -> tuple[int, ...]:
        """The faces around p, sorted: the one face containing it, or the
        faces that meet at it when p is on a geodesic.

        Points above the cap are fine (the column is constant up there); only
        the walls and the unit circle bound the region.
        """
        x, s = p.x, p.s
        if x < -HALF or x > HALF or x * x + s < 1:
            raise OutOfRegion(f"({x}, {s}) outside the fundamental strip")
        s_eff = min(s, self.ycap ** 2) * x.denominator ** 2 * self._lcm_a
        i = bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            cand = [si for si in (i - 1, i) if 0 <= si <= len(self.xs) - 2]
        else:
            cand = [i - 1]
        hits: set[int] = set()
        for si in cand:
            vals = self._heights([FLOOR, *self.slab_arcs[si], CAP], x.numerator, x.denominator)
            for k in range(len(vals) - 1):
                if vals[k] <= s_eff <= vals[k + 1]:
                    hits.add(self.face_of[si][k])
        return tuple(sorted(hits))


def build_arrangement(disc: int) -> FaceComplex:
    return FaceComplex(disc)
