"""Decomposition of the capped fundamental domain by geodesics of fixed discriminant.

The domain is the standard fundamental strip |x| <= 1/2, |tau| >= 1, capped
above at y = ycap (an integer chosen strictly above every listed semicircle).
Heights are kept as y^2, so every stored value is an exact Fraction.

Faces are connected components of the domain minus the listed geodesics.
They are found by a sweep: the x-axis is cut at every critical abscissa
(arc endpoints, apexes, crossings, vertical lines); inside each open slab the
surviving arcs are totally ordered by height, giving a vertical stack of
cells, and cells of adjacent slabs are merged when their open height
intervals overlap across the shared boundary and no vertical geodesic
separates them.

Heights are compared as integers. At x = p/q the arc of [a, b, c] (a > 0)
has y^2 = -(a p^2 + b p q + c q^2) / (a q^2), so scaling every height at x by
q^2 * L, with L the lcm of the leading coefficients of all arcs, gives the
integers -(a p^2 + b p q + c q^2) * (L / a) for arcs, (q^2 - p^2) * L for the
unit circle and ycap^2 * q^2 * L for the cap. One L serves every stack, so
values of different stacks at the same x compare directly. Slabs are sorted
by these keys at their midpoints. At a slab boundary the left and right
stacks are two sorted partitions of the same range [1 - x^2, ycap^2], so one
linear merge finds every pair of overlapping cells.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence, Union

from .geometry import (
    HALF,
    AlgebraicPoint,
    QuadForm,
    check_discriminant,
    enumerate_forms,
    eval_form,
    is_even_square,
    semicircle_interval,
)


class OutOfRegion(ValueError):
    """The point lies outside the fundamental strip (walls or unit circle)."""


@dataclass(frozen=True)
class Arc:
    """A semicircle geodesic clipped to the domain: x in [lo, hi]."""

    form_index: int
    a: int
    b: int
    c: int
    lo: Fraction
    hi: Fraction

    def height_sq(self, x: Fraction) -> Fraction:
        """y^2 on the circle at abscissa x: -(bx+c)/a - x^2."""
        return Fraction(-(self.b * x + self.c), self.a) - x * x


@dataclass(frozen=True)
class VLine:
    """A vertical geodesic strictly inside the strip, running foot to cap."""

    form_index: int
    x: Fraction


@dataclass(frozen=True)
class WallSegment:
    """Maximal face-boundary interval on a wall; s_hi None means "up to the cap"."""

    s_lo: Fraction
    s_hi: Optional[Fraction]
    face: int


@dataclass(frozen=True)
class BottomSegment:
    """Maximal face-boundary interval on the unit circle, in x coordinates."""

    x_lo: Fraction
    x_hi: Fraction
    face: int


@dataclass(frozen=True)
class Face:
    index: int
    sample: AlgebraicPoint
    is_cusp: bool  # owns cells touching the cap (unbounded component)


@dataclass(frozen=True)
class OnExceptional:
    """locate() result for a point on the exceptional set: adjacent faces."""

    faces: tuple[int, ...]


@dataclass(frozen=True)
class BoundarySegments:
    left: tuple[WallSegment, ...]
    right: tuple[WallSegment, ...]
    bottom: tuple[BottomSegment, ...]
    left_wall_in_e: bool
    right_wall_in_e: bool
    bottom_in_e: bool


class FaceComplex:
    """Faces of the capped domain cut by the geodesics of one discriminant."""

    def __init__(self, disc: int, ycap: Optional[int] = None):
        check_discriminant(disc)
        self.disc = disc
        self.forms: tuple[QuadForm, ...] = tuple(enumerate_forms(disc))
        self.even_square = is_even_square(disc)
        floor_cap = isqrt(disc) // 2 + 1  # strictly above every semicircle
        if ycap is None:
            ycap = floor_cap
        elif ycap < floor_cap:
            raise ValueError(f"cap {ycap} does not clear the arcs (need >= {floor_cap})")
        self.ycap = ycap
        self.cap_sq = Fraction(self.ycap * self.ycap)

        self.bottom_in_e = False
        self.left_wall_in_e = False
        self.right_wall_in_e = False
        arcs: list[Arc] = []
        vlines: list[VLine] = []
        for idx, q in enumerate(self.forms):
            if q.a:
                if q.b == 0 and q.c == -q.a:
                    self.bottom_in_e = True
                    continue
                span = semicircle_interval(q)
                if span is None:
                    raise RuntimeError(f"form {q.as_list()} has no arc in the strip")
                arcs.append(Arc(idx, q.a, q.b, q.c, span[0], span[1]))
            else:
                x = Fraction(-q.c, q.b)
                if x == -HALF:
                    self.left_wall_in_e = True
                elif x == HALF:
                    self.right_wall_in_e = True
                else:
                    vlines.append(VLine(idx, x))
        self.arcs = tuple(arcs)
        self.vlines = tuple(vlines)

        self._build_cells()
        self._assign_faces()
        self._build_boundary()

    # -- construction -------------------------------------------------

    def _build_cells(self) -> None:
        arcs = self.arcs
        crit = {-HALF, HALF, Fraction(0)} | {v.x for v in self.vlines}
        for arc in arcs:
            crit.add(arc.lo)
            crit.add(arc.hi)
            apex = Fraction(-arc.b, 2 * arc.a)
            if arc.lo < apex < arc.hi:
                crit.add(apex)
        # two arcs cross at x = num/det; with det > 0, lo <= x <= hi is
        # lo.n * det <= num * lo.d and num * hi.d <= hi.n * det
        ends = [
            (arc.a, arc.b, arc.c, arc.lo.numerator, arc.lo.denominator,
             arc.hi.numerator, arc.hi.denominator)
            for arc in arcs
        ]
        for i, (a1, b1, c1, ln1, ld1, hn1, hd1) in enumerate(ends):
            for a2, b2, c2, ln2, ld2, hn2, hd2 in ends[i + 1:]:
                det = a1 * b2 - a2 * b1
                if det == 0:
                    continue  # concentric circles never meet
                num = a2 * c1 - a1 * c2
                if det < 0:
                    det, num = -det, -num
                if (ln1 * det <= num * ld1 and num * hd1 <= hn1 * det
                        and ln2 * det <= num * ld2 and num * hd2 <= hn2 * det):
                    crit.add(Fraction(num, det))

        xs = sorted(crit)
        self.xs = xs
        self._lcm_a = lcm(*(arc.a for arc in arcs))
        self._arc_coeffs = [(arc.a, arc.b, arc.c, self._lcm_a // arc.a) for arc in arcs]
        # lo and hi are critical abscissae, so an arc covers exactly the
        # slabs between their positions in xs
        pos = {x: i for i, x in enumerate(xs)}
        covering: list[list[int]] = [[] for _ in range(len(xs) - 1)]
        for k, arc in enumerate(arcs):
            for si in range(pos[arc.lo], pos[arc.hi]):
                covering[si].append(k)
        self.slab_arcs: list[tuple[int, ...]] = []
        for si, idxs in enumerate(covering):
            m = (xs[si] + xs[si + 1]) / 2
            heights = self._arc_heights(idxs, m.numerator, m.denominator)
            self.slab_arcs.append(tuple(k for _, k in sorted(zip(heights, idxs))))

    def _arc_heights(self, idxs: Sequence[int], p: int, q: int) -> list[int]:
        """y^2 * q^2 * L of arcs idxs at x = p/q, with L the lcm of the arcs' a."""
        pp, pq, qq = p * p, p * q, q * q
        coeffs = self._arc_coeffs
        return [-(a * pp + b * pq + c * qq) * s for a, b, c, s in (coeffs[k] for k in idxs)]

    def _int_stack(self, si: int, x: Fraction) -> list[int]:
        """Heights y^2 delimiting the cells of slab si at x = p/q, bottom to
        cap, each times q^2 * L; the factor depends on x alone, so the stacks
        of two slabs at one x compare directly."""
        p, q = x.numerator, x.denominator
        vals = [(q * q - p * p) * self._lcm_a]
        vals.extend(self._arc_heights(self.slab_arcs[si], p, q))
        vals.append(self.ycap * self.ycap * q * q * self._lcm_a)
        return vals

    def _assign_faces(self) -> None:
        nslab = len(self.xs) - 1
        offsets = []
        total = 0
        for si in range(nslab):
            offsets.append(total)
            total += len(self.slab_arcs[si]) + 1
        parent = list(range(total))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i: int, j: int) -> None:
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[rj] = ri

        vline_x = {v.x for v in self.vlines}
        for b in range(1, nslab):
            xb = self.xs[b]
            if xb in vline_x:
                continue
            lvals = self._int_stack(b - 1, xb)
            rvals = self._int_stack(b, xb)
            # both stacks partition [1 - xb^2, cap^2]: walk them together,
            # joining cells whose open intervals overlap (a pinched cell
            # overlaps nothing), and step past the lower top. Ties step k,
            # so l stops at the shared cap.
            k = l = 0
            nk = len(lvals) - 1
            while k < nk:
                if max(lvals[k], rvals[l]) < min(lvals[k + 1], rvals[l + 1]):
                    union(offsets[b - 1] + k, offsets[b] + l)
                if rvals[l + 1] < lvals[k + 1]:
                    l += 1
                else:
                    k += 1

        # ids scan slabs left to right and each stack cap-down, so for every
        # discriminant the face at infinity of the leftmost slab gets id 0
        self.face_of: list[list[int]] = []
        first_cell: list[tuple[int, int]] = []
        root_to_id: dict[int, int] = {}
        for si in range(nslab):
            row = [-1] * (len(self.slab_arcs[si]) + 1)
            for lvl in range(len(self.slab_arcs[si]), -1, -1):
                r = find(offsets[si] + lvl)
                fid = root_to_id.get(r)
                if fid is None:
                    fid = len(root_to_id)
                    root_to_id[r] = fid
                    first_cell.append((si, lvl))
                row[lvl] = fid
            self.face_of.append(row)

        cusp_ids = {row[-1] for row in self.face_of}
        faces = []
        for fid, (si, lvl) in enumerate(first_cell):
            m = (self.xs[si] + self.xs[si + 1]) / 2
            vals = self._int_stack(si, m)
            mid = Fraction(vals[lvl] + vals[lvl + 1], 2 * m.denominator ** 2 * self._lcm_a)
            sample = AlgebraicPoint(m, mid)
            faces.append(Face(fid, sample, fid in cusp_ids))
        self.faces: tuple[Face, ...] = tuple(faces)

    def _wall_segments(self, left: bool) -> tuple[WallSegment, ...]:
        si = 0 if left else len(self.xs) - 2
        x = -HALF if left else HALF
        vals = self._int_stack(si, x)
        scale = x.denominator ** 2 * self._lcm_a
        segs = []
        for k in range(len(vals) - 1):
            if vals[k] < vals[k + 1]:
                hi = None if k == len(vals) - 2 else Fraction(vals[k + 1], scale)
                segs.append(WallSegment(Fraction(vals[k], scale), hi, self.face_of[si][k]))
        return tuple(segs)

    def _build_boundary(self) -> None:
        self.left_segments = () if self.left_wall_in_e else self._wall_segments(True)
        self.right_segments = () if self.right_wall_in_e else self._wall_segments(False)

        if self.bottom_in_e:
            self.bottom_segments: tuple[BottomSegment, ...] = ()
        else:
            # arc endpoints on the unit circle, where a(x^2+y^2) + bx + c = 0
            # reduces to a + bx + c = 0
            touch = {
                e
                for arc in self.arcs
                for e in (arc.lo, arc.hi)
                if (arc.a + arc.c) * e.denominator + arc.b * e.numerator == 0
            }
            breaks = sorted({-HALF, HALF, Fraction(0)} | touch | {v.x for v in self.vlines})
            segs = []
            for xa, xb in zip(breaks, breaks[1:]):
                m = (xa + xb) / 2
                segs.append(BottomSegment(xa, xb, self.face_of[self._slab_of(m)][0]))
            self.bottom_segments = tuple(segs)

    # -- queries --------------------------------------------------------

    def face_count(self) -> int:
        return len(self.faces)

    def cusp_face_count(self) -> int:
        return sum(1 for f in self.faces if f.is_cusp)

    def boundary_segments(self) -> BoundarySegments:
        return BoundarySegments(
            self.left_segments,
            self.right_segments,
            self.bottom_segments,
            self.left_wall_in_e,
            self.right_wall_in_e,
            self.bottom_in_e,
        )

    def _slab_of(self, x: Fraction) -> int:
        i = bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            return min(i, len(self.xs) - 2)
        return i - 1

    def locate(self, p: AlgebraicPoint) -> Union[int, OnExceptional]:
        """Face containing p, or the adjacent faces when p is on a geodesic.

        Points above the cap are fine (the stack is constant up there); only
        the walls and the unit circle bound the region.
        """
        x, s = p.x, p.s
        if x < -HALF or x > HALF or x * x + s < 1:
            raise OutOfRegion(f"({x}, {s}) outside the fundamental strip")
        on_exc = any(eval_form(q, p) == 0 for q in self.forms)
        s_eff = min(s, self.cap_sq) * x.denominator ** 2 * self._lcm_a
        i = bisect_left(self.xs, x)
        if i < len(self.xs) and self.xs[i] == x:
            cand = [si for si in (i - 1, i) if 0 <= si <= len(self.xs) - 2]
        else:
            cand = [i - 1]
        hits: set[int] = set()
        for si in cand:
            vals = self._int_stack(si, x)
            for k in range(len(vals) - 1):
                if vals[k] <= s_eff <= vals[k + 1]:
                    hits.add(self.face_of[si][k])
        if on_exc:
            return OnExceptional(tuple(sorted(hits)))
        if len(hits) != 1:
            raise RuntimeError(f"point ({x}, {s}) matched faces {hits}")
        return hits.pop()


def build_arrangement(disc: int, ycap: Optional[int] = None) -> FaceComplex:
    return FaceComplex(disc, ycap)
