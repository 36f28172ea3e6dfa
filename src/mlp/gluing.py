"""Identifications between faces induced by the side pairings of the domain.

The left wall maps to the right wall under the translation T, and the bottom
arc folds onto itself under the inversion S. An edge (src, dst, gen) records
the matching condition "P_src = P_dst slashed by gen" along one identified
boundary segment.

On the boundary, T on a wall and S on the unit circle both act as
z -> -conj(z) does, so a GluingEdge joins a face to its mirror image: the
mirror law. An orbit is one face, or a face left of x = 0 (its root) and its
twin; the first edge between them gives the twin's transport word, and each
other edge of the orbit one cocycle constraint on the root's polynomial.

A wall or floor on a geodesic has no segments. The walls must carry the same
spans and each bottom segment the mirror of its span at the mirrored index,
since the floor is symmetric about 0, else GluingMismatch. The arrangement
builds the right wall and the floor right of x = 0 as mirrors of the left
half, so this check guards the gluing's input, not the sweep: the pinned
arrangement digests, the grid and Euler oracles and the all-pairs merge
reference in the tests are what check the sweep. orbits_and_cycles likewise
raises GluingMismatch on a graph the mirror law forbids.

Most faces lie on no gluing edge. Each is an orbit by itself with no cycle,
so orbits_and_cycles stores only the glued orbits and counts the free ones;
solve_space reads the glued orbits alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .arrangement import FaceComplex
from .geometry import IDENTITY, Mat2, S, T


class GluingMismatch(RuntimeError):
    """The gluing breaks the mirror law: boundary segments that must pair off
    failed to match up, or an edge does not run from an orbit's root to the
    root itself or its one twin."""


class GluingEdge(NamedTuple):
    src: int
    dst: int
    gen: Mat2


@dataclass(frozen=True)
class GluingGraph:
    n_faces: int
    edges: tuple[GluingEdge, ...]


def build_gluing_graph(fc: FaceComplex) -> GluingGraph:
    """One edge per identified boundary segment; geodesic boundaries get none.

    Wall edges run left face -> right face with generator T; bottom edges run
    from the segment in x <= 0 to its mirror with generator S, one edge per
    mirror pair (S is an involution, so one direction suffices). The edges
    come in boundary order: one T edge per entry of fc.left_segments, in
    order, then one S edge per bottom segment at x <= 0, in
    fc.bottom_segments order.
    """
    edges: list[GluingEdge] = []
    left, right = fc.left_segments, fc.right_segments
    if [(s.s_lo, s.s_hi) for s in left] != [(s.s_lo, s.s_hi) for s in right]:
        raise GluingMismatch(f"wall segments differ for disc {fc.disc}")
    for ls, rs in zip(left, right):
        edges.append(GluingEdge(ls.face, rs.face, T))
    # the floor is symmetric about 0, so segment i mirrors segment n - 1 - i
    bottom = fc.bottom_segments
    for i, seg in enumerate(bottom):
        if seg.x_hi > 0:
            continue
        mirror = bottom[-1 - i]
        if mirror.x_lo != -seg.x_hi or mirror.x_hi != -seg.x_lo:
            raise GluingMismatch(f"bottom segment {seg} has no mirror, disc {fc.disc}")
        edges.append(GluingEdge(seg.face, mirror.face, S))
    return GluingGraph(fc.face_count(), tuple(edges))


class Orbit(NamedTuple):
    """The faces the gluing identifies: a root, the orbit's least face, and
    at most one twin, the root's mirror.

    words maps each face f, root first (its first key), then its twin, to the
    word that transports the root polynomial there (P_f = P_root | words[f]);
    cycles are the words g with P_root = P_root | g, one per edge of the
    orbit but the one that joins the twin, in edge order.
    """

    words: dict[int, Mat2]
    cycles: tuple[Mat2, ...]


class Orbits(Sequence[Orbit]):
    """The orbits in order of their roots, as orbits_and_cycles finds them.

    Only the glued orbits, those whose faces lie on some gluing edge, are
    stored. Every other face is a free orbit, the face alone with the
    identity word and no cycle: len counts it, and iteration and indexing
    build its Orbit when they reach it.
    """

    __slots__ = ("glued", "_n_faces", "_by_root", "_twins")

    def __init__(self, n_faces: int, roots: dict[int, Orbit]):
        self._n_faces = n_faces
        self._by_root = roots
        # the faces that are not roots, ascending
        self._twins = twins = sorted(
            f for orb in roots.values() for f in orb.words if f not in roots)
        # the glued orbits with their orbit indices, in index order: a root's
        # index counts the faces before it that are not twins
        self.glued = tuple([(r - bisect_left(twins, r), roots[r]) for r in sorted(roots)])

    def __len__(self) -> int:
        return self._n_faces - len(self._twins)

    def __iter__(self) -> Iterator[Orbit]:
        roots, twins = self._by_root, set(self._twins)
        for f in range(self._n_faces):
            if f not in twins:
                yield roots.get(f) or Orbit({f: IDENTITY}, ())

    def __getitem__(self, i: int) -> Orbit:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"orbit index {i} out of range")
        # the i-th face that is not a twin is i + j, j the twins up to it:
        # the least fixed point of j -> twins up to i + j
        twins, j = self._twins, 0
        while (up := bisect_right(twins, i + j)) != j:
            j = up
        return self._by_root.get(i + j) or Orbit({i + j: IDENTITY}, ())


def orbits_and_cycles(graph: GluingGraph) -> Orbits:
    """The orbits in order of their roots, built in one pass over the edges.

    By the mirror law every edge runs from a root to itself or to its twin,
    so src <= dst and src has the identity word. An edge with src > dst, an
    edge from a twin and an edge that would bring a third face, or a face of
    another orbit, into the root's orbit raise GluingMismatch.
    """
    roots: dict[int, Orbit] = {}
    # every face on some edge, with its orbit's root
    root_of: dict[int, int] = {}
    for e in graph.edges:
        if e.src > e.dst:
            raise GluingMismatch(f"edge {e} runs from a larger face")
        if root_of.setdefault(e.src, e.src) != e.src:
            raise GluingMismatch(f"edge {e} leaves a twin")
        words, cycles = roots.setdefault(e.src, Orbit({e.src: IDENTITY}, ()))
        if e.dst in words:
            # P_root = P_dst | gen = P_root | words[dst] @ gen
            roots[e.src] = Orbit(words, cycles + (words[e.dst] @ e.gen,))
        elif len(words) == 1 and e.dst not in root_of:
            # the first edge to the twin gives its word
            words[e.dst] = e.gen.inv()
            root_of[e.dst] = e.src
        else:
            raise GluingMismatch(f"edge {e} brings a third face or another orbit's face")
    return Orbits(graph.n_faces, roots)
