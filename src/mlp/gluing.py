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
spans and each bottom segment its mirror, else GluingMismatch. The arrangement
builds the right wall and the floor right of x = 0 as mirrors of the left
half, so this check guards the gluing's input, not the sweep: the pinned
arrangement digests, the grid and Euler oracles and the all-pairs merge
reference in the tests are what check the sweep. orbits_and_cycles likewise
raises GluingMismatch on a graph the mirror law forbids.
"""

from __future__ import annotations

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
    by_span = {(seg.x_lo, seg.x_hi): seg for seg in fc.bottom_segments}
    for seg in fc.bottom_segments:
        if seg.x_hi > 0:
            continue
        mirror = by_span.get((-seg.x_hi, -seg.x_lo))
        if mirror is None:
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


def orbits_and_cycles(graph: GluingGraph) -> tuple[Orbit, ...]:
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
    # a face on no gluing edge is an orbit by itself
    return tuple(
        roots.get(f) or Orbit({f: IDENTITY}, ())
        for f in range(graph.n_faces)
        if root_of.get(f, f) == f
    )
