"""Identifications between faces induced by the side pairings of the domain.

The left wall maps to the right wall under the translation T, and the bottom
arc folds onto itself under the inversion S. An edge (src, dst, gen) records
the matching condition "P_src = P_dst slashed by gen" along one identified
boundary segment. Orbits of the resulting graph carry transport words, and
each independent non-tree edge yields one cocycle constraint on the orbit
root's polynomial.

On the boundary, T on a wall and S on the unit circle both act as
z -> -conj(z) does, so a GluingEdge joins a face to its mirror image and an
orbit holds one face or a face and its twin.

A wall or floor on a geodesic has no segments. The walls must carry the same
spans and each bottom segment its mirror, else GluingMismatch. The arrangement
builds the right wall and the floor right of x = 0 as mirrors of the left
half, so this check guards the gluing's input, not the sweep: the pinned
arrangement digests, the grid and Euler oracles and the all-pairs merge
reference in the tests are what check the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .arrangement import FaceComplex
from .geometry import IDENTITY, Mat2, S, T


class GluingMismatch(RuntimeError):
    """Boundary segments that must pair off failed to match up."""


@dataclass(frozen=True)
class GluingEdge:
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
    """A connected component of the gluing graph, rooted at its least face.

    words maps each face f, in walk order from the root (its first key), to
    the word that transports the root polynomial there (P_f = P_root | words[f]);
    cycles are the words g with P_root = P_root | g, one per non-tree edge, in
    edge order.
    """

    words: dict[int, Mat2]
    cycles: tuple[Mat2, ...]


def orbits_and_cycles(graph: GluingGraph) -> tuple[Orbit, ...]:
    # the faces on some edge, each with its (edge index, neighbour, forward)
    # in edge order; a self-loop is listed once
    adj: dict[int, list[tuple[int, int, bool]]] = {}
    for ei, e in enumerate(graph.edges):
        adj.setdefault(e.src, []).append((ei, e.dst, True))
        if e.dst != e.src:
            adj.setdefault(e.dst, []).append((ei, e.src, False))

    orbits: list[Orbit] = []
    # every walked face's place in walk order, across the orbits
    rank: dict[int, int] = {}
    for root in range(graph.n_faces):
        if root not in adj:
            # a face on no gluing edge is an orbit by itself, with no walk
            orbits.append(Orbit({root: IDENTITY}, ()))
            continue
        if root in rank:
            continue
        # breadth first: faces leave the walk in the order they join it, so an
        # edge to a face that joined after cur (or to cur) is met here first
        words = {root: IDENTITY}
        rank[root] = len(rank)
        walk = [root]
        cycles: dict[int, Mat2] = {}
        for cur in walk:
            for ei, nbr, fwd in adj[cur]:
                e = graph.edges[ei]
                if nbr not in rank:
                    rank[nbr] = len(rank)
                    walk.append(nbr)
                    # edge relation P_src = P_dst | gen, so crossing it forward
                    # multiplies the word by gen^-1, backwards by gen
                    words[nbr] = words[cur] @ (e.gen.inv() if fwd else e.gen)
                elif rank[nbr] >= rank[cur]:
                    # a non-tree edge: P_root|w_src = P_root|w_dst|gen
                    # collapses to one relation at the root
                    cycles[ei] = words[e.dst] @ e.gen @ words[e.src].inv()
        orbits.append(Orbit(words, tuple(cycles[ei] for ei in sorted(cycles))))
    return tuple(orbits)
