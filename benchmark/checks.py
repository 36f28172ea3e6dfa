"""Checks on what `mlp` prints, independent of the code that printed it.

Each check returns None when the output is right and a one-line reason
when it is not; none of them raises on malformed output.
"""

from __future__ import annotations

import json
import re
from math import isqrt

SWEEP_LINE = re.compile(
    r"D=(\d+) k=(-?\d+) dim=(\d+) rF=(\d+) orbits=(\d+) bound=(\d+) evenSquare=(true|false)"
)
BASIS_HEAD = re.compile(
    r"D=(-?\d+) k=(-?\d+) dim=(\d+) rF=(\d+) cuspFaces=(\d+) orbitCount=(\d+)"
)


def is_even_square(d: int) -> bool:
    r = isqrt(d)
    return r * r == d and r % 2 == 0


def check_record(text: str, disc: int, k: int) -> str | None:
    """A `dim` record: parses, names the query, dim == len(basis) <= (|k|+1)*rF."""
    try:
        obj = json.loads(text)
        d, kk, dim, rf, n_basis = obj["D"], obj["k"], obj["dim"], obj["rF"], len(obj["basis"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"record for D={disc} k={k} does not parse: {type(exc).__name__}"
    if (d, kk) != (disc, k):
        return f"record names D={d} k={kk}, query was D={disc} k={k}"
    if not (isinstance(dim, int) and isinstance(rf, int)) or dim != n_basis:
        return f"D={disc} k={k}: dim {dim!r} is not the basis length {n_basis}"
    if dim > (abs(k) + 1) * rf:
        return f"D={disc} k={k}: dim {dim} exceeds (|k|+1)*rF with rF={rf}"
    return None


def check_basis(text: str, disc: int, k: int, cold: str) -> str | None:
    """`basis` output: the header agrees with the cold `dim` record for the
    same key and lists exactly dim elements."""
    lines = text.splitlines()
    m = BASIS_HEAD.fullmatch(lines[0]) if lines else None
    if m is None:
        return f"basis D={disc} k={k}: no header line"
    d, kk, dim, rf, cusp, orbits = map(int, m.groups())
    try:
        ref = json.loads(cold)
        want = (ref["D"], ref["k"], ref["dim"], ref["rF"], ref["cuspFaces"], ref["orbitCount"])
    except (ValueError, KeyError, TypeError):
        return f"basis D={disc} k={k}: cold record does not parse"
    if (d, kk, dim, rf, cusp, orbits) != want:
        return f"basis D={disc} k={k}: header {m.group(0)!r} disagrees with the cold record"
    elements = sum(1 for line in lines if line.startswith("element "))
    if elements != dim:
        return f"basis D={disc} k={k}: {elements} elements listed, dim {dim}"
    return None


def check_sweep(text: str, discs: list[int], weights: list[int]) -> str | None:
    """`sweep` output: one law-abiding line per (D, k), in order, then `sweep ok`."""
    lines = text.splitlines()
    want = [(d, k) for d in discs for k in weights]
    tail = f"sweep ok: {len(discs)} discriminants, weights {weights}"
    if not lines or lines[-1] != tail:
        return f"sweep: last line is not {tail!r}"
    body = lines[:-1]
    if len(body) != len(want):
        return f"sweep: {len(body)} result lines, expected {len(want)}"
    for line, (d, k) in zip(body, want):
        m = SWEEP_LINE.fullmatch(line)
        if m is None:
            return f"sweep: malformed line {line!r}"
        dd, kk, dim, rf, orbits, bound = map(int, m.groups()[:6])
        even = m.group(7) == "true"
        if (dd, kk) != (d, k) or even != is_even_square(d):
            return f"sweep: line {line!r} out of place"
        if bound != (abs(k) + 1) * rf or dim > bound:
            return f"sweep: bound violated in {line!r}"
        if k == 0 and dim != orbits:
            return f"sweep: dim != orbits at k=0 in {line!r}"
    return None
