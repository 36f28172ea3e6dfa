"""JSON result records and exact rendering of basis polynomials.

Coefficients are serialized as "p/q" strings so records round-trip without
any float ever appearing. Key layout is fixed so that identical inputs give
byte-identical files (the cache relies on this).
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import __version__
from .polyspace import LocalPolySpace


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def render_poly(coeffs) -> str:
    """Highest degree first, from a record's "p/q" coefficient strings:
    ("1/1", "-1/1", "1/1") -> "1/1 X^2 - 1/1 X + 1/1"."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == "0/1":
            continue
        neg = c.startswith("-")
        body = c[1:] if neg else c
        if d == 1:
            body += " X"
        elif d > 1:
            body += f" X^{d}"
        if not terms:
            terms.append(f"-{body}" if neg else body)
        else:
            terms.append(("- " if neg else "+ ") + body)
    return " ".join(terms) if terms else "0/1"


class ResultRecord(dict):
    """One answer as its JSON object, in the key order `from_space` fixes.
    Each basis element maps a face index, as a string, to the face's "p/q"
    coefficients, lowest degree first."""

    @classmethod
    def from_space(cls, space: LocalPolySpace) -> "ResultRecord":
        fc = space.complex
        return cls(
            D=space.disc,
            k=space.k,
            forms=[[q.a, q.b, q.c] for q in fc.forms],
            rF=fc.face_count(),
            cuspFaces=fc.cusp_face_count(),
            orbitCount=len(space.orbits),
            dim=space.dim,
            basis=[
                {str(face): [frac_str(c) for c in elem[face]] for face in sorted(elem)}
                for elem in space.basis
            ],
            flags={"evenSquare": fc.even_square, "augmented": space.augmented},
            toolVersion=__version__,
        )

    def to_json(self) -> str:
        return json.dumps(self, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        return cls(json.loads(text))
