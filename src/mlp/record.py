"""JSON result records and exact rendering of basis polynomials.

Coefficients are serialized as "p/q" strings so records round-trip without
any float ever appearing. Key layout is fixed so that identical inputs give
byte-identical files (the cache relies on this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .polyspace import LocalPolySpace


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def render_poly(coeffs) -> str:
    """Highest degree first, every coefficient spelled as p/q:
    (1, -1, 1) -> "1/1 X^2 - 1/1 X + 1/1"."""
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        body = frac_str(abs(c))
        if d == 1:
            body += " X"
        elif d > 1:
            body += f" X^{d}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(("+ " if c > 0 else "- ") + body)
    return " ".join(terms) if terms else "0/1"


@dataclass(frozen=True, eq=True)
class ResultRecord:
    disc: int
    k: int
    forms: tuple[tuple[int, int, int], ...]
    r_f: int
    cusp_faces: int
    orbit_count: int
    dim: int
    basis: tuple  # tuple of dict[int, tuple[Fraction, ...]]
    even_square: bool
    augmented: bool
    tool_version: str

    @classmethod
    def from_space(cls, space: LocalPolySpace) -> "ResultRecord":
        fc = space.complex
        return cls(
            disc=space.disc,
            k=space.k,
            forms=tuple((q.a, q.b, q.c) for q in fc.forms),
            r_f=fc.face_count(),
            cusp_faces=fc.cusp_face_count(),
            orbit_count=len(space.orbits),
            dim=space.dim,
            basis=space.basis,
            even_square=fc.even_square,
            augmented=space.augmented,
            tool_version=__version__,
        )

    def to_obj(self) -> dict:
        return {
            "D": self.disc,
            "k": self.k,
            "forms": [list(f) for f in self.forms],
            "rF": self.r_f,
            "cuspFaces": self.cusp_faces,
            "orbitCount": self.orbit_count,
            "dim": self.dim,
            "basis": [
                {str(face): [frac_str(c) for c in elem[face]] for face in sorted(elem)}
                for elem in self.basis
            ],
            "flags": {"evenSquare": self.even_square, "augmented": self.augmented},
            "toolVersion": self.tool_version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        obj = json.loads(text)
        basis = tuple(
            {int(face): tuple(Fraction(c) for c in coeffs) for face, coeffs in elem.items()}
            for elem in obj["basis"]
        )
        return cls(
            disc=obj["D"],
            k=obj["k"],
            forms=tuple(tuple(f) for f in obj["forms"]),
            r_f=obj["rF"],
            cusp_faces=obj["cuspFaces"],
            orbit_count=obj["orbitCount"],
            dim=obj["dim"],
            basis=basis,
            even_square=obj["flags"]["evenSquare"],
            augmented=obj["flags"]["augmented"],
            tool_version=obj["toolVersion"],
        )
