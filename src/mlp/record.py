"""JSON result records and exact rendering of basis polynomials.

Coefficients are serialized as "p/q" strings so records round-trip without
any float ever appearing. Key layout is fixed so that identical inputs give
byte-identical files (the cache relies on this).

`ResultRecord.to_json` writes that layout directly; its text equals
`json.dumps(record, indent=2) + "\n"`, whose indenting encoder runs in pure
Python. A record is read-only: equal coefficient vectors share one list of
strings.
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


def _layout(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON list, or with brackets "{}" an object, of already encoded items
    (object items as '"key": value'), laid out as json.dumps(indent=2) lays
    it out when its opening line is indented by `pad`."""
    if not items:
        return brackets
    sep = "\n" + pad + "  "
    return brackets[0] + sep + ("," + sep).join(items) + "\n" + pad + brackets[1]


# a record's keys and its flags, in the order from_space writes them
KEYS = ("D", "k", "forms", "rF", "cuspFaces", "orbitCount", "dim", "basis", "flags", "toolVersion")
FLAGS = ("evenSquare", "augmented")


class ResultRecord(dict):
    """One answer as its JSON object, in the key order `from_space` fixes.
    Each basis element maps a face index, as a string, to the face's "p/q"
    coefficients, lowest degree first. A record is read-only: `from_space`
    lets equal coefficient vectors share one list."""

    @classmethod
    def from_space(cls, space: LocalPolySpace) -> "ResultRecord":
        fc = space.complex
        # basis vectors repeat as objects (shared transports, unit vectors);
        # space.basis keeps each alive for this call, so no id is reused
        spelt: dict[int, list[str]] = {}

        def strings(vec) -> list[str]:
            out = spelt.get(id(vec))
            if out is None:
                out = spelt[id(vec)] = [frac_str(c) for c in vec]
            return out

        return cls(
            D=fc.disc,
            k=space.k,
            forms=[q.as_list() for q in fc.forms],
            rF=fc.face_count(),
            cuspFaces=fc.cusp_face_count(),
            orbitCount=len(space.orbits),
            dim=space.dim,
            basis=[
                {str(face): strings(elem[face]) for face in sorted(elem)}
                for elem in space.basis
            ],
            flags={"evenSquare": fc.even_square, "augmented": space.augmented},
            toolVersion=__version__,
        )

    def to_json(self) -> str:
        # coefficient strings and face keys are "-", digits and "/": no escaping
        blocks: dict[tuple[str, ...], str] = {}

        def coeffs(strs: list[str]) -> str:
            key = tuple(strs)
            out = blocks.get(key)
            if out is None:
                out = blocks[key] = _layout([f'"{c}"' for c in strs], " " * 6)
            return out

        forms = [_layout([str(v) for v in form], " " * 4) for form in self["forms"]]
        basis = [
            _layout([f'"{face}": {coeffs(strs)}' for face, strs in elem.items()], " " * 4, "{}")
            for elem in self["basis"]
        ]
        flags = [f'"{key}": {json.dumps(v)}' for key, v in self["flags"].items()]
        fields = [
            f'"D": {self["D"]}',
            f'"k": {self["k"]}',
            f'"forms": {_layout(forms, "  ")}',
            f'"rF": {self["rF"]}',
            f'"cuspFaces": {self["cuspFaces"]}',
            f'"orbitCount": {self["orbitCount"]}',
            f'"dim": {self["dim"]}',
            f'"basis": {_layout(basis, "  ")}',
            f'"flags": {_layout(flags, "  ", "{}")}',
            f'"toolVersion": {json.dumps(self["toolVersion"])}',
        ]
        return _layout(fields, "", "{}") + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        return cls(json.loads(text))
