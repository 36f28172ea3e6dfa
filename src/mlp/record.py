"""JSON result records, the `mlp faces` layout, and exact rendering of
basis polynomials.

Coefficients, ints where integral and Fractions elsewhere, are serialized as
"p/q" strings, an int t as "t/1", so records round-trip without any float
ever appearing. Key layout is fixed so that identical inputs give
byte-identical files (the cache relies on this).

`ResultRecord.to_json(space)` writes that layout straight from the space's
orbits; its text equals `json.dumps(ResultRecord.from_space(space),
indent=2) + "\n"`, whose indenting encoder runs in pure Python, and both
take the fields other than the basis from `_fields`.
`ResultRecord.from_json` is the one reader of the format: it returns only
what `from_space` could have built. A record is read-only: equal coefficient
vectors share one list of strings.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from math import gcd

from . import __version__
from .arrangement import FaceComplex
from .geometry import check_discriminant, is_even_square
from .polyspace import LocalPolySpace, check_weight, cusp_law, dim_laws


def frac_str(f: Fraction | int) -> str:
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


def faces_json(fc: FaceComplex) -> str:
    """What `mlp faces` prints: D's counts, flags and each face's sample, laid
    out as json.dumps(indent=2) would; the "p/q" samples need no escaping."""
    faces = []
    for fid, p in enumerate(fc.samples):
        sample = _layout([f'"{frac_str(p.x)}"', f'"{frac_str(p.s)}"'], " " * 6)
        cusp = json.dumps(fid in fc.cusp_faces)
        items = [f'"id": {fid}', f'"sample": {sample}', f'"cusp": {cusp}']
        faces.append(_layout(items, " " * 4, "{}"))
    # the floor and the walls lie on geodesics exactly when D is an even square
    flag = json.dumps(fc.even_square)
    flags = [f'"evenSquare": {flag}', f'"bottomInE": {flag}', f'"wallsInE": {flag}']
    fields = [
        f'"D": {fc.disc}',
        f'"rF": {fc.face_count()}',
        f'"cuspFaces": {fc.cusp_face_count()}',
        f'"flags": {_layout(flags, "  ", "{}")}',
        f'"faces": {_layout(faces, "  ")}',
    ]
    return _layout(fields, "", "{}")


# a record's keys and its flags, in the order _fields lists them
KEYS = ("D", "k", "forms", "rF", "cuspFaces", "orbitCount", "dim", "basis", "flags", "toolVersion")
FLAGS = ("evenSquare", "augmented")
# face keys, joined by commas, and a coefficient as frac_str spells them
_FACES = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")
_COEFF = re.compile(r"(-?[1-9][0-9]*|0)/([1-9][0-9]*)")


def _fields(space: LocalPolySpace) -> dict:
    """A record's fields in the order of KEYS, basis left None: the one list
    of them that from_space and to_json both fill in."""
    fc = space.complex
    return {
        "D": fc.disc,
        "k": space.k,
        "forms": [q.as_list() for q in fc.forms],
        "rF": fc.face_count(),
        "cuspFaces": fc.cusp_face_count(),
        "orbitCount": len(space.orbits),
        "dim": space.dim,
        "basis": None,
        "flags": {"evenSquare": fc.even_square, "augmented": space.augmented},
        "toolVersion": __version__,
    }


class ResultRecord(dict):
    """One answer as its JSON object, in the key order of KEYS.
    Each basis element maps a face index, as a string, to the face's "p/q"
    coefficients, lowest degree first. A record is read-only: `from_space`
    lets equal coefficient vectors share one list."""

    @classmethod
    def from_space(cls, space: LocalPolySpace) -> "ResultRecord":
        # the vector tuples repeat as objects (shared transports, the standard
        # basis); space.by_orbit keeps each alive for this call, so no id is
        # reused
        spelt: dict[int, list[list[str]]] = {}
        names = [str(face) for face in range(space.complex.face_count())]

        def spell(vecs: tuple) -> list[list[str]]:
            out = spelt.get(id(vecs))
            if out is None:
                out = spelt[id(vecs)] = [[frac_str(c) for c in vec] for vec in vecs]
            return out

        basis: list[dict[str, list[str]]] = []
        # by_orbit lists each orbit's faces in increasing order
        for faces, rows in space.by_orbit:
            if len(faces) == 1:
                # most elements sit on one face; building them without zip
                # takes about a third off from_space on small cold queries
                name = names[faces[0]]
                basis += [{name: strs} for strs in spell(rows[0])]
            else:
                keys = [names[face] for face in faces]
                basis += [dict(zip(keys, row)) for row in zip(*map(spell, rows))]
        rec = cls(_fields(space))
        rec["basis"] = basis
        return rec

    @classmethod
    def to_json(cls, space: LocalPolySpace) -> str:
        """The text of `space`'s record, written orbit by orbit from its
        by_orbit view: each distinct coefficient value is spelt once, each
        distinct vector is laid out once, each distinct tuple of an orbit's
        rows is one template of its elements with the face keys left as
        slots, and an orbit is its template filled with its faces. No object
        is built per basis element."""
        # the vector and row tuples repeat as objects (shared transports, the
        # standard basis); space.by_orbit keeps each alive for this call, so
        # no id is reused
        blocks: dict[int, str] = {}
        templates: dict[tuple[int, ...], str] = {}
        pieces: dict[int, list[str]] = {}
        # each distinct coefficient value, quoted: a coefficient is an int or
        # a Fraction of denominator > 1, so equal values spell alike
        quoted: dict[Fraction | int, str] = {}

        def quote(c: Fraction | int) -> str:
            # coefficients are "-", digits and "/": no escaping, no "%"
            out = quoted[c] = f'"{frac_str(c)}"'
            return out

        def block(vec: tuple) -> str:
            out = blocks.get(id(vec))
            if out is None:
                items = [quoted.get(c) or quote(c) for c in vec]
                out = blocks[id(vec)] = _layout(items, " " * 6)
            return out

        def template(rows: tuple) -> str:
            key = tuple(map(id, rows))
            out = templates.get(key)
            if out is None:
                # one element per root vector, a "%d" per face; the elements
                # are joined as _layout joins the items of the basis
                out = templates[key] = ",\n    ".join(
                    _layout([f'"%d": {block(vec)}' for vec in row], " " * 4, "{}")
                    for row in zip(*rows)
                )
            return out

        def one_face(rows: tuple) -> list[str]:
            # a one-face orbit is its face joining the template's pieces
            out = pieces.get(id(rows[0]))
            if out is None:
                out = pieces[id(rows[0])] = template(rows).split("%d")
            return out

        # by_orbit lists each orbit's faces in increasing order; the elements
        # are joined as _layout joins the items of the basis
        body = ",\n    ".join(
            str(faces[0]).join(one_face(rows)) if len(faces) == 1
            else template(rows) % (faces * len(rows[0]))
            for faces, rows in space.by_orbit
        )
        fields = _fields(space)
        forms = [_layout(list(map(str, form)), " " * 4) for form in fields["forms"]]
        flags = [f'"{key}": {json.dumps(v)}' for key, v in fields["flags"].items()]
        # the lists and objects laid out over lines, the basis with a NUL for
        # its body (no field holds one; a space has at least one element);
        # every other field is a scalar
        laid = {"forms": _layout(forms, "  "), "basis": "[\n    \0\n  ]",
                "flags": _layout(flags, "  ", "{}")}
        items = [f'"{key}": {laid.get(key) or json.dumps(v)}' for key, v in fields.items()]
        # the body, tens of MB at a large D, is copied once, into the text
        head, _, tail = (_layout(items, "", "{}") + "\n").partition("\0")
        return "".join((head, body, tail))

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        """The record `text` spells, if this version's `from_space` could have
        written it; else ValueError. It has the keys and flags from_space
        writes, in that order, with their JSON types (5.0 is not 5, 0 is not
        false); D and k are valid, toolVersion is this version's and
        evenSquare is D's; rF, cuspFaces and orbitCount have 0 < orbitCount
        <= rF and obey cusp_law and dim_laws; and the basis is dim non-empty
        objects mapping face numbers below rF to lists of 1 - k "p/q" strings
        in lowest terms, not all zero. `forms` is not checked: that would
        enumerate D's forms on every read. Nor are layout, face order within
        an element or duplicate keys: each would cost a check per element or
        object, or a to_json per read."""
        try:
            rec = json.loads(text)
        except RecursionError:
            raise ValueError("record nested too deeply") from None
        if type(rec) is not dict or tuple(rec) != KEYS:
            raise ValueError(f"record keys are not {KEYS}")
        basis, flags = rec["basis"], rec["flags"]
        if type(flags) is not dict or tuple(flags) != FLAGS:
            raise ValueError(f"record flags are not {FLAGS}")
        disc, k, augmented = rec["D"], rec["k"], flags["augmented"]
        check_discriminant(disc)
        check_weight(k)
        rf, cusp, orbit_count, dim, version = fields = (
            rec["rF"], rec["cuspFaces"], rec["orbitCount"], rec["dim"], rec["toolVersion"]
        )
        if (
            tuple(map(type, (*fields, augmented))) != (int, int, int, int, str, bool)
            or version != __version__
            or flags["evenSquare"] is not is_even_square(disc)
            or not 0 < orbit_count <= rf
            or cusp_law(disc, cusp)
            or dim_laws(disc, k, augmented, dim, rf, orbit_count)
            or type(basis) is not list
            or dim != len(basis)
            or not {dict}.issuperset(map(type, basis))
            or not all(basis)
        ):
            raise ValueError("record counts or flags are not what from_space writes")
        # a read walks every key and coefficient once and reads only the
        # distinct ones
        faces = set().union(*basis)
        if not (_FACES.fullmatch(",".join(faces)) and max(map(int, faces)) < rf):
            raise ValueError("record face keys are not faces below rF")
        coeffs = list(chain.from_iterable(map(dict.values, basis)))
        if not ({list}.issuperset(map(type, coeffs)) and {1 - k}.issuperset(map(len, coeffs))):
            raise ValueError(f"record faces do not each hold {1 - k} coefficients")
        if ["0/1"] * (1 - k) in coeffs:
            raise ValueError("record has a face whose coefficients are all zero")
        try:
            for spelt in set(chain.from_iterable(coeffs)):
                m = _COEFF.fullmatch(spelt)
                if m is None or gcd(int(m[1]), int(m[2])) != 1:
                    raise ValueError(f"record coefficient {spelt!r} is not p/q in lowest terms")
        except TypeError:
            # a list is unhashable in set() and a number fails the match
            raise ValueError("record coefficient is not a string") from None
        return cls(rec)
