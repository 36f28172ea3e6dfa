from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import pytest

import mlp.record
from mlp import (
    Orbits,
    __version__,
    build_arrangement,
    build_gluing_graph,
    compute_space,
    orbits_and_cycles,
    solve_space,
)
from mlp.record import ResultRecord, frac_str, render_poly

from _support import certify_basis, certify_record


def test_frac_strings_round_trip():
    for f in (Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(22, 4)):
        assert Fraction(frac_str(f)) == f
    assert frac_str(Fraction(1, 2)) == "1/2"
    assert frac_str(Fraction(-5)) == "-5/1"


def _render_fractions(coeffs) -> str:
    """The renderer the CLI used while basis records were read back into
    Fractions, kept as the reference for the string renderer."""
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


def test_render_poly():
    assert render_poly(("1/1", "-1/1", "1/1")) == "1/1 X^2 - 1/1 X + 1/1"
    assert render_poly(("1/1", "1/1", "1/1")) == "1/1 X^2 + 1/1 X + 1/1"
    assert render_poly(("0/1",)) == "0/1"
    assert render_poly(("1/1",)) == "1/1"
    assert render_poly(("1/2", "0/1", "-3/1")) == "-3/1 X^2 + 1/2"


def test_record_fields_for_golden_case():
    rec = ResultRecord.from_space(compute_space(5, -2))
    assert rec["D"] == 5 and rec["k"] == -2
    assert rec["forms"] == [[1, 1, -1], [1, -1, -1]]
    assert rec["rF"] == 3
    assert rec["cuspFaces"] == 1
    assert rec["orbitCount"] == 2
    assert rec["dim"] == 2
    assert rec["flags"] == {"evenSquare": False, "augmented": False}
    assert rec["toolVersion"] == __version__


def test_record_json_shape():
    space = compute_space(5, -2)
    rec = ResultRecord.from_space(space)
    text = ResultRecord.to_json(space)
    obj = json.loads(text)
    assert list(obj) == [
        "D",
        "k",
        "forms",
        "rF",
        "cuspFaces",
        "orbitCount",
        "dim",
        "basis",
        "flags",
        "toolVersion",
    ]
    assert obj["D"] == 5
    assert obj["forms"] == [[1, 1, -1], [1, -1, -1]]
    assert obj["flags"] == {"evenSquare": False, "augmented": False}
    assert obj["basis"][1] == {"1": ["1/1", "1/1", "1/1"], "2": ["1/1", "-1/1", "1/1"]}
    assert text.endswith("\n")
    # the cache reader requires exactly these keys and flags, in this order
    assert tuple(rec) == tuple(obj) == mlp.record.KEYS
    assert tuple(rec["flags"]) == tuple(obj["flags"]) == mlp.record.FLAGS


def test_record_serialization_has_no_floats():
    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        else:
            assert not isinstance(node, float)

    for disc, k in ((5, -2), (4, -2), (9, 0), (16, -4)):
        obj = json.loads(ResultRecord.to_json(compute_space(disc, k)))
        walk(obj)
        for elem in obj["basis"]:
            for coeffs in elem.values():
                for c in coeffs:
                    assert re.fullmatch(r"-?\d+/\d+", c)


def test_record_round_trip():
    for disc, k, aug in ((5, -2, False), (8, 0, False), (4, -2, False), (5, -2, True)):
        space = compute_space(disc, k, augmented=aug)
        text = ResultRecord.to_json(space)
        again = ResultRecord.from_json(text)
        assert again == ResultRecord.from_space(space)
        assert json.dumps(again, indent=2) + "\n" == text


def test_from_json_refuses_what_from_space_cannot_write():
    # a library caller gets ValueError, never KeyError, TypeError or
    # RecursionError, for any text from_space could not have written
    text = ResultRecord.to_json(compute_space(5, -2))
    assert json.dumps(ResultRecord.from_json(text), indent=2) + "\n" == text

    def edited(key, value):
        obj = json.loads(text)
        obj[key] = value
        return json.dumps(obj)

    # the basis at D=5, k=-2: face 0 alone, then faces 1 and 2
    one, two = json.loads(text)["basis"]
    vec = two["1"]

    bad = [
        text[: len(text) // 2],
        text.replace('"D": 5,', '"D": 5.0,'),
        text.replace('"k": -2,', '"k": -2.0,'),
        text.replace('"1/1"', '"2/4"', 1),
        text.replace('"toolVersion"', '"junk": 1,\n  "toolVersion"'),
        "[" * 200000 + "]" * 200000,
        json.dumps(list(json.loads(text))),
        edited("flags", ["evenSquare", "augmented"]),
        edited("basis", 2),
        edited("basis", [1, 2]),
        edited("basis", [{"0": 1}, {"1": 1}]),
        edited("basis", [one, {}]),
        # faces out of order: reversed, and out of order past the first pair
        edited("basis", [one, dict(reversed(two.items()))]),
        edited("basis", [one, {"0": vec, "2": vec, "1": vec}]),
        text.replace('"1/1",\n        "-1/1",\n        "1/1"', '"0/1",\n        "0/1",\n        "0/1"'),
    ]
    for spelt in bad:
        assert spelt != text
        with pytest.raises(ValueError):
            ResultRecord.from_json(spelt)


def test_even_square_flag_tracks_equality():
    for disc in (4, 5, 9, 16, 17):
        for k in (-2, -4):
            rec = ResultRecord.from_space(compute_space(disc, k))
            assert rec["flags"]["evenSquare"] == (rec["dim"] == (-k + 1) * rec["rF"])


# sha256 of ResultRecord.to_json(compute_space(D, k, augmented)),
# taken before the slash transport moved onto integer arithmetic
GOLDEN_RECORD_SHA256 = {
    (5, -12, False): "1cfa4bdf50ec9de03cfff714b30ab75bb022313773ea074670904f97e6d18c93",
    (17, -8, False): "06d63955450e145649ef50c050878f29b7fbb87cf149534ab012e30c617a6a57",
    (144, -12, False): "de6ea1f77408c2108600306324e2152b2495b318691790e20d69ec593d505e79",
    (21, -6, True): "39fbfa7354ba50bf591610179a4e9a21ef7deef7916742861341e985938ec891",
}


@pytest.mark.parametrize("disc,k,augmented", sorted(GOLDEN_RECORD_SHA256))
def test_record_bytes_golden(disc, k, augmented):
    text = ResultRecord.to_json(compute_space(disc, k, augmented=augmented))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_RECORD_SHA256[(disc, k, augmented)]


@pytest.mark.parametrize("disc,k,augmented", sorted(GOLDEN_RECORD_SHA256))
def test_render_poly_matches_fraction_reference(disc, k, augmented):
    space = compute_space(disc, k, augmented=augmented)
    rec = ResultRecord.from_space(space)
    for elem, strings in zip(space.basis, rec["basis"], strict=True):
        for face, coeffs in elem.items():
            assert render_poly(strings[str(face)]) == _render_fractions(coeffs)


def _spaces():
    """Every valid D <= 150 at k in {0, -2, -4, -8, -12}, and augmented at
    k in {0, -2}."""
    for disc in [d for d in range(1, 151) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        orbits = orbits_and_cycles(build_gluing_graph(fc))
        for k, aug in [(k, False) for k in (0, -2, -4, -8, -12)] + [(0, True), (-2, True)]:
            yield solve_space(fc, orbits, k, augmented=aug)


def test_printed_basis_is_certified():
    # every basis mlp prints is a basis of its space, checked against the
    # gluing graph by the tests' own slash arithmetic: every valid D <= 150
    # at k = 0, -2, -8, augmented at k = -2, and one large non-square
    for disc in [d for d in range(1, 151) if d % 4 in (0, 1)]:
        fc = build_arrangement(disc)
        graph = build_gluing_graph(fc)
        orbits = orbits_and_cycles(graph)
        for k, aug in ((0, False), (-2, False), (-8, False), (-2, True)):
            certify_record(ResultRecord.to_json(solve_space(fc, orbits, k, augmented=aug)), graph)
    space = compute_space(9997, -2)
    certify_record(ResultRecord.to_json(space), build_gluing_graph(space.complex))


def test_certifier_refuses_what_is_not_a_basis():
    # D=5, k=-2: face 0 alone, then faces 1 and 2 joined by a T edge and an
    # S edge
    graph = build_gluing_graph(build_arrangement(5))
    basis = list(compute_space(5, -2).basis)
    certify_basis(basis, graph, -2)
    broken = [
        # an element twice: dependent
        basis + [basis[1]],
        # a coefficient changed on a glued face: off the relation
        [basis[0], {1: basis[1][1], 2: (1, -1, 2)}],
        # the glued element without its twin: off the relation
        [basis[0], {1: basis[1][1]}],
        # their sum: in the space, but its face set meets theirs
        [basis[0], basis[1], {0: (1, 0, 0), 1: basis[1][1], 2: basis[1][2]}],
    ]
    for elements in broken:
        with pytest.raises(AssertionError):
            certify_basis(elements, graph, -2)


# sha256 of the texts of every space _spaces() yields, concatenated in order,
# taken while to_json still wrote the record from_space built
SPACES_150_SHA256 = "8ff0b8ca5fc7852488b8e6ee2bbc14444fe66d44e90a66efd9520f423cf2512b"


def test_to_json_equals_json_dumps():
    # the writer works from the orbits and from_space builds the object on its
    # own: the text is json.dumps(indent=2) of what it reads back to, and that
    # is the object from_space builds
    digest = hashlib.sha256()
    count = 0
    for space in _spaces():
        text = ResultRecord.to_json(space)
        rec = ResultRecord.from_json(text)
        assert text == json.dumps(rec, indent=2) + "\n", (rec["D"], rec["k"])
        assert rec == ResultRecord.from_space(space), (rec["D"], rec["k"])
        digest.update(text.encode("utf-8"))
        count += 1
    assert count == 7 * 75
    assert digest.hexdigest() == SPACES_150_SHA256


def test_record_lists_faces_in_increasing_order():
    # the basis, and so the record, lists faces in increasing order whatever
    # order an orbit's words list them in
    fc = build_arrangement(97)
    orbits = orbits_and_cycles(build_gluing_graph(fc))
    backwards = Orbits(fc.face_count(), {
        min(orb.words): orb._replace(words=dict(reversed(orb.words.items())))
        for _, orb in orbits.glued
    })
    assert [list(orb.words) for orb in backwards] != [list(orb.words) for orb in orbits]
    for k in (0, -8):
        space = solve_space(fc, backwards, k)
        assert all(list(elem) == sorted(elem) for elem in space.basis)
        text = ResultRecord.to_json(solve_space(fc, orbits, k))
        assert ResultRecord.to_json(space) == text
        assert ResultRecord.from_space(space) == ResultRecord.from_json(text)


def test_from_space_spells_each_vector_once(monkeypatch):
    space = compute_space(144, -12)
    vectors = {id(vec) for elem in space.basis for vec in elem.values()}
    calls = 0
    real = mlp.record.frac_str

    def counting(f):
        nonlocal calls
        calls += 1
        return real(f)

    monkeypatch.setattr(mlp.record, "frac_str", counting)
    ResultRecord.from_space(space)
    assert calls <= (space.w + 1) * len(vectors)


def test_to_json_spells_each_vector_once(monkeypatch):
    calls = 0
    real = mlp.record.frac_str

    def counting(f):
        nonlocal calls
        calls += 1
        return real(f)

    monkeypatch.setattr(mlp.record, "frac_str", counting)
    # an even square (monomials only) and a non-square with cycle orbits
    for disc, k in ((144, -12), (85, -12)):
        space = compute_space(disc, k)
        vectors = {id(vec) for elem in space.basis for vec in elem.values()}
        calls = 0
        ResultRecord.to_json(space)
        assert calls <= (space.w + 1) * len(vectors), disc
        # and each distinct coefficient value is spelt once per record, by
        # the writer and by from_space alike
        values = {c for elem in space.basis for vec in elem.values() for c in vec}
        assert calls <= len(values), disc
        calls = 0
        ResultRecord.from_space(space)
        assert calls <= len(values), disc
