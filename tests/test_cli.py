from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import xml.etree.ElementTree as ET
from collections import Counter
from fractions import Fraction

import pytest

from mlp import AlgebraicPoint, build_arrangement
from mlp import arrangement, cli, polyspace
from mlp.cli import main
from mlp.polyspace import SlashMatrix
from mlp.record import ResultRecord, render_poly


@pytest.fixture(autouse=True)
def no_ambient_cache(monkeypatch):
    monkeypatch.delenv("MLP_CACHE_DIR", raising=False)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_forms_golden(capsys):
    code, out, _ = run(capsys, "forms", "--disc", "5")
    assert code == 0
    assert out == "[[1,1,-1],[1,-1,-1]]\n"


def test_forms_d8(capsys):
    code, out, _ = run(capsys, "forms", "--disc", "8")
    assert code == 0
    assert json.loads(out) == [[1, 0, -2], [1, 2, -1], [1, -2, -1]]


def test_forms_bad_discriminant(capsys):
    code, out, err = run(capsys, "forms", "--disc", "7")
    assert code == 2
    assert out == ""
    assert "not a discriminant (7 ≡ 3 mod 4)" in err


def test_dim_golden(capsys):
    code, out, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    assert code == 0
    obj = json.loads(out)
    assert (obj["dim"], obj["rF"], obj["orbitCount"]) == (2, 3, 2)


def test_dim_augmented(capsys):
    code, out, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2", "--augmented")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 9
    assert obj["flags"]["augmented"] is True


def test_dim_weight_zero(capsys):
    code, out, _ = run(capsys, "dim", "--disc", "4", "--weight", "0")
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_dim_bad_weight(capsys):
    code, out, err = run(capsys, "dim", "--disc", "5", "--weight", "-3")
    assert code == 3 and out == ""
    assert "invalid weight" in err
    code, _, _ = run(capsys, "dim", "--disc", "5", "--weight", "2")
    assert code == 3


def test_dim_deterministic(capsys):
    _, first, _ = run(capsys, "dim", "--disc", "8", "--weight", "-2")
    _, second, _ = run(capsys, "dim", "--disc", "8", "--weight", "-2")
    assert first == second


def test_basis_listing(capsys, tmp_path):
    out_json = tmp_path / "basis.json"
    code, out, _ = run(
        capsys, "basis", "--disc", "5", "--weight", "-2", "--json", str(out_json)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D=5 k=-2 dim=2 rF=3 cuspFaces=1 orbitCount=2"
    i = lines.index("element 2")
    assert lines[i + 1] == "  face 1: 1/1 X^2 + 1/1 X + 1/1"
    assert lines[i + 2] == "  face 2: 1/1 X^2 - 1/1 X + 1/1"
    rec = ResultRecord.from_json(out_json.read_text(encoding="utf-8"))
    assert rec["D"] == 5 and rec["dim"] == 2


def test_basis_matches_dim_record(capsys, tmp_path):
    out_json = tmp_path / "rec.json"
    run(capsys, "basis", "--disc", "8", "--weight", "-2", "--json", str(out_json))
    code, dim_out, _ = run(capsys, "dim", "--disc", "8", "--weight", "-2")
    assert code == 0
    assert out_json.read_text(encoding="utf-8") == dim_out


def test_basis_d4_monomials(capsys):
    code, out, _ = run(capsys, "basis", "--disc", "4", "--weight", "-2")
    assert code == 0
    assert out.count("element ") == 6
    for poly in ("1/1 X^2", "1/1 X", "1/1"):
        assert sum(1 for ln in out.splitlines() if ln.endswith(f": {poly}")) == 2


def test_basis_weight_zero_indicators(capsys):
    code, out, _ = run(capsys, "basis", "--disc", "5", "--weight", "0")
    assert code == 0
    lines = out.splitlines()
    assert out.count("element ") == 2
    assert "  face 0: 1/1" in lines
    assert "  face 1: 1/1" in lines and "  face 2: 1/1" in lines


def _reference_listing(rec: ResultRecord) -> str:
    """What `mlp basis` prints for a record, one render_poly per (element, face)."""
    out = (
        f"D={rec['D']} k={rec['k']} dim={rec['dim']} rF={rec['rF']} "
        f"cuspFaces={rec['cuspFaces']} orbitCount={rec['orbitCount']}\n"
    )
    for i, elem in enumerate(rec["basis"], start=1):
        out += f"element {i}\n"
        for face in sorted(elem, key=int):
            out += f"  face {face}: {render_poly(elem[face])}\n"
    return out


@pytest.mark.parametrize(
    "disc,k,augmented",
    [(d, k, False) for d in (1, 4, 5, 9, 16, 17, 21, 64, 97) for k in (0, -2, -8)]
    + [(d, -2, True) for d in (1, 4, 5, 9, 16, 17, 21, 64, 97)],
)
def test_basis_hit_prints_miss_bytes(capsys, tmp_path, monkeypatch, disc, k, augmented):
    # a miss renders lists that from_space shares, a hit lists that from_json
    # reads apart; both print what one render_poly per face prints
    argv = ["basis", "--disc", str(disc), "--weight", str(k)] + ["--augmented"] * augmented
    code, miss, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))
    assert run(capsys, *argv) == (0, miss, "")
    (path,) = tmp_path.glob("*.json")

    def refuse(*args, **kwargs):
        raise AssertionError("a warm hit computed its space")

    monkeypatch.setattr(cli, "compute_space", refuse)
    assert run(capsys, *argv) == (0, miss, "")
    assert miss == _reference_listing(ResultRecord.from_json(path.read_text(encoding="utf-8")))


# sha256 of the stdout of `mlp basis --disc D --weight k`, with no cache, for
# D ascending over the valid D <= 120 and k = -8, -4, -2, 0 for each D,
# concatenated with no separator
BASIS_120_SHA256 = "fe636084d993c364be959226bd227b0d90813e72c69982ffdc86036e160a3a0b"


def test_basis_listing_pinned(capsys):
    digest = hashlib.sha256()
    for disc in [d for d in range(1, 121) if d % 4 in (0, 1)]:
        for k in (-8, -4, -2, 0):
            code, out, _ = run(capsys, "basis", "--disc", str(disc), "--weight", str(k))
            assert code == 0
            digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == BASIS_120_SHA256


def test_basis_renders_each_distinct_list_once(capsys, tmp_path, monkeypatch):
    # a hit's lists are read apart, yet each distinct one is rendered once
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))
    rendered = []

    def counting(strs):
        rendered.append(tuple(strs))
        return render_poly(strs)

    monkeypatch.setattr(cli, "render_poly", counting)
    for disc, k in ((97, -8), (64, -2), (5, 0)):
        argv = ["basis", "--disc", str(disc), "--weight", str(k)]
        _, miss, _ = run(capsys, *argv)
        text = (tmp_path / f"v0.1.0_D{disc}_k{k}.json").read_text(encoding="utf-8")
        coeffs = [tuple(v) for elem in ResultRecord.from_json(text)["basis"] for v in elem.values()]
        rendered.clear()
        assert run(capsys, *argv) == (0, miss, "")
        assert sorted(rendered) == sorted(set(coeffs))
        assert len(rendered) < len(coeffs)


def test_basis_json_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys,
        "basis",
        "--disc",
        "5",
        "--weight",
        "-2",
        "--json",
        str(tmp_path / "missing" / "rec.json"),
    )
    assert code == 4
    assert "error:" in err


def test_faces_summary(capsys):
    code, out, _ = run(capsys, "faces", "--disc", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["rF"] == 3 and obj["cuspFaces"] == 1
    fc = build_arrangement(5)
    for entry in obj["faces"]:
        x = Fraction(entry["sample"][0])
        s = Fraction(entry["sample"][1])
        assert fc.locate(AlgebraicPoint(x, s)) == (entry["id"],)
        assert entry["cusp"] == (entry["id"] in fc.cusp_faces)


# sha256 of `mlp faces --disc D` stdout, taken with the all-pairs Fraction
# merge of commit eece3f9, before heights were compared as integers
FACES_SHA256 = {
    33: "68da490b6e7f674e8f331d8d0aba0d54069949cb0a62659030a4767bf2a745bd",
    100: "c4e5cf2e4a205f2af72c7fc26e68f578839670a22ff4dc51d6f0820bec330b00",
    144: "c7b79acdb61b977d9e6d9ef8a8a4d84a735651486b7b2f8aabe4fb26c6981b1a",
    401: "23bd1e6c2560f275b7056596896e2fedc40047de1e13f967eebc569d70639ad4",
    1000: "a95e6560625edf0d81d6a797fb042db640b55a52c5a1b21eb235d49a2afe6b46",
}


def test_faces_output_golden(capsys):
    for disc, digest in FACES_SHA256.items():
        code, out, _ = run(capsys, "faces", "--disc", str(disc))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, f"D={disc}"


def test_faces_output_equals_json_dumps_layout(capsys):
    # the faces writer lays its object out itself; json's indenting encoder
    # is the oracle for that layout
    for disc in [d for d in range(1, 201) if d % 4 in (0, 1)] + [2000]:
        code, out, _ = run(capsys, "faces", "--disc", str(disc))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n", f"D={disc}"


def test_faces_d4_flags(capsys):
    code, out, _ = run(capsys, "faces", "--disc", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["rF"] == 2 and obj["cuspFaces"] == 2
    assert obj["flags"]["bottomInE"] and obj["flags"]["wallsInE"]


def test_faces_svg(capsys, tmp_path):
    svg_path = tmp_path / "d5.svg"
    code, _, _ = run(capsys, "faces", "--disc", "5", "--svg", str(svg_path))
    assert code == 0
    root = ET.parse(svg_path).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    paths = root.findall("{http://www.w3.org/2000/svg}path")
    fc = build_arrangement(5)
    assert len(paths) == 4 + len(fc.arcs) + len(fc.vlines)
    # the two geodesic arcs share their endpoint at the point i
    arcs = [p.get("d") for p in paths if p.get("stroke") == "crimson"]
    assert len(arcs) == 2
    ix = format((0.0 - (-0.6)) * 360.0, ".12g")
    iy = format((fc.ycap + 0.1 - 1.0) * 360.0, ".12g")
    assert all(f"{ix} {iy}" in d for d in arcs)
    labels = root.findall("{http://www.w3.org/2000/svg}text")
    assert sorted(t.text for t in labels) == ["0", "1", "2"]


def test_faces_svg_vertical_lines(capsys, tmp_path):
    # D = 9 has the vertical geodesics x = -1/3, 0, 1/3, each drawn foot to cap
    svg_path = tmp_path / "d9.svg"
    code, _, _ = run(capsys, "faces", "--disc", "9", "--svg", str(svg_path))
    assert code == 0
    paths = ET.parse(svg_path).getroot().findall("{http://www.w3.org/2000/svg}path")
    geodesics = [p.get("d").split() for p in paths if p.get("stroke") == "crimson"]
    lines = [d for d in geodesics if d[3] == "L"]
    assert len(lines) == 3
    assert all(d[0] == "M" and d[1] == d[4] and d[2] != d[5] for d in lines)
    # the cap's y, 0.1 below the picture's top edge
    ycap = build_arrangement(9).ycap
    cap = format((ycap + 0.1 - ycap) * 360.0, ".12g")
    assert all(d[5] == cap for d in lines)
    xs = {format((x - (-0.6)) * 360.0, ".12g") for x in (-1 / 3, 0.0, 1 / 3)}
    assert {d[1] for d in lines} == xs


def test_faces_svg_precision(capsys, tmp_path):
    lo = tmp_path / "lo.svg"
    hi = tmp_path / "hi.svg"
    run(capsys, "faces", "--disc", "5", "--svg", str(lo), "--precision", "3")
    run(capsys, "faces", "--disc", "5", "--svg", str(hi), "--precision", "15")
    lo_text = lo.read_text(encoding="utf-8")
    assert len(lo_text) < len(hi.read_text(encoding="utf-8"))
    ET.parse(lo)  # still well-formed


def test_faces_svg_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "faces", "--disc", "5", "--svg", str(tmp_path / "no" / "fig.svg")
    )
    assert code == 4
    assert "error:" in err


def test_cache_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))
    code, first, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    assert code == 0
    cache_file = tmp_path / "v0.1.0_D5_k-2.json"
    assert cache_file.exists()
    assert cache_file.read_text(encoding="utf-8") == first
    code, second, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    assert code == 0 and second == first
    # the cached text is what gets printed, proving no recomputation
    sentinel = first.replace('"1/1"', '"3/1"', 1)
    assert sentinel != first
    cache_file.write_text(sentinel, encoding="utf-8")
    _, third, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    assert third == sentinel


def test_cache_key_separates_augmented(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))
    run(capsys, "dim", "--disc", "5", "--weight", "-2")
    run(capsys, "dim", "--disc", "5", "--weight", "-2", "--augmented")
    names = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".json")
    assert names == ["v0.1.0_D5_k-2.json", "v0.1.0_D5_k-2_aug.json"]


@pytest.mark.parametrize("cmd", ["dim", "basis"])
def test_cache_record_removed_before_it_is_read_is_a_miss(capsys, tmp_path, monkeypatch, cmd):
    # the record exists when a query would test for it and is gone when the
    # query opens it: the query computes and writes the record again
    _, uncached, _ = run(capsys, cmd, "--disc", "5", "--weight", "-2")
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))
    cache_file = tmp_path / "v0.1.0_D5_k-2.json"
    exists = os.path.exists
    monkeypatch.setattr(cli.os.path, "exists", lambda p: p == str(cache_file) or exists(p))
    code, out, err = run(capsys, cmd, "--disc", "5", "--weight", "-2")
    assert (code, out, err) == (0, uncached, "")
    assert cache_file.exists()


def test_cache_dir_that_is_a_file_only_warns(capsys, tmp_path, monkeypatch):
    _, uncached, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    blocker = tmp_path / "cache"
    blocker.write_text("", encoding="utf-8")
    monkeypatch.setenv("MLP_CACHE_DIR", str(blocker))
    # no record can be read there or written: the answer is computed
    code, out, err = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    assert code == 0 and out == uncached
    assert err.startswith(f"warning: cache record {blocker}")


def test_cache_write_failure_leaves_no_file(capsys, tmp_path, monkeypatch):
    _, uncached, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    # the answer is still printed; only the cache is lost
    code, out, err = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    assert code == 0 and out == uncached
    assert err.startswith("warning:") and "disk full" in err
    # neither the temp file nor a record is left behind
    assert list(tmp_path.glob("*.tmp")) == [] and list(tmp_path.glob("*.json")) == []


def _corrupt(text: str, case: str) -> str:
    obj = json.loads(text)
    if case == "truncated":
        return text[: len(text) // 2]
    if case == "not an object":
        return json.dumps([obj])
    if case == "nested past the recursion limit":
        return "[" * 200000 + "]" * 200000
    if case in ("the record of D=8", "the record of k=-4", "the augmented record"):
        # well-formed, but the answer to another query
        disc, k = (8, -2) if "D=8" in case else (5, -4) if "k=-4" in case else (5, -2)
        space = polyspace.compute_space(disc, k, augmented="augmented" in case)
        return ResultRecord.to_json(space)
    if case == "dim":
        obj["dim"] = 2222
    elif case == "dim != len(basis)":
        obj["basis"].pop()
    elif case == "flags.augmented":
        obj["flags"]["augmented"] = True
    elif case == "toolVersion":
        obj["toolVersion"] = "0.0.9"
    elif case == "basis is a string":
        obj["basis"] = "ab"  # as long as dim, 2
    elif case == "D is a float":
        obj["D"] = 5.0
    elif case == "flags.augmented is 0":
        obj["flags"]["augmented"] = 0
    elif case == "coefficient is a number":
        obj["basis"][0]["0"][0] = 1
    elif case == "coefficient is a list":
        obj["basis"][0]["0"][0] = ["1/1"]
    elif case == "coefficient is not p/q":
        obj["basis"][0]["0"] = ["1/0", "x", "-"]
    elif case == "coefficient has a tail":
        obj["basis"][0]["0"][0] += " X"
    elif case == "wrong coefficient count":
        obj["basis"][0]["0"] = ["1/1"]
    elif case == "face not below rF":
        obj["basis"][1]["99"] = obj["basis"][1]["1"]
    elif case == "face key has a leading zero":
        obj["basis"][0]["01"] = obj["basis"][0]["0"]
    elif case == "coefficient not in lowest terms":
        obj["basis"][0]["0"][0] = "2/4"
    elif case == "coefficient is minus zero":
        obj["basis"][0]["0"][1] = "-0/1"
    elif case == "numerator has a leading zero":
        obj["basis"][0]["0"][0] = "01/1"
    elif case == "zero over two":
        obj["basis"][0]["0"][1] = "0/2"
    elif case == "rF is a string":
        obj["rF"] = "3"
    elif case == "orbitCount is a float":
        obj["orbitCount"] = 2.0
    elif case == "empty basis":
        obj["dim"], obj["basis"] = 0, []
    elif case == "empty basis element":
        obj["basis"][1] = {}
    elif case == "coefficients all zero":
        obj["basis"][0]["0"] = ["0/1"] * 3
    elif case in ("evenSquare is true", "evenSquare is false at D=16"):
        obj["flags"]["evenSquare"] = not obj["flags"]["evenSquare"]
    elif case == "cuspFaces and orbitCount off the laws":
        obj["cuspFaces"], obj["orbitCount"] = 7, 9
    elif case == "cuspFaces off the law":
        obj["cuspFaces"] = 7
    elif case == "orbitCount above rF":
        obj["orbitCount"] = 9
    elif case == "orbitCount is 0":
        obj["orbitCount"] = 0
    elif case == "orbitCount below dim at k=0":
        obj["orbitCount"] = 1
    elif case == "extra key":
        obj["junk"] = 1
    elif case == "extra flag":
        obj["flags"]["x"] = 1
    elif case == "rF and cuspFaces swapped":
        obj = {key: obj[key] for key in ("D", "k", "forms", "cuspFaces", "rF", *list(obj)[5:])}
    else:
        obj[case] -= 4  # D or k: the record of another valid query
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize(
    "case",
    ["truncated", "not an object", "D", "k", "flags.augmented", "toolVersion",
     "dim", "dim != len(basis)", "basis is a string", "D is a float",
     "flags.augmented is 0", "coefficient is a number", "coefficient is a list",
     "coefficient is not p/q", "coefficient has a tail", "wrong coefficient count",
     "face not below rF", "face key has a leading zero", "coefficient not in lowest terms",
     "coefficient is minus zero", "numerator has a leading zero", "zero over two",
     "rF is a string", "orbitCount is a float", "empty basis", "empty basis element",
     "coefficients all zero", "evenSquare is true",
     "evenSquare is false at D=16", "cuspFaces and orbitCount off the laws",
     "cuspFaces off the law", "orbitCount above rF", "orbitCount is 0",
     "orbitCount below dim at k=0", "extra key", "extra flag", "rF and cuspFaces swapped",
     "nested past the recursion limit", "the record of D=8", "the record of k=-4",
     "the augmented record"],
)
def test_cache_record_that_does_not_answer_is_refused(capsys, tmp_path, monkeypatch, case):
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))
    # D=5 at k=-2 unless the case names another query
    disc = "16" if "D=16" in case else "5"
    k = "0" if "k=0" in case else "-2"
    _, first, _ = run(capsys, "dim", "--disc", disc, "--weight", k)
    cache_file = tmp_path / f"v0.1.0_D{disc}_k{k}.json"
    bad = _corrupt(first, case)
    assert bad != first
    cache_file.write_text(bad, encoding="utf-8")
    for cmd in ("dim", "basis"):
        code, out, err = run(capsys, cmd, "--disc", disc, "--weight", k)
        assert code == 4 and out == ""
        assert err == f"error: cache record {cache_file} does not answer this query; remove it\n"
        assert cache_file.read_text(encoding="utf-8") == bad


def test_sweep_small(capsys):
    code, out, err = run(capsys, "sweep", "--max-disc", "20", "--weights", "0,-2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert "D=16 k=-2 dim=54 rF=18 orbits=18 bound=54 evenSquare=true" in lines
    assert "D=5 k=-2 dim=2 rF=3 orbits=2 bound=9 evenSquare=false" in lines
    assert lines[-1] == "sweep ok: 10 discriminants, weights [0, -2]"
    # a list that starts with a negative weight is one token with "="
    code, out, err = run(capsys, "sweep", "--max-disc", "20", "--weights=-2,-4")
    assert code == 0 and err == ""
    assert out.splitlines()[-1].endswith("weights [-2, -4]")


# sha256 of `mlp sweep --max-disc 150 --weights 0,-2,-4` stdout
SWEEP_150_SHA256 = "24d4e593776ab757dd004071deed67f5fa0ad184a97cab3e0fcb117055b9b771"


def test_sweep_parallel_matches_serial(capsys):
    _, serial, _ = run(capsys, "sweep", "--max-disc", "17", "--weights", "0,-2")
    _, parallel, _ = run(
        capsys, "sweep", "--max-disc", "17", "--weights", "0,-2", "--jobs", "2"
    )
    assert parallel == serial
    # each worker fills its own memo, so its spaces must equal the serial ones
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys, "sweep", "--max-disc", "150", "--weights", "0,-2,-4", "--jobs", jobs
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_150_SHA256, jobs


# sha256 of `mlp sweep --max-disc 1200 --weights 0,-2,-4` stdout: the laws
# past the benchmark's D <= 150, where arcs cross in larger groups
SWEEP_1200_SHA256 = "99e6970429e8520b6dd8ee047c58e67ef68f123c7f88a320999221d4c7a843dc"


def test_sweep_1200_pinned(capsys):
    code, out, err = run(capsys, "sweep", "--max-disc", "1200", "--weights", "0,-2,-4")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_1200_SHA256


# sha256 of `mlp sweep --max-disc 60 --weights 0,-2 --augmented` stdout
SWEEP_AUGMENTED_60_SHA256 = "c9335319a24bb79134b20a8c3dcd9479056b4b73f37127dbe24c393686f7a7a7"


def test_sweep_augmented(capsys):
    code, out, _ = run(
        capsys, "sweep", "--max-disc", "60", "--weights", "0,-2", "--augmented"
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("sweep ok")
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_AUGMENTED_60_SHA256


def test_sweep_reports_law_failures(capsys, monkeypatch):
    solve = cli.solve_space

    def one_too_many(*args, **kwargs):
        space = solve(*args, **kwargs)
        return dataclasses.replace(space, dim=space.dim + 1)

    monkeypatch.setattr(cli, "solve_space", one_too_many)
    code, out, err = run(capsys, "sweep", "--max-disc", "12")
    assert code == 1
    assert "D=4 k=-2 dim=7 rF=2 orbits=2 bound=6 evenSquare=true" in out.splitlines()
    assert "sweep ok" not in out
    assert err.splitlines() == [
        "FAIL D=1 k=0: dim 2 != orbit count 1",
        "FAIL D=4 k=0: dim 3 exceeds bound 2",
        "FAIL D=4 k=0: dim 3 != orbit count 2",
        "FAIL D=4 k=0: dim 3 != rF 2",
        "FAIL D=4 k=-2: dim 7 exceeds bound 6",
        "FAIL D=4 k=-2: dim 7 != bound 6 (even square)",
        "FAIL D=4 k=-4: dim 11 exceeds bound 10",
        "FAIL D=4 k=-4: dim 11 != bound 10 (even square)",
        "FAIL D=5 k=0: dim 3 != orbit count 2",
        "FAIL D=8 k=0: dim 4 != orbit count 3",
        "FAIL D=9 k=0: dim 11 != orbit count 10",
        "FAIL D=12 k=0: dim 5 != orbit count 4",
    ]


# sha256 of `mlp sweep --max-disc 60` stdout, taken before the sweep stopped
# building bases
SWEEP_60_SHA256 = "7a0e91648992d95f2c460801501a189caeaa09832a5fba6b86da6b65bfbf255d"


def test_sweep_transports_nothing(capsys, monkeypatch):
    def refuse(self, vec):
        raise AssertionError("the sweep transported a basis vector")

    monkeypatch.setattr(SlashMatrix, "apply", refuse)
    code, out, err = run(capsys, "sweep", "--max-disc", "60")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_60_SHA256


def test_sweep_builds_each_matrix_and_fixed_space_once(capsys, monkeypatch):
    # one memo per sweep: a slash matrix per (word, w) and a fixed space per
    # (cycle words, w), built again by the next sweep; a dim query shares
    # nothing, not even with the same query before it
    built = Counter()
    for name in ("slash_matrix", "fixed_space"):
        fn = getattr(polyspace, name)

        def counted(*args, fn=fn, name=name):
            built[name] += 1
            return fn(*args)

        monkeypatch.setattr(polyspace, name, counted)
    for argv, slash, fixed in [
        (["sweep", "--max-disc", "60"], 15, 9),
        (["sweep", "--max-disc", "60"], 15, 9),
        (["dim", "--disc", "97", "--weight", "-8"], 4, 2),
        (["dim", "--disc", "97", "--weight", "-8"], 4, 2),
    ]:
        built.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert (built["slash_matrix"], built["fixed_space"]) == (slash, fixed), argv
        if argv[0] == "sweep":
            assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_60_SHA256


# sha256 of `mlp dim --disc 33 --weight -2` stdout
DIM_33_SHA256 = "54fc8d2ed0197feedb8ebf8ddbf88207508e0306e94ac294caba216c58cc1a67"


def test_sweep_and_dim_build_no_face_sample(capsys, monkeypatch):
    def refuse(x, s):
        raise AssertionError("a face sample was built")

    monkeypatch.setattr(arrangement, "AlgebraicPoint", refuse)
    code, out, err = run(capsys, "sweep", "--max-disc", "60")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_60_SHA256
    code, out, err = run(capsys, "dim", "--disc", "33", "--weight", "-2")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == DIM_33_SHA256


# sha256 of `mlp dim` stdout for large queries: a non-square with two cycle
# orbits, an odd square with 223 two-face orbits, a high weight, the largest
# odd square of the scale golden (125,590 faces) and the even square 10000 at
# two weights. The last three take about a second each on a 2-core x86_64
# box with Python 3.11
LARGE_DIM_SHA256 = {
    (9997, -2): "15ebe3d8864da390693b55b51201b89d7aa99036f8de88dcbf5120ed90485a1b",
    (2401, -2): "ff170cdb8d3a9f214f9b7c20654f4df71678acd42a14bcde374a96b62b4088d1",
    (1201, -8): "d9043b1929293f8b85eef03c8c6459c3975fb73a7fe8687a7ffc03568a1a422c",
    (9801, -2): "256a6b7f68c4216c8e49b0e5b04254d586f70c291d3d7dfd0113b034233bd1c0",
    (10000, -2): "b990f2a04668321f5020b740c3db68a4b4671823f0743a2d094a4634a8c2ffce",
    (10000, -4): "3cb39dbadf2f6ad4082db5b723eba25c9ee1f6bc95d2e1f36b96f6514fc00f40",
}


@pytest.mark.parametrize("disc,k", sorted(LARGE_DIM_SHA256))
def test_large_dim_output_pinned(capsys, disc, k):
    code, out, err = run(capsys, "dim", "--disc", str(disc), "--weight", str(k))
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_DIM_SHA256[(disc, k)]


def test_calls_in_one_process_share_no_state(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "rec.json"
    code, _, _ = run(capsys, "basis", "--disc", "5", "--weight", "-2", "--json", str(path))
    assert code == 0 and path.exists()
    path.unlink()
    code, out, _ = run(capsys, "dim", "--disc", "5", "--weight", "-2")
    assert code == 0 and json.loads(out)["dim"] == 2
    # --json of the first call does not carry over
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_bad_weights(capsys):
    code, _, err = run(capsys, "sweep", "--max-disc", "12", "--weights", "0,-3")
    assert code == 3
    assert "invalid weight" in err
    code, _, err = run(capsys, "sweep", "--max-disc", "12", "--weights", "a,b")
    assert code == 3
    assert "cannot parse weight list" in err
    # a sweep over no weight checks nothing, so it may not report "ok"
    for weights in ("", " , "):
        code, out, err = run(capsys, "sweep", "--max-disc", "5", "--weights", weights)
        assert code == 3 and out == ""
        assert "empty weight list" in err


def test_sweep_starts_no_more_workers_than_tasks(capsys, monkeypatch):
    # a pool forks all its workers at the first submit, so a sweep asks for
    # one per discriminant at most, whatever --jobs says (D <= 4: 1 and 4;
    # D <= 5: 1, 4 and 5); this executor runs the tasks in-process and
    # starts no worker
    asked = []

    class InlineExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    # cmd_sweep imports the pool only when --jobs asks for one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    for max_disc in ("4", "5"):
        _, serial, _ = run(capsys, "sweep", "--max-disc", max_disc, "--weights", "0,-2")
        code, out, _ = run(
            capsys, "sweep", "--max-disc", max_disc, "--weights", "0,-2", "--jobs", "8"
        )
        assert code == 0 and out == serial
    assert asked == [2, 3]


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_nonpositive_jobs(capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--max-disc", "12", "--jobs", jobs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--jobs" in err


@pytest.mark.parametrize("precision", ["0", "-1"])
def test_faces_rejects_nonpositive_precision(capsys, precision):
    with pytest.raises(SystemExit) as exc:
        main(["faces", "--disc", "5", "--precision", precision])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--precision" in err


@pytest.mark.parametrize("max_disc", ["0", "-2"])
def test_sweep_rejects_nonpositive_max_disc(capsys, max_disc):
    # a sweep over no discriminant checks nothing, so it may not report "ok"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--max-disc", max_disc])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err and "--max-disc" in captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "mlp 0.1.0"
