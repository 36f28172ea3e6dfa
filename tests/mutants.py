"""A mutation catalogue: exact edits to the library that named tests must catch.

    python tests/mutants.py [NAME ...]

Each mutant is one edit of a file under src/mlp, its old text replaced by its
new text, and the test node ids that must each fail once it is applied. For
every mutant, or the ones named, the runner copies src/, tests/, README.md,
pyproject.toml and benchmark/ into a temporary directory, applies the edit
there and runs the named tests against the copy. It prints each mutant as
killed (every named test failed), survived (some named test passed) or stale
(its old text is not in its file exactly once, or pytest could not run the
named tests), with the wall time, and exits 1 if any mutant survived or is
stale. The working tree is never edited.

pytest does not collect this file; test_mutants_apply in test_source.py checks
that each old text occurs exactly once in its file and each node id exists.
A change that catches a new mutant appends it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml", "benchmark")


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, relative to the repository root


MUTANTS = (
    # the record reader
    Mutant(
        "from_json ignores face order",
        "src/mlp/record.py",
        "            if any(map(ge, order, order[1:])):\n",
        "            if False:\n",
        ("tests/test_cli.py::test_cache_record_that_does_not_answer_is_refused[face keys out of order]",
         "tests/test_record.py::test_from_json_refuses_what_from_space_cannot_write"),
    ),
    Mutant(
        "from_json checks the first two faces only",
        "src/mlp/record.py",
        "            if any(map(ge, order, order[1:])):\n",
        "            if any(map(ge, order[:1], order[1:2])):\n",
        ("tests/test_record.py::test_from_json_refuses_what_from_space_cannot_write",),
    ),
    Mutant(
        "only FileNotFoundError is a cache miss",
        "src/mlp/cli.py",
        "    except (FileNotFoundError, NotADirectoryError):\n",
        "    except FileNotFoundError:\n",
        ("tests/test_cli.py::test_cache_dir_that_is_a_file_only_warns",),
    ),
    # the record writers
    Mutant(
        "from_space spells every coefficient of each vector",
        "src/mlp/record.py",
        "out = spelt[id(vecs)] = [list(map(value, vec)) for vec in vecs]",
        "out = spelt[id(vecs)] = [[frac_str(c) for c in vec] for vec in vecs]",
        ("tests/test_record.py::test_to_json_spells_each_vector_once",),
    ),
    Mutant(
        "to_json spells every coefficient of each vector",
        "src/mlp/record.py",
        "out = blocks[id(vec)] = _layout(list(map(quoted, vec)), \" \" * 6)",
        "out = blocks[id(vec)] = _layout([f'\"{frac_str(c)}\"' for c in vec], \" \" * 6)",
        ("tests/test_record.py::test_to_json_spells_each_vector_once",),
    ),
    # slash matrices, fixed spaces and transport
    Mutant(
        "slash columns transposed",
        "src/mlp/polyspace.py",
        "    rows = list(zip(*cols))\n",
        "    rows = cols\n",
        ("tests/test_record.py::test_printed_basis_is_certified",),
    ),
    Mutant(
        "the d = 0 shift without its factor c",
        "src/mlp/polyspace.py",
        "q = [(a * lo + b * hi) * c for lo, hi in zip(col, [*col[1:], 0])]",
        "q = [a * lo + b * hi for lo, hi in zip(col, [*col[1:], 0])]",
        ("tests/test_polyspace.py::test_slash_matrix_matches_reference_expansion",),
    ),
    Mutant(
        "back-substitution leaves the vector unscaled",
        "src/mlp/polyspace.py",
        "                v = [x * scale for x in v]\n",
        "",
        ("tests/test_polyspace.py::test_fixed_space_matches_fraction_reference",),
    ),
    Mutant(
        "back-substitution leaves the gathered sums unscaled",
        "src/mlp/polyspace.py",
        "                sums = {r: x * scale for r, x in sums.items()}\n",
        "",
        ("tests/test_polyspace.py::test_fixed_space_matches_fraction_reference",),
    ),
    Mutant(
        "back-substitution skips the lowest pivot",
        "src/mlp/polyspace.py",
        "for ri in range(bisect_left(pivots, free) - 1, -1, -1):",
        "for ri in range(bisect_left(pivots, free) - 1, 0, -1):",
        ("tests/test_polyspace.py::test_fixed_space_pins",),
    ),
    Mutant(
        "a fixed-space root transported by the column path",
        "src/mlp/polyspace.py",
        "out = tuple(zip(*m.mat)) if vecs is units else tuple(m.apply(v) for v in vecs)",
        "out = tuple(zip(*m.mat))",
        ("tests/test_record.py::test_printed_basis_is_certified",),
    ),
    # gluing
    Mutant(
        "a twin's word taken as gen, not its inverse",
        "src/mlp/gluing.py",
        "            words[e.dst] = e.gen.inv()\n",
        "            words[e.dst] = e.gen\n",
        ("tests/test_record.py::test_printed_basis_is_certified",),
    ),
)


def _failed(output: str) -> set[str]:
    """The node ids pytest -rf reports as failed."""
    return {
        line[len("FAILED "):].partition(" - ")[0]
        for line in output.splitlines()
        if line.startswith("FAILED ")
    }


def run(mutant: Mutant) -> tuple[str, str]:
    """The mutant's verdict, killed, survived or stale, and why."""
    with tempfile.TemporaryDirectory(prefix="mlp-mutant-") as tmp:
        for name in COPIED:
            src, dst = ROOT / name, Path(tmp) / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        path = Path(tmp) / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale", f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--tb=no", "-rf", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=tmp, env=env, capture_output=True, text=True,
        )
    if proc.returncode not in (0, 1):
        lines = (proc.stdout + proc.stderr).strip().splitlines()
        why = next((line for line in lines if line.startswith("ERROR")), lines[-1] if lines else "")
        return "stale", f"pytest exited {proc.returncode}: {why}"
    failed = _failed(proc.stdout)
    passed = [t for t in mutant.tests if not any(f == t or f.startswith(t + "[") for f in failed)]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "killed", ""


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no such mutant: {sorted(unknown)}", file=sys.stderr)
        return 2
    bad = 0
    for mutant in chosen:
        start = time.perf_counter()
        verdict, why = run(mutant)
        bad += verdict != "killed"
        note = f"  ({why})" if why else ""
        print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {mutant.name}{note}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
