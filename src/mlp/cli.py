"""Command-line interface.

Subcommands: forms, dim, basis, faces, sweep. Exit codes: 0 success,
1 a sweep check failed, 2 bad discriminant, 3 bad weight, 4 I/O trouble.
Set MLP_CACHE_DIR to cache dim/basis records on disk; identical queries then
return byte-identical output without recomputation. A cached record that does
not answer its query is refused with exit 4, never served.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from math import gcd

from . import __version__
from .arrangement import build_arrangement
from .geometry import InvalidDiscriminant, check_discriminant, enumerate_forms, is_even_square
from .gluing import build_gluing_graph, orbits_and_cycles
from .polyspace import (
    InvalidWeight,
    check_laws,
    check_weight,
    compute_space,
    cusp_law,
    dim_laws,
    solve_space,
)
from .record import FLAGS, KEYS, ResultRecord, _layout, frac_str, render_poly
from .svgfig import svg_figure


def _cache_path(disc: int, k: int, augmented: bool) -> str | None:
    cache = os.environ.get("MLP_CACHE_DIR")
    if not cache:
        return None
    tag = "_aug" if augmented else ""
    return os.path.join(cache, f"v{__version__}_D{disc}_k{k}{tag}.json")


def _store(path: str, text: str) -> None:
    """Write a record under its cache name atomically. A cache that cannot be
    written costs only the reuse, so an OSError becomes a warning."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        print(f"warning: cache record {path} not written: {exc}", file=sys.stderr)


# face keys, joined by commas, and a coefficient as frac_str spells them
_FACES = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")
_COEFF = re.compile(r"(-?[1-9][0-9]*|0)/([1-9][0-9]*)")


def _answers(rec: ResultRecord, disc: int, k: int, augmented: bool) -> bool:
    """Whether a parsed cache record answers this query: it has the keys and
    flags from_space writes, in that order; its key fields equal the query's
    with their JSON types (5.0 is not 5, 0 is not false) and evenSquare is
    D's; rF, cuspFaces and orbitCount are ints with 0 < orbitCount <= rF that
    obey cusp_law and dim_laws; and its basis is dim objects mapping face
    numbers below rF to lists of 1 - k "p/q" strings in lowest terms."""
    basis, flags = rec["basis"], rec["flags"]
    key = (rec["D"], rec["k"], flags["augmented"], rec["toolVersion"], rec["dim"])
    rf, cusp, orbit_count = counts = (rec["rF"], rec["cuspFaces"], rec["orbitCount"])
    if (
        tuple(rec) != KEYS
        or tuple(flags) != FLAGS
        or flags["evenSquare"] is not is_even_square(disc)
        or key != (disc, k, augmented, __version__, len(basis))
        or tuple(map(type, key + counts)) != (int, int, bool, str, int, int, int, int)
        or not 0 < orbit_count <= rf
        or cusp_law(disc, cusp)
        or dim_laws(disc, k, augmented, rec["dim"], rf, orbit_count)
        or type(basis) is not list
        or not {dict}.issuperset(map(type, basis))
    ):
        return False
    # a warm hit walks every key and coefficient once and reads only the
    # distinct ones; a non-string makes join(), set() or the match raise
    # TypeError, refusing the record
    faces = set().union(*basis)
    if not (_FACES.fullmatch(",".join(faces)) and max(map(int, faces)) < rf):
        return False
    coeffs = list(chain.from_iterable(map(dict.values, basis)))
    if not ({list}.issuperset(map(type, coeffs)) and {1 - k}.issuperset(map(len, coeffs))):
        return False
    for spelt in set(chain.from_iterable(coeffs)):
        m = _COEFF.fullmatch(spelt)
        if m is None or gcd(int(m[1]), int(m[2])) != 1:
            return False
    return True


def _record(disc: int, k: int, augmented: bool) -> tuple[str, ResultRecord]:
    """The record's JSON text and object. A cached record is served verbatim,
    and only if it answers this query."""
    check_discriminant(disc)
    check_weight(k)
    path = _cache_path(disc, k, augmented)
    if path and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            rec = ResultRecord.from_json(text)
            ok = _answers(rec, disc, k, augmented)
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            raise OSError(f"cache record {path} does not answer this query; remove it")
        return text, rec
    rec = ResultRecord.from_space(compute_space(disc, k, augmented=augmented))
    text = rec.to_json()
    if path:
        _store(path, text)
    return text, rec


def cmd_forms(args: argparse.Namespace) -> int:
    forms = enumerate_forms(args.disc)
    print(json.dumps([q.as_list() for q in forms], separators=(",", ":")))
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    text, _ = _record(args.disc, args.weight, args.augmented)
    print(text, end="")
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    text, rec = _record(args.disc, args.weight, args.augmented)
    print(
        f"D={rec['D']} k={rec['k']} dim={rec['dim']} rF={rec['rF']} "
        f"cuspFaces={rec['cuspFaces']} orbitCount={rec['orbitCount']}"
    )
    for i, elem in enumerate(rec["basis"], start=1):
        print(f"element {i}")
        for face in sorted(elem, key=int):
            print(f"  face {face}: {render_poly(elem[face])}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_faces(args: argparse.Namespace) -> int:
    fc = build_arrangement(args.disc)
    # laid out as json.dumps(indent=2) would; the "p/q" samples need no escaping
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
    print(_layout(fields, "", "{}"))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(svg_figure(fc, precision=args.precision))
    return 0


# The slash matrices and fixed spaces of one sweep, shared by its tasks:
# cmd_sweep empties it before the first, and each --jobs worker fills its own.
_SWEEP_MEMO: dict = {}


def _sweep_task(task: tuple[int, tuple[int, ...], bool]) -> tuple[list[str], list[str]]:
    disc, weights, augmented = task
    fc = build_arrangement(disc)
    orbits = orbits_and_cycles(build_gluing_graph(fc))
    rf = fc.face_count()
    even_sq = "true" if fc.even_square else "false"
    spaces = [solve_space(fc, orbits, k, augmented=augmented, memo=_SWEEP_MEMO) for k in weights]
    lines = [
        f"D={disc} k={s.k} dim={s.dim} rF={rf} orbits={len(orbits)}"
        f" bound={s.bound} evenSquare={even_sq}"
        for s in spaces
    ]
    return lines, check_laws(fc, orbits, spaces)


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        weights = tuple(int(tok) for tok in args.weights.split(",") if tok.strip())
    except ValueError:
        raise InvalidWeight(f"cannot parse weight list {args.weights!r}")
    if not weights:
        raise InvalidWeight("empty weight list")
    for k in weights:
        check_weight(k)
    discs = [d for d in range(1, args.max_disc + 1) if d % 4 in (0, 1)]
    tasks = [(d, weights, args.augmented) for d in discs]
    _SWEEP_MEMO.clear()
    if args.jobs > 1:
        # a pool forks every worker at its first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]
    all_fails: list[str] = []
    for lines, fails in results:
        for line in lines:
            print(line)
        all_fails.extend(fails)
    if all_fails:
        for f in all_fails:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"sweep ok: {len(discs)} discriminants, weights {list(weights)}")
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {n}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="mlp",
        description="Exact dimensions and bases of modular local polynomial spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forms", help="list the geodesic forms meeting the domain")
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=cmd_forms)

    p = sub.add_parser("dim", help="dimension record as JSON")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--augmented", action="store_true", help="drop all matching conditions")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("basis", help="explicit basis, face by face")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--augmented", action="store_true")
    p.add_argument("--json", metavar="PATH", help="also write the raw record here")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("faces", help="face counts, flags, optional SVG")
    p.add_argument("--disc", type=int, required=True)
    p.add_argument("--svg", metavar="PATH", help="write a picture of the decomposition")
    p.add_argument("--precision", type=_positive_int, default=12, help="SVG significant digits")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("sweep", help="verify the dimension laws over a range")
    p.add_argument("--max-disc", type=_positive_int, required=True)
    p.add_argument("--weights", default="0,-2,-4")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--augmented", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidDiscriminant as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidWeight as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
