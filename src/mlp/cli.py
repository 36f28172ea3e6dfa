"""Command-line interface.

Subcommands: forms, dim, basis, faces, sweep. Exit codes: 0 success,
1 a sweep check failed, 2 bad discriminant, 3 bad weight, 4 I/O trouble.
Set MLP_CACHE_DIR to cache dim/basis records on disk; identical queries then
return byte-identical output without recomputation. The record format, its
reader included, lives in `record`: a cached record is served only if
`ResultRecord.from_json` reads it and it names the query's D, k and augmented
flag, and is otherwise refused with exit 4.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from contextlib import ExitStack

from . import __version__
from .arrangement import build_arrangement
from .geometry import InvalidDiscriminant, check_discriminant, enumerate_forms
from .gluing import build_gluing_graph, orbits_and_cycles
from .polyspace import InvalidWeight, check_laws, check_weight, compute_space, solve_space
from .record import ResultRecord, faces_json, render_poly


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


def _record(
    disc: int, k: int, augmented: bool, *, listed: bool = False
) -> tuple[str, ResultRecord | None]:
    """The record's JSON text and object. A cached record is served verbatim,
    and only if it is well-formed (`ResultRecord.from_json` reads it) and
    names this query's D, k and augmented flag. A computed record's text is
    written straight from its space, and its object is built only when the
    caller lists it (`listed`); otherwise it is None."""
    check_discriminant(disc)
    check_weight(k)
    path = _cache_path(disc, k, augmented)
    try:
        # opened, not tested first: a record removed in between is a miss,
        # and so is a cache directory that is a file
        fh = open(path, encoding="utf-8") if path else None
    except (FileNotFoundError, NotADirectoryError):
        fh = None
    if fh is not None:
        try:
            with fh:
                text = fh.read()
            rec = ResultRecord.from_json(text)
        except ValueError:
            rec = None
        if rec is None or (rec["D"], rec["k"], rec["flags"]["augmented"]) != (disc, k, augmented):
            raise OSError(f"cache record {path} does not answer this query; remove it")
        return text, rec
    space = compute_space(disc, k, augmented=augmented)
    text = ResultRecord.to_json(space)
    if path:
        _store(path, text)
    return text, ResultRecord.from_space(space) if listed else None


def cmd_forms(args: argparse.Namespace) -> int:
    forms = enumerate_forms(args.disc)
    print(json.dumps([q.as_list() for q in forms], separators=(",", ":")))
    return 0


def cmd_dim(args: argparse.Namespace) -> int:
    text, _ = _record(args.disc, args.weight, args.augmented)
    print(text, end="")
    return 0


def cmd_basis(args: argparse.Namespace) -> int:
    text, rec = _record(args.disc, args.weight, args.augmented, listed=True)
    lines = [
        f"D={rec['D']} k={rec['k']} dim={rec['dim']} rF={rec['rF']} "
        f"cuspFaces={rec['cuspFaces']} orbitCount={rec['orbitCount']}"
    ]
    # each distinct coefficient list is rendered once; the lists of a cached
    # record are not shared, so they meet by content
    polys: dict[tuple[str, ...], str] = {}
    for i, elem in enumerate(rec["basis"], start=1):
        lines.append(f"element {i}")
        for face in elem:
            coeffs = tuple(elem[face])
            poly = polys.get(coeffs)
            if poly is None:
                poly = polys[coeffs] = render_poly(coeffs)
            lines.append(f"  face {face}: {poly}")
    print("\n".join(lines))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def cmd_faces(args: argparse.Namespace) -> int:
    fc = build_arrangement(args.disc)
    print(faces_json(fc))
    if args.svg:
        # imported here: only --svg draws
        from .svgfig import svg_figure

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
    all_fails: list[str] = []
    with ExitStack() as stack:
        if args.jobs > 1:
            # imported here: only --jobs needs the pool, and it is slow to import
            from concurrent.futures import ProcessPoolExecutor

            # a pool forks every worker at its first submit
            pool = stack.enter_context(ProcessPoolExecutor(min(args.jobs, len(tasks))))
            results = pool.map(_sweep_task, tasks)
        else:
            results = map(_sweep_task, tasks)
        # each D's lines as its task returns, in order of D
        for lines, fails in results:
            print("\n".join(lines))
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
    p.add_argument("--max-disc", type=_positive_int, required=True, help="the largest D swept")
    p.add_argument("--weights", default="0,-2,-4",
                   help="comma-separated; write --weights=-2,-4 when the first is negative")
    p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
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
