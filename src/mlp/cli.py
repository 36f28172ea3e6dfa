"""Command-line interface.

Subcommands: forms, dim, basis, faces, sweep. Exit codes: 0 success,
1 a sweep check failed, 2 bad discriminant or usage, 3 bad weight, 4 I/O
trouble, quietly when stdout's reader has gone.
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
import re
import sys
import tempfile
from contextlib import ExitStack, suppress

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


# An option's value may start with "-" only where argparse reads it as a
# negative number, not as an option: no option of mlp looks like one.
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")

_Command = tuple[argparse.ArgumentParser, dict[str, argparse.Action]]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, str, dict[str, _Command]]:
    """The parser, the dest of its subcommand and its option table, built once
    per process: parse_args keeps no state in them. The table maps each
    subcommand to its parser and each of its option strings to the action
    add_argument returned for it."""
    parser = argparse.ArgumentParser(
        prog="mlp",
        description="Exact dimensions and bases of modular local polynomial spaces.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    table: dict[str, _Command] = {}

    def command(name: str, func, summary: str):
        """Add subcommand `name`, and return its add_argument, which also
        files each action it adds in the table."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        options: dict[str, argparse.Action] = {}
        table[name] = p, options

        def add(*args, **kwargs) -> None:
            action = p.add_argument(*args, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))

        return add

    add = command("forms", cmd_forms, "list the geodesic forms meeting the domain")
    add("--disc", type=int, required=True)

    add = command("dim", cmd_dim, "dimension record as JSON")
    add("--disc", type=int, required=True)
    add("--weight", type=int, required=True)
    add("--augmented", action="store_true", help="drop all matching conditions")

    add = command("basis", cmd_basis, "explicit basis, face by face")
    add("--disc", type=int, required=True)
    add("--weight", type=int, required=True)
    add("--augmented", action="store_true")
    add("--json", metavar="PATH", help="also write the raw record here")

    add = command("faces", cmd_faces, "face counts, flags, optional SVG")
    add("--disc", type=int, required=True)
    add("--svg", metavar="PATH", help="write a picture of the decomposition")
    add("--precision", type=_positive_int, default=12, help="SVG significant digits")

    add = command("sweep", cmd_sweep, "verify the dimension laws over a range")
    add("--max-disc", type=_positive_int, required=True, help="the largest D swept")
    add("--weights", default="0,-2,-4",
        help="comma-separated; write --weights=-2,-4 when the first is negative")
    add("--jobs", type=_positive_int, default=1, help="worker processes")
    add("--augmented", action="store_true")
    return parser, sub.dest, table


def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process."""
    return _parsers()[0]


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """What `build_parser().parse_args(argv)` returns, read straight through
    the option table, or None.

    The read takes only a subcommand followed by its options, each spelt in
    full, given once and followed by its value unless it is a flag; a value
    starting with "-" must be a negative number. It converts each value with
    its action's type, checks `required`, and fills the defaults and `func`
    from the subcommand's parser. Any other argv, and any value the type
    refuses, gives None and is left to argparse, the one grammar and the one
    reporter of help and errors."""
    _, dest, table = _parsers()
    if not argv or argv[0] not in table:
        return None
    parser, options = table[argv[0]]
    given: dict[argparse.Action, tuple[str, str | list]] = {}  # option, value
    tokens = iter(argv[1:])
    for option in tokens:
        action = options.get(option)
        if action is None or action in given:
            return None
        if action.nargs == 0:  # a flag, which argparse hands an empty list
            given[action] = option, []
            continue
        text = next(tokens, None)
        if action.nargs is not None or text is None or (
            text.startswith("-") and not _NEGATIVE.fullmatch(text)
        ):
            return None
        given[action] = option, text
    values = {dest: argv[0], "func": parser.get_default("func")}
    for action in options.values():
        if action.required and action not in given:
            return None
        if action.default is not argparse.SUPPRESS:
            values[action.dest] = action.default
    args = argparse.Namespace(**values)
    try:
        # each action stores its value as it does under argparse
        for action, (option, value) in given.items():
            action(parser, args, action.type(value) if action.type else value, option)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a closed stdout shows here rather than in the flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader has gone (`mlp sweep | head -1`) and has no use for
        # a message. Closing the process's own stdout drops what it still
        # buffers, so the flush at exit has nothing left to fail on.
        if sys.stdout is sys.__stdout__:
            with suppress(OSError):
                sys.stdout.close()
        return 4
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
