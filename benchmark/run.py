"""End-to-end and per-layer benchmark of the `mlp` pipeline.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from a source checkout: `mlp` is imported from `src/` next to this
directory and driven in-process through `mlp.cli.main(argv)` with stdout
captured, so interpreter start-up does not swamp millisecond queries. Every
output is checked. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.

Work is done in rounds. A round is a seeded shuffle of a fixed multiset of
operations, and a run stops at the first round boundary after `--seconds`,
so every seed does the same work per round and per-round counts repeat
exactly. See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


class Op(NamedTuple):
    cmd: str  # "sweep", "dim" or "basis"; "cold" files set-up's records in the digest
    disc: int = 0
    k: int = 0

    def argv(self) -> list[str]:
        if self.cmd == "sweep":
            return list(SWEEP_ARGV)
        return [self.cmd, "--disc", str(self.disc), "--weight", str(self.k)]


def valid_discs(limit: int) -> list[int]:
    return [d for d in range(1, limit + 1) if d % 4 in (0, 1)]


SWEEP_MAX, SWEEP_WEIGHTS = 150, [0, -2, -4]
SWEEP_ARGV = ["sweep", "--max-disc", str(SWEEP_MAX),
              "--weights", ",".join(map(str, SWEEP_WEIGHTS)), "--jobs", "1"]

# Cold queries over D <= 100: half square D (transport only), half not
# (fixed_space runs), each half taking each weight six times.
HEAVY = [(d, k) for k, ds in [(-8, (1, 9, 25, 49, 64, 81, 5, 21, 40, 57, 76, 97)),
                              (-10, (1, 4, 16, 25, 36, 49, 13, 29, 41, 60, 69, 92)),
                              (-12, (1, 4, 9, 16, 25, 36, 8, 33, 45, 65, 77, 85))] for d in ds]

WARM = [(d, k) for k in (0, -2, -4) for d in valid_discs(100)]
MISSES = [(d, -6) for d in valid_discs(33)]


def rank(n: int, p: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, -(-p * n // 100))


def percentile(sorted_vals: list[float], p: int) -> float:
    return sorted_vals[rank(len(sorted_vals), p) - 1]


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least 10 of n samples above it."""
    if n <= 10:
        return None
    return 100 * (n - 10) // n


def call(cli, argv: list[str]) -> tuple[int, str, str]:
    """One `mlp` command in-process; an escaping exception counts as exit 1."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        err.write(traceback.format_exc())
        rc = 1
    return rc, out.getvalue(), err.getvalue()


# -- workloads -----------------------------------------------------------------


class Workload:
    """Inputs, the operations of one round and the check of each output."""

    units_per_op = 1

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.outputs: dict[Op, str] = {}
        self.bytes_written = 0
        self.setup_attempted = self.setup_failed = 0

    def prepare(self, cli) -> None:
        os.environ.pop("MLP_CACHE_DIR", None)

    def round(self, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out: str) -> str | None:
        raise NotImplementedError

    def verify(self, op: Op, rc: int, out: str, err: str) -> str | None:
        """Exit code, the workload's own check, then byte-identity with the
        first output seen for the same operation."""
        if rc != 0:
            return f"{op.argv()} exited {rc}: {err.strip()[-300:]}"
        bad = self.check(op, out)
        if bad is None and self.outputs.setdefault(op, out) != out:
            bad = f"{op.argv()} printed different bytes than before"
        return bad

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in sorted(self.outputs):
            h.update(repr(op).encode() + b"\0" + self.outputs[op].encode() + b"\0")
        return h.hexdigest()


class Sweep(Workload):
    """The north-star command; one op is one whole sweep of (D, k) pairs."""

    units_per_op = len(valid_discs(SWEEP_MAX)) * len(SWEEP_WEIGHTS)

    def round(self, rng):
        return [Op("sweep")]

    def check(self, op, out):
        return checks.check_sweep(out, valid_discs(SWEEP_MAX), SWEEP_WEIGHTS)


class DimHeavy(Workload):
    def round(self, rng):
        ops = [Op("dim", d, k) for d, k in HEAVY]
        rng.shuffle(ops)
        return ops

    def check(self, op, out):
        return checks.check_record(out, op.disc, op.k)


class DimCached(Workload):
    """Every warmed key once as `dim` and once as `basis`, plus each miss
    key twice; a miss's record is removed after it is checked, so misses
    stay misses and every round does the same work."""

    def prepare(self, cli):
        self.cache = Path(tempfile.mkdtemp(prefix="cache-", dir=self.workdir))
        os.environ["MLP_CACHE_DIR"] = str(self.cache)
        self.cold: dict[tuple[int, int], str] = {}
        for d, k in WARM:
            op = Op("dim", d, k)
            rc, out, err = call(cli, op.argv())
            self.setup_attempted += 1
            bad = f"warm-up {op.argv()} exited {rc}" if rc else checks.check_record(out, d, k)
            if bad:
                self.setup_failed += 1
                print(f"FAIL {bad}", file=sys.stderr)
            self.cold[(d, k)] = out
            self.outputs[Op("cold", d, k)] = out
        self.warm_files = self._files()

    def _files(self) -> set[str]:
        return set(os.listdir(self.cache))

    def round(self, rng):
        ops = [Op(cmd, d, k) for cmd in ("dim", "basis") for d, k in WARM]
        ops += [Op("dim", d, k) for d, k in MISSES] * 2
        rng.shuffle(ops)
        return ops

    def check(self, op, out):
        cold = self.cold.get((op.disc, op.k))
        new = {}
        for name in self._files() - self.warm_files:
            new[name] = (self.cache / name).read_text(encoding="utf-8")
            os.unlink(self.cache / name)
        if cold is None:
            if len(new) != 1:
                return f"miss {op.argv()} left {len(new)} new cache files"
            written = new.popitem()[1]
            self.bytes_written += len(written.encode())
            if written != out:
                return f"miss {op.argv()}: the cached record differs from the printed one"
            return checks.check_record(out, op.disc, op.k)
        if new:
            return f"hit {op.argv()} wrote {sorted(new)}"
        if op.cmd == "dim":
            return None if out == cold else f"hit {op.argv()} differs from the cold record"
        return checks.check_basis(out, op.disc, op.k, cold)


WORKLOADS = {"sweep": Sweep, "dim-heavy": DimHeavy, "dim-cached": DimCached}


# -- measurement ----------------------------------------------------------------


def fresh_import():
    """Import `mlp` from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "mlp" or m.startswith("mlp.")]:
        del sys.modules[name]
    cli = importlib.import_module("mlp.cli")
    if Path(cli.__file__).resolve().parent != SRC / "mlp":
        raise SystemExit(f"imported mlp from {cli.__file__}, not from {SRC}")
    return cli


def setup(name: str, workdir: Path, reps: int) -> tuple[list[float], Workload, object]:
    """Import, generate inputs and warm up `reps` times (at least); the
    last repetition's state is the one measured."""
    times: list[float] = []
    while len(times) < reps or (len(times) < 25 and sum(times) < 1.0):
        if len(times):
            shutil.rmtree(workdir)
            workdir.mkdir()
        t0 = perf_counter()
        cli = fresh_import()
        wl = WORKLOADS[name](workdir)
        wl.prepare(cli)
        times.append(perf_counter() - t0)
    return times, wl, cli


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.op_time = 0.0


def run_round(cli, wl: Workload, ops: list[Op], tally: Tally, tracer=None, cmds=None) -> list[float]:
    """Run and check one round; return the latency of each op."""
    latencies = []
    for op in ops:
        if tracer is not None:
            tracer.current_op = len(cmds)
            cmds.append(op.cmd)
        t0 = perf_counter()
        rc, out, err = call(cli, op.argv())
        dt = perf_counter() - t0
        tally.attempted += 1
        tally.op_time += dt
        latencies.append(dt)
        bad = wl.verify(op, rc, out, err)
        if bad is not None:
            tally.failed += 1
            print(f"FAIL {bad}", file=sys.stderr)
    return latencies


def timed_sweep_tasks(cli, samples: list[float]):
    """Time each discriminant of a sweep: op latency for `sweep` is per D."""
    inner = cli._sweep_task

    def task(t):
        t0 = perf_counter()
        try:
            return inner(t)
        finally:
            samples.append(perf_counter() - t0)

    cli._sweep_task = task
    return lambda: setattr(cli, "_sweep_task", inner)


def measure(args, workdir: Path) -> dict:
    times, wl, cli = setup(args.workload, workdir, reps=3)
    rng = random.Random(args.seed)
    tally = Tally()
    per_d: list[float] = []
    undo = timed_sweep_tasks(cli, per_d) if args.workload == "sweep" else None
    # one sorted latency list per round; on `sweep` a sample is one D
    rounds: list[list[float]] = []
    t0 = perf_counter()
    try:
        while not rounds or perf_counter() - t0 < args.seconds:
            lat = run_round(cli, wl, wl.round(rng), tally)
            rounds.append(sorted(per_d if undo else lat))
            per_d.clear()
    finally:
        if undo:
            undo()
    wall = perf_counter() - t0
    # Every round is the same multiset, so percentiles are taken per round and
    # the median over rounds is reported: the percentile then does not move
    # with the number of rounds that fit in --seconds.
    m = len(rounds[0])
    p_tail = tail_percentile(m) or 100
    attempted = tally.attempted + wl.setup_attempted
    failed = tally.failed + wl.setup_failed
    metrics = {
        "setup_s": (statistics.median(times), "s"),
        "ops_per_s": (tally.attempted * wl.units_per_op / tally.op_time, "1/s"),
        "op_p50_ms": (statistics.median(statistics.median(r) for r in rounds) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(percentile(r, p_tail) for r in rounds) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, {tally.attempted} ops "
          f"in {tally.op_time:.3f} s of op time, {wall:.3f} s wall")
    print(f"setup repetitions {len(times)}: " + " ".join(f"{t:.4f}" for t in times))
    print(f"latency samples {m} per round ({'per discriminant' if undo else 'per query'}); "
          f"tail is p{p_tail} with {m - rank(m, p_tail)} samples beyond; medians over {len(rounds)} rounds")
    print(f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted})")
    print(f"outputs sha256 {wl.digest()}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return result(failed == 0, attempted, failed, metrics)


def traced_rounds(tracer: spans.Tracer, bounds: list[int], counters: list):
    """Per-round counts: span calls by name plus the size counters."""
    names = tracer.name
    rows = []
    for r, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        row = dict(counters[r])
        for nid in names[lo:hi]:
            key = tracer.names[nid] + ".calls"
            row[key] = row.get(key, 0) + 1
        rows.append(row)
    return rows


def measure_traced(args, workdir: Path) -> dict:
    times, wl, cli = setup(args.workload, workdir, reps=1)
    rng = random.Random(args.seed)
    tracer = spans.Tracer()
    # Untraced and traced rounds alternate, so that the overhead is taken
    # between neighbouring rounds and drift in machine speed mostly cancels.
    ref, tally, cmds, bounds, counters, pairs = Tally(), Tally(), [], [0], [], []
    t0 = perf_counter()
    while len(counters) < 2 or perf_counter() - t0 < args.seconds:
        untraced = ref.op_time
        run_round(cli, wl, wl.round(rng), ref)
        untraced = ref.op_time - untraced
        undo, missing = spans.instrument(tracer)
        try:
            traced, wl.bytes_written = tally.op_time, 0
            run_round(cli, wl, wl.round(rng), tally, tracer, cmds)
            traced = tally.op_time - traced
        finally:
            spans.restore(undo)
        pairs.append((untraced, traced))
        tracer.counters["cli.cache_bytes_written"] = wl.bytes_written
        counters.append(tracer.counters)
        tracer.counters = Counter()
        bounds.append(len(tracer.start))
    for loc in missing:
        print(f"note: mlp.{loc} not found, its span is not recorded", file=sys.stderr)
    rounds = len(counters)
    per_round = traced_rounds(tracer, bounds, counters)
    repeat_ok = all(row == per_round[0] for row in per_round)
    if not repeat_ok:
        for r, row in enumerate(per_round[1:], start=1):
            diff = {k for k in row.keys() | per_round[0].keys() if row.get(k) != per_round[0].get(k)}
            if diff:
                print(f"FAIL round {r} counts differ from round 0: {sorted(diff)}", file=sys.stderr)
    counts = per_round[0]
    counts_digest = hashlib.sha256(json.dumps(sorted(counts.items())).encode()).hexdigest()
    summary = tracer.summary()
    self_s = {name: t / rounds for name, (_, t) in summary.items()}

    computed = {tracer.op[s] for s in range(len(tracer.start))
                if tracer.names[tracer.name[s]] == "polyspace.compute_space"}
    queries = [i for i, c in enumerate(cmds) if c in ("dim", "basis")]
    hits = sum(1 for i in queries if i not in computed)
    slash_calls = counts.get("polyspace.slash_matrix.calls", 0)

    metrics: dict[str, tuple[float, str]] = {}
    for name in ["geometry.enumerate_forms", "arrangement.build", "gluing.build_graph",
                 "gluing.orbits", "polyspace.solve_space", "polyspace.slash_matrix",
                 "polyspace.slash_apply", "polyspace.fixed_space", "record.from_space",
                 "record.to_json", "record.from_json", "record.render_poly", "cli.main"]:
        metrics[f"{name}.calls"] = (counts.get(f"{name}.calls", 0), "count")
        if name not in ("geometry.enumerate_forms", "cli.main"):
            metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name, unit in [("geometry.forms", "count"), ("arrangement.arcs", "count"),
                       ("arrangement.slabs", "count"), ("arrangement.cells", "count"),
                       ("arrangement.faces", "count"), ("gluing.edges", "count"),
                       ("gluing.orbit_count", "count"), ("gluing.cycles", "count"),
                       ("polyspace.dim", "count"), ("polyspace.coeff_bits_max", "bits"),
                       ("record.bytes_out", "bytes"), ("record.bytes_in", "bytes"),
                       ("cli.cache_bytes_written", "bytes")]:
        metrics[name] = (counts.get(name, 0), unit)
    metrics["polyspace.slash_identity_ratio"] = (
        counts.get("polyspace.slash_identity", 0) / slash_calls if slash_calls else 0.0, "ratio")
    metrics["polyspace.slash_distinct_ratio"] = (
        counts.get("polyspace.slash_distinct", 0) / slash_calls if slash_calls else 0.0, "ratio")
    metrics["cli.self_s"] = (sum(t for n, t in self_s.items() if n.startswith("cli.")), "s")
    metrics["cli.cache_hit_ratio"] = (hits / len(queries) if queries else 0.0, "ratio")
    overhead = statistics.median(t - u for u, t in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")

    print(f"workload {args.workload} seed {args.seed} traced: {rounds} rounds of "
          f"{tally.attempted // rounds} ops, {len(tracer.start)} spans")
    print("tracing overhead per round, traced - untraced: " + ", ".join(
        f"{t:.4f} - {u:.4f} s" for u, t in pairs) + f"; median {overhead:.4f} s")
    print(f"per-round counts repeat across rounds: {'yes' if repeat_ok else 'NO'}; "
          f"counts sha256 {counts_digest}")
    print(f"cache hits {hits} of {len(queries)} dim/basis ops; "
          f"slash_matrix calls {slash_calls} per round")
    print(f"outputs sha256 {wl.digest()}")
    print("self time per round, by span:")
    for name in sorted(summary):
        calls, total = summary[name]
        print(f"  {name:28s} calls {calls // rounds:9d}  self {total / rounds:10.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    attempted = ref.attempted + tally.attempted + wl.setup_attempted
    failed = ref.failed + tally.failed + wl.setup_failed
    return result(failed == 0 and repeat_ok, attempted, failed, metrics)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mlp" / "__init__.py").is_file():
        print(f"error: no mlp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        res = (measure_traced if args.trace else measure)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still has its directory here
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
