"""Tests of the benchmark's own arithmetic and checks: python3 -m pytest benchmark"""

from __future__ import annotations

import sys

import pytest

import checks
import run
import spans


def test_self_time_subtracts_the_union_of_clipped_children():
    # 0 root [0, 10]; 1 and 2 overlap inside it; 3 nests in 1; 4 runs past the root's end
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 1.5, 9.0]
    end = [10.0, 3.0, 5.0, 2.0, 12.0]
    got = spans.self_times(parent, start, end)
    # root: children cover [1, 5] and [9, 10]; 1: its child covers [1.5, 2]
    assert got == pytest.approx([5.0, 1.5, 3.0, 0.5, 3.0])


def test_self_times_of_wrapped_calls_sum_to_the_outer_duration():
    tracer = spans.Tracer()
    seen = []
    inner = spans.wrap(tracer, "inner", lambda x: x + 1, hook=lambda t, res, args: seen.append(res))
    outer = spans.wrap(tracer, "outer", lambda x: inner(inner(x)))
    assert outer(1) == 3 and seen == [2, 3]
    summary = tracer.summary()
    assert {n: c for n, (c, _) in summary.items()} == {"outer": 1, "inner": 2, spans.HOOK: 2}
    assert list(tracer.parent) == [-1, 0, 0, 0, 0]
    total = sum(t for _, t in summary.values())
    assert total == pytest.approx(tracer.end[0] - tracer.start[0], abs=1e-9)


@pytest.mark.parametrize("n,p", [(11, 9), (20, 50), (36, 72), (75, 86), (334, 97), (1000, 99)])
def test_tail_percentile_values(n, p):
    assert run.tail_percentile(n) == p


def test_tail_percentile_is_the_highest_with_ten_beyond():
    assert run.tail_percentile(10) is None
    for n in range(11, 3000):
        p = run.tail_percentile(n)
        vals = list(range(n))
        beyond = sum(1 for v in vals if v > run.percentile(vals, p))
        assert beyond >= 10
        if p < 100:
            assert sum(1 for v in vals if v > run.percentile(vals, p + 1)) < 10


def test_truncated_record_fails_the_check():
    assert "does not parse" in checks.check_record('{"D": 999', 5, -2)
    assert checks.check_record("[1, 2]", 5, -2) is not None


@pytest.fixture
def cli(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(run.SRC))
    monkeypatch.setenv("MLP_CACHE_DIR", str(tmp_path))
    yield run.fresh_import()
    for name in [m for m in sys.modules if m == "mlp" or m.startswith("mlp.")]:
        del sys.modules[name]


def test_truncated_cache_record_counts_as_failures(cli, tmp_path):
    wl = run.DimCached(tmp_path)
    wl.cache = tmp_path
    rc, cold, _ = run.call(cli, ["dim", "--disc", "5", "--weight", "-2"])
    assert rc == 0 and checks.check_record(cold, 5, -2) is None
    wl.cold = {(5, -2): cold}
    wl.warm_files = wl._files()
    (path,) = tmp_path.iterdir()
    path.write_text('{"D": 999', encoding="utf-8")

    tally = run.Tally()
    ops = [run.Op("dim", 5, -2), run.Op("basis", 5, -2)]
    run.run_round(cli, wl, ops, tally)
    assert (tally.attempted, tally.failed) == (2, 2)


def test_sweep_check_rejects_a_missing_line():
    lines = [f"D={d} k=0 dim=2 rF=2 orbits=2 bound=2 evenSquare=false" for d in (1, 5)]
    ok = "\n".join(lines + ["sweep ok: 2 discriminants, weights [0]"]) + "\n"
    assert checks.check_sweep(ok, [1, 5], [0]) is None
    short = "\n".join(lines[:1] + ["sweep ok: 2 discriminants, weights [0]"])
    assert "result lines" in checks.check_sweep(short, [1, 5], [0])
