"""In-memory spans around the public functions of each `mlp` module.

A span is (name, op, parent, start, end). Spans live in flat arrays while the
run goes on and are reduced only when it ends: a span's self time is its
duration minus the part of its interval that its child spans cover.

`instrument` wraps each function where its caller looks it up (the name
bound in the calling module, or the attribute on the class), so the program
runs unchanged and `restore` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

# Time spent counting sizes after a call is recorded under this name, so it
# is charged to no layer of the program.
HOOK = "bench.hook"


def self_times(parent, start, end) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the span's own interval."""
    children: dict[int, list[int]] = {}
    for sid, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append(sid)
    out = []
    for sid in range(len(start)):
        lo, hi = start[sid], end[sid]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(sid, ()), key=lambda c: start[c]):
            c_lo, c_hi = max(start[c], lo), min(end[c], hi)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((hi - lo) - covered)
    return out


class Tracer:
    """Span arrays plus size counters, filled by the wrappers `instrument` installs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.slash_words: set = set()
        self.current_op = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def summary(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self time in seconds)."""
        out: dict[str, list] = {}
        for nid, t in zip(self.name, self_times(self.parent, self.start, self.end)):
            row = out.setdefault(self.names[nid], [0, 0.0])
            row[0] += 1
            row[1] += t
        return {k: (v[0], v[1]) for k, v in out.items()}


def wrap(tracer: Tracer, name: str, fn, hook=None):
    nid, hid = tracer.name_id(name), tracer.name_id(HOOK)

    def wrapper(*args, **kwargs):
        sid = tracer.begin(nid)
        try:
            res = fn(*args, **kwargs)
        finally:
            tracer.finish(sid)
        if hook is not None:
            sid = tracer.begin(hid)
            try:
                hook(tracer, res, args)
            finally:
                tracer.finish(sid)
        return res

    return wrapper


# -- size counters read from the objects each layer returns ----------------


def _forms(t, forms, args):
    t.counters["geometry.forms"] += len(forms)


def _arrangement(t, fc, args):
    c = t.counters
    c["arrangement.arcs"] += len(fc.arcs)
    c["arrangement.slabs"] += len(fc.xs) - 1
    c["arrangement.cells"] += sum(len(s) + 1 for s in fc.slab_arcs)
    c["arrangement.faces"] += fc.face_count()


def _graph(t, graph, args):
    t.counters["gluing.edges"] += len(graph.edges)


def _orbits(t, orbits, args):
    c = t.counters
    c["gluing.orbit_count"] += len(orbits)
    c["gluing.cycles"] += sum(len(o.cycles) for o in orbits)


def _slash(t, mat, args):
    c = t.counters
    g, w = args[0], args[1]
    if (g.a, g.b, g.c, g.d) == (1, 0, 0, 1):
        c["polyspace.slash_identity"] += 1
    t.slash_words.add((g.a, g.b, g.c, g.d, w))


def _space(t, space, args):
    c = t.counters
    # distinct words are counted per solve_space call: that is the scope a
    # memo inside solve_space could reuse them in
    c["polyspace.slash_distinct"] += len(t.slash_words)
    t.slash_words.clear()
    c["polyspace.dim"] += space.dim
    bits = 0
    for elem in space.basis:
        for coeffs in elem.values():
            for q in coeffs:
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    c["polyspace.coeff_bits_max"] = max(c["polyspace.coeff_bits_max"], bits)


def _bytes_out(t, text, args):
    t.counters["record.bytes_out"] += len(text)


def _bytes_in(t, rec, args):
    t.counters["record.bytes_in"] += len(args[-1])


# span name -> (where callers look the function up, size hook). A location is
# "module:attr" or "module:Class.attr", module relative to the mlp package.
PATCHES = {
    "geometry.enumerate_forms": (["arrangement:enumerate_forms"], _forms),
    "arrangement.build": (["cli:build_arrangement", "polyspace:build_arrangement"], _arrangement),
    "gluing.build_graph": (["cli:build_gluing_graph", "polyspace:build_gluing_graph"], _graph),
    "gluing.orbits": (["cli:orbits_and_cycles", "polyspace:orbits_and_cycles"], _orbits),
    "polyspace.compute_space": (["cli:compute_space"], None),
    "polyspace.solve_space": (["cli:solve_space", "polyspace:solve_space"], _space),
    "polyspace.slash_matrix": (["polyspace:slash_matrix"], _slash),
    "polyspace.slash_apply": (["polyspace:SlashMatrix.apply"], None),
    "polyspace.fixed_space": (["polyspace:fixed_space"], None),
    "record.from_space": (["record:ResultRecord.from_space"], None),
    "record.to_json": (["record:ResultRecord.to_json"], _bytes_out),
    "record.from_json": (["record:ResultRecord.from_json"], _bytes_in),
    "record.render_poly": (["cli:render_poly"], None),
    "cli.main": (["cli:main"], None),
    "cli.sweep_task": (["cli:_sweep_task"], None),
}


def instrument(tracer: Tracer) -> tuple[list, list[str]]:
    """Install the wrappers; return (undo list for `restore`, locations missing).

    A location the program no longer has is skipped and reported, so a
    refactor that moves a function loses that span instead of the run.
    """
    undo, missing = [], []
    for name, (locations, hook) in PATCHES.items():
        for loc in locations:
            mod_name, _, path = loc.partition(":")
            owner = importlib.import_module(f"mlp.{mod_name}")
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except AttributeError:
                missing.append(loc)
                continue
            if isinstance(raw, classmethod):
                new = classmethod(wrap(tracer, name, raw.__func__, hook))
            else:
                new = wrap(tracer, name, raw, hook)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))
    return undo, missing


def restore(undo: list) -> None:
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
