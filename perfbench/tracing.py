"""Spans and counters recorded from outside the program.

The tracer wraps dstarlab's public callables at the attribute each caller
looks up (``dstarlab.cli.solve_pattern``, ``dstarlab.asymptotics.eval_tail``,
...): every module binding of a wrapped function is replaced, and restored on
``uninstall``.  Coarse callables become spans (name, start, end, parent),
kept in memory and written out at the end.  Calls that take about a
microsecond (ring multiplies, one tree from a generator) are only counted and
timed in aggregate: a span each would cost more than the call and hide the
shares.  Their time is charged to the innermost open span, so self times stay
right.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# span record fields
SID, NAME, START, END, PARENT, INNER = range(6)

SPANS = {
    ("dstarlab.cli", "main"): "cli.main",
    ("dstarlab.pattern_gf", "solve_pattern"): "pattern_gf.solve_pattern",
    ("dstarlab.pattern_gf", "occurrence_distribution"): "pattern_gf.occurrence_distribution",
    ("dstarlab.pseries", "cycle_index_rows"): "pseries.cycle_index_rows",
    ("dstarlab.pseries", "eval_tail"): "pseries.eval_tail",
    ("dstarlab.pseries", "planted_series"): "pseries.planted_series",
    ("dstarlab.pseries", "free_series"): "pseries.free_series",
    ("dstarlab.asymptotics", "compute_mu"): "asymptotics.compute_mu",
    ("dstarlab.asymptotics", "mu_table"): "asymptotics.mu_table",
    ("dstarlab.asymptotics", "lambda_bracket"): "asymptotics.lambda_bracket",
    ("dstarlab.asymptotics", "find_x0"): "asymptotics.find_x0",
    ("dstarlab.asymptotics", "compute_b"): "asymptotics.compute_b",
    ("dstarlab.distlab", "summarize"): "distlab.summarize",
    ("dstarlab.cache", "fetch"): "cache.fetch",
    ("dstarlab.cache", "store"): "cache.store",
    ("dstarlab.treelab", "pattern_histograms"): "treelab.pattern_histograms",
    ("dstarlab.randic_app", "conjecture_scan"): "randic_app.conjecture_scan",
    ("dstarlab.randic_app", "gnp_conjecture_check"): "randic_app.gnp_conjecture_check",
}

COUNTED_METHODS = {
    ("dstarlab.rings", "UPolyRing", "mul"): "rings.upoly.mul",
    ("dstarlab.rings", "JetRing", "mul"): "rings.jet.mul",
    ("dstarlab.rings", "RatRing", "mul"): "rings.rat.mul",
}

COUNTED_GENERATORS = {
    ("dstarlab.treelab", "gen_free_trees"): "treelab.gen_free_trees",
}

# Layers whose cost is paid while setting up; their metrics cover set-up too.
SETUP_LAYERS = ("pseries.planted_series", "pseries.free_series",
                "asymptotics.find_x0", "asymptotics.compute_b")


def _numerator_bits(coeffs) -> int:
    best = 0
    for c in coeffs:
        for q in c if isinstance(c, tuple) else (c,):
            best = max(best, int(q.numerator).bit_length())
    return best


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.facts = Counter()  # bytes, hits, escalations, ... from return values
        self.coeff_bits_max = 0
        self._undo = []
        self.pass_start = 0

    # -- wrappers ------------------------------------------------------

    def _open(self):
        stack = self._stack
        rec = [len(self.spans), None, 0.0, 0.0, stack[-1][SID] if stack else None, 0.0]
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def span(self, name, fn, inspect=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open()
            rec[NAME] = name
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
            if inspect is not None:
                t0 = perf_counter()
                inspect(args, out)
                if self._stack:  # tracer bookkeeping is not the parent's own time
                    self._stack[-1][INNER] += perf_counter() - t0
            return out

        return traced

    def counted(self, name, fn):
        calls, seconds, stack = self.calls, self.seconds, self._stack

        @functools.wraps(fn)
        def counted_call(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            calls[name] += 1
            seconds[name] += dt
            if stack:
                stack[-1][INNER] += dt
            return out

        return counted_call

    def counted_iter(self, name, fn):
        calls, seconds, stack = self.calls, self.seconds, self._stack

        @functools.wraps(fn)
        def counted_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    seconds[name] += dt
                    if stack:
                        stack[-1][INNER] += dt
                calls[name] += 1
                yield item

        return counted_gen

    # -- inspectors of return values -----------------------------------

    def _on_solve(self, args, sol):
        self.coeff_bits_max = max(self.coeff_bits_max, _numerator_bits(sol.t.c))

    def _on_fetch(self, args, data):
        self.facts["cache.fetches"] += 1
        if data is not None:
            self.facts["cache.hits"] += 1
            path = Path(args[0]) / (args[1] + ".json")
            self.facts["cache.bytes_read"] += path.stat().st_size

    def _on_store(self, args, stored):
        if stored:
            path = Path(args[0]) / (args[1] + ".json")
            self.facts["cache.bytes_written"] += path.stat().st_size

    def _on_scan(self, args, rep):
        self.facts["randic_app.escalations"] += rep.escalations
        self.facts["randic_app.checked"] += rep.checked

    # -- installation --------------------------------------------------

    def _rebind(self, orig, wrapped):
        """Point every dstarlab module binding of ``orig`` at ``wrapped``."""
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "dstarlab"]:
            for attr in [a for a, v in vars(mod).items() if v is orig]:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, orig))

    def install(self):
        """Wrap the program; every dstarlab module must be imported already."""
        inspectors = {
            "pattern_gf.solve_pattern": self._on_solve,
            "cache.fetch": self._on_fetch,
            "cache.store": self._on_store,
            "randic_app.conjecture_scan": self._on_scan,
        }
        for (modname, attr), name in SPANS.items():
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self.span(name, orig, inspectors.get(name)))
        for (modname, attr), name in COUNTED_GENERATORS.items():
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self.counted_iter(name, orig))
        for (modname, cls, attr), name in COUNTED_METHODS.items():
            owner = getattr(sys.modules[modname], cls)
            orig = owner.__dict__[attr]
            setattr(owner, attr, self.counted(name, orig))
            self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def mark_pass(self):
        """Start of the timed pass: spans and counts from here on are the pass."""
        self.pass_start = len(self.spans)
        self.calls.clear()
        self.seconds.clear()
        self.facts.clear()
        self.coeff_bits_max = 0

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": r[NAME], "start": r[START], "end": r[END], "parent": r[PARENT],
                 "counted_s": r[INNER]} for r in self.spans]
        path.write_text(json.dumps({"pass_start": self.pass_start, "spans": rows}))

    # -- derived metrics -----------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures, as {name: (value, unit)}."""
        spans = self.spans
        passed = spans[self.pass_start:]
        self_s = self_times(spans)
        incl = inclusive_seconds(spans)
        incl_pass = inclusive_seconds(spans, self.pass_start)

        def total(name, where=incl_pass):
            return where.get(name, 0.0)

        def calls(name):
            return sum(1 for r in passed if r[NAME] == name)

        def self_sum(pred):
            return sum(self_s[r[SID]] for r in passed if pred(r[NAME]))

        f = self.facts
        fetches = f["cache.fetches"]
        out = {}
        for ring in ("upoly", "jet", "rat"):
            out[f"rings.{ring}.mul.calls"] = (self.calls[f"rings.{ring}.mul"], "count")
            out[f"rings.{ring}.mul.s"] = (self.seconds[f"rings.{ring}.mul"], "s")
        out["rings.coeff_bits_max"] = (self.coeff_bits_max, "bit")
        for name in ("pseries.cycle_index_rows", "pseries.eval_tail"):
            out[name + ".calls"] = (calls(name), "count")
            out[name + ".s"] = (total(name), "s")
        for name in SETUP_LAYERS:
            out[name + ".s"] = (total(name, incl), "s")
        out["pattern_gf.solve_pattern.calls"] = (calls("pattern_gf.solve_pattern"), "count")
        out["pattern_gf.solve_pattern.s"] = (total("pattern_gf.solve_pattern"), "s")
        out["pattern_gf.solve_pattern.self_s"] = (
            self_sum(lambda n: n == "pattern_gf.solve_pattern"), "s")
        out["pattern_gf.occurrence_distribution.s"] = (
            total("pattern_gf.occurrence_distribution"), "s")
        out["asymptotics.compute_mu.s"] = (total("asymptotics.compute_mu"), "s")
        out["asymptotics.lambda_bracket.s"] = (total("asymptotics.lambda_bracket"), "s")
        out["asymptotics.self_s"] = (self_sum(lambda n: n.startswith("asymptotics.")), "s")
        out["distlab.summarize.s"] = (total("distlab.summarize"), "s")
        out["cache.fetch.calls"] = (calls("cache.fetch"), "count")
        out["cache.fetch.s"] = (total("cache.fetch"), "s")
        out["cache.bytes_read"] = (f["cache.bytes_read"], "B")
        out["cache.hit_ratio"] = (f["cache.hits"] / fetches if fetches else 0.0, "1")
        out["cache.store.calls"] = (calls("cache.store"), "count")
        out["cache.store.s"] = (total("cache.store"), "s")
        out["cache.bytes_written"] = (f["cache.bytes_written"], "B")
        out["treelab.trees"] = (self.calls["treelab.gen_free_trees"], "count")
        out["treelab.gen_free_trees.s"] = (self.seconds["treelab.gen_free_trees"], "s")
        out["treelab.pattern_histograms.s"] = (total("treelab.pattern_histograms"), "s")
        out["randic_app.conjecture_scan.s"] = (total("randic_app.conjecture_scan"), "s")
        checked = f["randic_app.checked"]
        out["randic_app.escalations"] = (f["randic_app.escalations"], "count")
        out["randic_app.escalation_ratio"] = (
            f["randic_app.escalations"] / checked if checked else 0.0, "1")
        out["randic_app.gnp_conjecture_check.s"] = (
            total("randic_app.gnp_conjecture_check"), "s")
        out["cli.self_s"] = (self_sum(lambda n: n == "cli.main"), "s")
        return out

    def layer_seconds(self) -> dict:
        """Self seconds of the timed pass by layer (a name up to its first dot).

        Counted calls belong to their own layer, so the layers partition the
        time spent inside ``cli.main``.
        """
        self_s = self_times(self.spans)
        out = defaultdict(float)
        for r in self.spans[self.pass_start:]:
            out[r[NAME].split(".")[0]] += self_s[r[SID]]
        for name, s in self.seconds.items():
            out[name.split(".")[0]] += s
        return dict(out)

    def children_seconds(self, layer: str) -> dict:
        """{entry: {name: seconds}}: inclusive seconds of the pass spans of other
        layers that a span of ``layer`` calls directly, grouped by the outermost
        span of ``layer`` above them (the layer's entry point)."""
        spans = self.spans

        def layer_of(sid):
            return spans[sid][NAME].split(".")[0]

        out = defaultdict(lambda: defaultdict(float))
        for r in spans[self.pass_start:]:
            parent = r[PARENT]
            if parent is None or layer_of(parent) != layer or r[NAME].split(".")[0] == layer:
                continue
            entry = parent
            while spans[entry][PARENT] is not None and layer_of(spans[entry][PARENT]) == layer:
                entry = spans[entry][PARENT]
            out[spans[entry][NAME]][r[NAME]] += r[END] - r[START]
        return out

def self_times(spans) -> list:
    """Self time of each span: its duration minus the part of its interval that
    its child spans cover, minus the counted calls charged to it."""
    children = defaultdict(list)
    for r in spans:
        if r[PARENT] is not None:
            children[r[PARENT]].append((r[START], r[END]))
    out = []
    for r in spans:
        covered, reach = 0.0, r[START]
        for lo, hi in sorted(children[r[SID]]):
            lo, hi = max(lo, reach), min(hi, r[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(r[END] - r[START] - covered - r[INNER])
    return out


def inclusive_seconds(spans, start: int = 0) -> dict:
    """{name: seconds} over spans[start:], not counting a span nested inside
    another span of the same name twice."""
    out = defaultdict(float)
    for r in spans[start:]:
        parent = r[PARENT]
        while parent is not None and spans[parent][NAME] != r[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            out[r[NAME]] += r[END] - r[START]
    return out
