"""Spans for the traced run, recorded from outside the library.

``python3 bench/tracer.py SPEC`` runs one operation in-process with the
library's module bindings replaced by timing wrappers, and writes the
spans to the trace directory named in SPEC when the operation ends.
Nothing under ``src/`` is edited: ``from .x import f`` gives every
importing module its own name for ``f``, so ``install`` rebinds every
name in every ``stochastihedron`` module that refers to a wrapped
function.  Spans inside the library's own functions are left to the
library.

A span is ``[id, parent, name, start_ns, end_ns, attrs]``; each file of
spans also names the process and the operation id.  Calls made
hundreds of thousands of times are tallied instead (count and time per
name), and the tally time is also charged to the enclosing span, so self
times stay exact.  Process-pool workers forked during a span inherit the
wrappers; their spans name that span as parent and are appended to a
file of their own after each top-level call.

``layer_metrics`` turns the span files of one workload into the
per-layer metrics listed in ``PER_LAYER``.
"""

import functools
import json
import os
import resource
import statistics
import sys
import time
import weakref

SUBCOMMANDS = (
    "enumerate", "poset", "f-vector", "metamatrix", "constant-sheaf",
    "sphericity", "meet-join", "anodyne-classes", "sheaf-check",
    "total-positivity", "verify-identities",
)

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("contingency.enumerate_cm.s", "s"),
    ("contingency.count_cm_by_size.s", "s"),
    ("contingency.build_poset.s", "s"),
    ("contingency.elements", "count"),
    ("contingency.covers", "count"),
    ("contingency.order_index.s", "s"),
    ("contingency.order_index.rss_mb", "MB"),
    ("contingency.below_mask.s", "s"),
    ("contingency.cm_leq.us", "us"),
    ("partitions.enumerate_ordered_partitions.calls", "count"),
    ("partitions.enumerate_ordered_partitions.s", "s"),
    ("topology.lower_interval.s", "s"),
    ("topology.lower_interval.calls", "count"),
    ("topology.order_complex.s", "s"),
    ("topology.simplices", "count"),
    ("topology.homology.s", "s"),
    ("topology.homology.self_s", "s"),
    ("topology.homology.calls", "count"),
    ("topology.homology.closed_share", "ratio"),
    ("exactlinalg.smith_normal_form.calls", "count"),
    ("exactlinalg.smith_normal_form.s", "s"),
    ("exactlinalg.smith_normal_form.max_entries", "count"),
    ("exactlinalg.determinant.calls", "count"),
    ("exactlinalg.determinant.s", "s"),
    ("exactlinalg.rank.calls", "count"),
    ("exactlinalg.rank.s", "s"),
    ("metamatrix.total_positivity.s", "s"),
    ("metamatrix.verify_factorizations.s", "s"),
    ("metamatrix.det_metamatrix.s", "s"),
    ("metamatrix.metamatrix.s", "s"),
    ("strata.classify.us", "us"),
    ("strata.fnf_closure_leq.us", "us"),
    ("strata.anodyne_classes.self_s", "s"),
    ("strata.meet_check.self_s", "s"),
    ("sheaf.from_json.self_s", "s"),
    ("sheaf.validate.s", "s"),
    ("sheaf.diamonds", "count"),
    ("sheaf.is_constructible.s", "s"),
    ("sheaf.constant_sheaf.s", "s"),
    *[(f"cli.{sub}.{part}", unit) for sub in SUBCOMMANDS
      for part, unit in (("handler_s", "s"), ("emit_s", "s"), ("out_bytes", "bytes"))],
    ("cli.import_s", "s"),
    ("trace.overhead", "ratio"),
]

# module -> functions wrapped in a span each call
SPANS = {
    "contingency": ("enumerate_cm", "count_cm_by_size", "build_poset"),
    "topology": ("lower_interval", "order_complex", "homology"),
    "exactlinalg": ("smith_normal_form",),
    "metamatrix": ("metamatrix", "verify_factorizations", "det_metamatrix",
                   "total_positivity"),
    "strata": ("anodyne_classes", "meet_check"),
    "sheaf": ("constant_sheaf", "validate", "is_constructible"),
    "cli": ("main",),
}
# module -> functions called too often for a span each: tallied
TALLIES = {
    "partitions": ("enumerate_ordered_partitions",),
    "exactlinalg": ("determinant", "rank"),
    "strata": ("classify", "fnf_closure_leq"),
}
# order queries on CmPoset: the first call per poset and method builds the
# order index and gets a span; warm calls are tallied
QUERIES = ("cm_leq", "cm_leq_horizontal", "cm_leq_vertical", "below_mask")

PACKAGE = "stochastihedron"


class Tracer:
    def __init__(self, trace_dir, op_id):
        self.dir = trace_dir
        self.op_id = op_id
        self.main_pid = os.getpid()
        self._start(None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _start(self, fork_parent):
        self.pid = os.getpid()
        self.fork_parent = fork_parent
        self.next_id = 0
        self.spans = []
        self.stack = []
        self.tallies = {}
        self.cold = weakref.WeakKeyDictionary()
        self.closed = weakref.WeakSet()
        self.deferred = []

    def _after_fork(self):
        self._start(self.stack[-1][0] if self.stack else self.fork_parent)

    def open(self, name):
        span = [f"{self.pid}:{self.next_id}", self.stack[-1][0] if self.stack
                else self.fork_parent, name, 0, 0, {}]
        self.next_id += 1
        self.spans.append(span)
        self.stack.append(span)
        span[3] = time.perf_counter_ns()
        return span

    def close(self, span):
        span[4] = time.perf_counter_ns()
        self.stack.pop()

    def tally(self, name, ns):
        entry = self.tallies.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += ns
        if self.stack:
            attrs = self.stack[-1][5]
            attrs["tally_ns"] = attrs.get("tally_ns", 0) + ns

    def settle(self):
        """In a pool worker, hand finished top-level spans to the file."""
        if self.pid != self.main_pid and not self.stack:
            self._write(f"spans-{self.pid}.jsonl", "a")
            self.spans, self.tallies = [], {}

    def _write(self, name, mode, **extra):
        record = {"op": self.op_id, "pid": self.pid, "spans": self.spans,
                  "tallies": self.tallies, **extra}
        with open(os.path.join(self.dir, name), mode, encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def finish(self, **extra):
        for fn in self.deferred:
            fn()
        self._write(f"spans-{self.pid}.json", "w", **extra)


# ---------------------------------------------------------------------------
# wrappers and rebinding

def _span(tracer, name, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        if before:
            before(span[5], args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after:
            after(span[5], args, kwargs, result)
        tracer.settle()
        return result

    return wrapper


def _tally(tracer, name, fn):
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.tally(name, clock() - t0)

    return wrapper


def _query(tracer, method, fn):
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(poset, *args, **kwargs):
        seen = tracer.cold.setdefault(poset, set())
        if method in seen:
            t0 = clock()
            try:
                return fn(poset, *args, **kwargs)
            finally:
                tracer.tally(f"contingency.{method}", clock() - t0)
        seen.add(method)
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        span = tracer.open("contingency.order_index")
        try:
            return fn(poset, *args, **kwargs)
        finally:
            tracer.close(span)
            span[5]["method"] = method
            span[5]["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
            tracer.settle()

    return wrapper


def _rebind(original, replacement):
    """Point every library name bound to `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname == PACKAGE or modname.startswith(PACKAGE + "."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _is_tagged(tags, obj):
    try:
        return obj in tags
    except TypeError:
        return False


def _hooks(tracer):
    """Attributes recorded around particular calls: (before, after)."""

    def interval_after(attrs, args, kwargs, result):
        strict = kwargs.get("strict", args[2] if len(args) > 2 else True)
        if not strict:
            tracer.closed.add(result)

    def complex_after(attrs, args, kwargs, result):
        attrs["simplices"] = sum(len(level) for level in result.simplices)
        if _is_tagged(tracer.closed, args[0]):
            tracer.closed.add(result)

    def homology_before(attrs, args, kwargs):
        attrs["closed"] = _is_tagged(tracer.closed, args[0])

    def snf_before(attrs, args, kwargs):
        rows = args[0]
        attrs["entries"] = len(rows) * len(rows[0]) if rows and rows[0] else 0

    def poset_after(attrs, args, kwargs, result):
        attrs["elements"] = len(result)
        attrs["covers"] = len(result.covers)

    def validate_after(attrs, args, kwargs, result):
        # counted once the operation has ended, outside every span
        poset = args[0].poset
        tracer.deferred.append(lambda: attrs.update(diamonds=count_diamonds(poset)))

    return {
        "topology.lower_interval": (None, interval_after),
        "topology.order_complex": (None, complex_after),
        "topology.homology": (homology_before, None),
        "exactlinalg.smith_normal_form": (snf_before, None),
        "contingency.build_poset": (None, poset_after),
        "sheaf.validate": (None, validate_after),
    }


def count_diamonds(poset):
    """Length-2 intervals with two distinct cover paths, as validate walks them."""
    up = [set() for _ in range(len(poset))]
    for child, parent, _, _ in poset.covers:
        up[child].add(parent)
    total = 0
    for ups in up:
        ups = sorted(ups)
        for x in range(len(ups)):
            for y in range(x + 1, len(ups)):
                total += len(up[ups[x]] & up[ups[y]])
    return total


def install(tracer):
    """Wrap every target that exists; report the ones that do not."""
    missing = []
    hooks = _hooks(tracer)

    def lookup(modname, attr):
        module = sys.modules.get(f"{PACKAGE}.{modname}")
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{modname}.{attr}")
        return fn

    for modname, names in SPANS.items():
        for attr in names:
            fn = lookup(modname, attr)
            if fn is not None:
                name = f"{modname}.{attr}"
                _rebind(fn, _span(tracer, name, fn, *hooks.get(name, (None, None))))
    for modname, names in TALLIES.items():
        for attr in names:
            fn = lookup(modname, attr)
            if fn is not None:
                _rebind(fn, _tally(tracer, f"{modname}.{attr}", fn))
    cli = sys.modules.get(f"{PACKAGE}.cli")
    for attr, fn in list(vars(cli).items()) if cli else ():
        if attr.startswith("_cmd_") and callable(fn):
            setattr(cli, attr, _span(tracer, "cli.handler", fn))
    poset_cls = lookup("contingency", "CmPoset")
    for method in QUERIES if poset_cls else ():
        fn = getattr(poset_cls, method, None)
        if fn is None:
            missing.append(f"CmPoset.{method}")
        else:
            setattr(poset_cls, method, _query(tracer, method, fn))
    rep_cls = lookup("sheaf", "PosetRepresentation")
    if rep_cls is not None and "from_json" in vars(rep_cls):
        fn = vars(rep_cls)["from_json"].__func__
        rep_cls.from_json = classmethod(_span(tracer, "sheaf.from_json", fn))
    if missing:
        print("tracer: not found, not traced: " + ", ".join(missing), file=sys.stderr)


# ---------------------------------------------------------------------------
# the traced operation

def run(spec):
    started = time.perf_counter()
    if spec["kind"] == "cli":
        import stochastihedron.cli as entry
    else:
        import apiops as entry
    import_s = time.perf_counter() - started
    tracer = Tracer(spec["trace_dir"], spec["op"])
    install(tracer)
    code = 1
    with open(spec["out"], "w", encoding="utf-8") as out:
        root = tracer.open("bench.op")
        try:
            if spec["kind"] == "cli":
                sys.stdout = out
                try:
                    code = entry.main(spec["argv"])
                except SystemExit as exc:
                    code = exc.code
            else:
                entry.run(spec["argv"][0], spec["argv"][1], out)
                code = 0
        finally:
            sys.stdout = sys.__stdout__
            tracer.close(root)
            out.flush()
            tracer.finish(import_s=import_s, exit=code,
                          out_bytes=os.fstat(out.fileno()).st_size)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics

def load(trace_dir):
    """All span records of one traced operation."""
    records = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


def _self_and_violations(spans):
    """Self time per span id, and the spans that break nesting."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    selfs, violations = {}, []
    for s in spans:
        kids = children.get(s[0], [])
        start, end = s[3], s[4]
        same = [k for k in kids if k[0].split(":")[0] == s[0].split(":")[0]]
        tally = s[5].get("tally_ns", 0)
        if any(k[3] < start or k[4] > end for k in kids) or (
            sum(k[4] - k[3] for k in same) + tally > end - start
        ):
            violations.append(s[2])
        covered, reach = 0, start
        for k in sorted(kids, key=lambda k: k[3]):
            lo, hi = max(k[3], reach), min(k[4], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        selfs[s[0]] = max(0, end - start - covered - tally)
    orphans = [s[2] for s in spans if s[1] is not None and s[1] not in by_id]
    return selfs, violations + orphans


def layer_metrics(ops):
    """ops: list of (subcommand or None, records) per traced operation.
    Returns (metrics, names of spans that break nesting)."""
    spans, tallies, imports, violations = [], {}, [], []
    handler, emit, out_bytes = {}, {}, {}
    for sub, records in ops:
        op_spans = [s for r in records for s in r["spans"]]
        selfs, bad = _self_and_violations(op_spans)
        violations += bad
        by_id = {s[0]: s for s in op_spans}
        for s in op_spans:
            parent, outer = by_id.get(s[1]), True
            while parent is not None and outer:
                outer = parent[2] != s[2]
                parent = by_id.get(parent[1])
            # (name, duration, self time, outermost of its name, attrs)
            spans.append((s[2], s[4] - s[3], selfs[s[0]], outer, s[5]))
        for r in records:
            for name, (calls, ns) in r["tallies"].items():
                entry = tallies.setdefault(name, [0, 0])
                entry[0] += calls
                entry[1] += ns
            if "import_s" in r:
                imports.append(r["import_s"])
                if sub is not None:
                    out_bytes[sub] = out_bytes.get(sub, 0) + r["out_bytes"]
        if sub is not None:
            main = sum(s[4] - s[3] for s in op_spans if s[2] == "cli.main")
            hand = sum(s[4] - s[3] for s in op_spans if s[2] == "cli.handler")
            handler[sub] = handler.get(sub, 0) + hand / 1e9
            emit[sub] = emit.get(sub, 0) + (main - hand) / 1e9

    def named(name):
        return [s for s in spans if s[0] == name]

    def span_s(name):
        return sum(s[1] for s in named(name) if s[3]) / 1e9

    def self_s(name):
        return sum(s[2] for s in named(name)) / 1e9

    def attr_sum(name, key):
        return sum(s[4].get(key, 0) for s in named(name))

    def tally(name):
        return tallies.get(name, [0, 0])

    def per_call_us(*names):
        calls = sum(tally(n)[0] for n in names)
        return sum(tally(n)[1] for n in names) / calls / 1e3 if calls else 0.0

    index = named("contingency.order_index")
    homology = named("topology.homology")
    homology_ns = sum(s[1] for s in homology)
    m = {
        "contingency.enumerate_cm.s": span_s("contingency.enumerate_cm"),
        "contingency.count_cm_by_size.s": span_s("contingency.count_cm_by_size"),
        "contingency.build_poset.s": span_s("contingency.build_poset"),
        "contingency.elements": attr_sum("contingency.build_poset", "elements"),
        "contingency.covers": attr_sum("contingency.build_poset", "covers"),
        "contingency.order_index.s": span_s("contingency.order_index"),
        "contingency.order_index.rss_mb": attr_sum("contingency.order_index", "rss_kb") / 1024,
        "contingency.below_mask.s": (
            sum(s[1] for s in index if s[4].get("method") == "below_mask")
            + tally("contingency.below_mask")[1]) / 1e9,
        "contingency.cm_leq.us": per_call_us(
            "contingency.cm_leq", "contingency.cm_leq_horizontal",
            "contingency.cm_leq_vertical"),
        "partitions.enumerate_ordered_partitions.calls":
            tally("partitions.enumerate_ordered_partitions")[0],
        "partitions.enumerate_ordered_partitions.s":
            tally("partitions.enumerate_ordered_partitions")[1] / 1e9,
        "topology.lower_interval.s": span_s("topology.lower_interval"),
        "topology.lower_interval.calls": len(named("topology.lower_interval")),
        "topology.order_complex.s": span_s("topology.order_complex"),
        "topology.simplices": attr_sum("topology.order_complex", "simplices"),
        "topology.homology.s": span_s("topology.homology"),
        "topology.homology.self_s": self_s("topology.homology"),
        "topology.homology.calls": len(homology),
        "topology.homology.closed_share": (
            sum(s[1] for s in homology if s[4].get("closed")) / homology_ns
            if homology_ns else 0.0),
        "exactlinalg.smith_normal_form.calls": len(named("exactlinalg.smith_normal_form")),
        "exactlinalg.smith_normal_form.s": span_s("exactlinalg.smith_normal_form"),
        "exactlinalg.smith_normal_form.max_entries": max(
            [s[4].get("entries", 0) for s in named("exactlinalg.smith_normal_form")],
            default=0),
        "exactlinalg.determinant.calls": tally("exactlinalg.determinant")[0],
        "exactlinalg.determinant.s": tally("exactlinalg.determinant")[1] / 1e9,
        "exactlinalg.rank.calls": tally("exactlinalg.rank")[0],
        "exactlinalg.rank.s": tally("exactlinalg.rank")[1] / 1e9,
        "metamatrix.total_positivity.s": span_s("metamatrix.total_positivity"),
        "metamatrix.verify_factorizations.s": span_s("metamatrix.verify_factorizations"),
        "metamatrix.det_metamatrix.s": span_s("metamatrix.det_metamatrix"),
        "metamatrix.metamatrix.s": span_s("metamatrix.metamatrix"),
        "strata.classify.us": per_call_us("strata.classify"),
        "strata.fnf_closure_leq.us": per_call_us("strata.fnf_closure_leq"),
        "strata.anodyne_classes.self_s": self_s("strata.anodyne_classes"),
        "strata.meet_check.self_s": self_s("strata.meet_check"),
        "sheaf.from_json.self_s": self_s("sheaf.from_json"),
        "sheaf.validate.s": span_s("sheaf.validate"),
        "sheaf.diamonds": attr_sum("sheaf.validate", "diamonds"),
        "sheaf.is_constructible.s": span_s("sheaf.is_constructible"),
        "sheaf.constant_sheaf.s": span_s("sheaf.constant_sheaf"),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
    }
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.handler_s"] = handler.get(sub, 0.0)
        m[f"cli.{sub}.emit_s"] = emit.get(sub, 0.0)
        m[f"cli.{sub}.out_bytes"] = out_bytes.get(sub, 0)
    return m, violations


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        sys.exit(run(json.load(fh)))
