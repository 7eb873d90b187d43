"""Per-layer tracing from outside the program.

Wrappers are installed at run time around the public functions of each
hrex module (and around ``rho`` of the correlation models they build),
and removed again after each traced round.  Every wrapped call is a span
with a name, its layer, the workload part it served, start, end and its
parent span.  Spans live in memory and are written out when the run ends.

A span's self time is its duration minus the part of it that child spans
cover.  Children in the same thread run one after another, so their
durations add up; children in worker threads (``maxima_matrix`` with
threads > 1) may overlap and are merged as intervals.  A span opened in a
worker thread with no open span of its own has the innermost open span of
the main thread as its parent.

A wrapped name that no longer exists is recorded as missing; the metrics
that depend on it then read 0 and the run goes on.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict

PARTS = ("hr_lag0", "geo_long", "geo_short", "ma1_long", "geo_dump")

# (module, attribute, layer, kind).  kind: "call" is an ordinary span,
# "gen" wraps a generator with one span per next(), "leaf" is a hot call
# that is timed and counted but not kept as a span record, "factory"
# returns a correlation model whose rho gets wrapped.
TARGETS = [
    ("hrex.rng", "RngKey.generator", "rng", "call"),
    ("hrex.rng", "uniform_open", "rng", "call"),
    ("hrex.rng", "standard_normal", "rng", "call"),
    ("hrex.rng", "standard_exponential", "rng", "call"),
    ("hrex.correlation", "hr_family", "correlation", "factory"),
    ("hrex.correlation", "geometric_model", "correlation", "factory"),
    ("hrex.correlation", "tabulated_model", "correlation", "factory"),
    ("hrex.correlation", "iid_model", "correlation", "factory"),
    ("hrex.correlation", "constant_model", "correlation", "factory"),
    ("hrex.sampler", "iter_path_blocks", "sampler", "gen"),
    ("hrex.sampler", "sample_paths", "sampler", "call"),
    ("hrex.sampler", "assemble_covariance", "sampler", "call"),
    ("hrex.sampler", "validate_psd", "sampler", "call"),
    ("hrex.sampler", "write_path", "sampler", "call"),
    ("hrex.theta", "theta_for_spec", "theta", "call"),
    ("hrex.theta", "build_constraints", "theta", "call"),
    ("hrex.theta", "build_w_covariance", "theta", "call"),
    ("hrex.theta", "estimate_theta", "theta", "call"),
    ("hrex.experiments", "run_maxima_experiment", "experiments", "call"),
    ("hrex.experiments", "maxima_matrix", "experiments", "call"),
    ("hrex.experiments", "empirical_cdf", "experiments", "call"),
    ("hrex.experiments", "compare_to_limit", "experiments", "call"),
    ("hrex.experiments", "build_report", "experiments", "call"),
    ("hrex.experiments", "write_convergence_csv", "experiments", "call"),
    ("hrex.experiments", "write_convergence_json", "experiments", "call"),
    ("hrex.norming", "norming_constants", "norming", "leaf"),
    ("hrex.norming", "threshold", "norming", "leaf"),
    ("hrex.norming", "limit_cdf", "norming", "leaf"),
    ("hrex.norming", "hr_bivariate_cdf", "norming", "leaf"),
    ("hrex.norming", "std_normal_cdf", "norming", "leaf"),
    ("hrex.cli", "main", "cli", "call"),
]

# Per-layer metrics, in the order of BENCHMARK.json: (name, unit).
METRICS = (
    [("rng.substream_setups", "count"), ("rng.substream_setup_us", "us"), ("rng.normal_values", "count"),
     ("rng.uniform_ns_per_value", "ns"), ("rng.ndtri_ns_per_value", "ns"), ("rng.exponential_ns_per_value", "ns")]
    + [("sampler.%s.%s" % (p, m), u) for p in PARTS for m, u in (("setup_s", "s"), ("values", "count"),
                                                                   ("ns_per_value", "ns"))]
    + [("sampler.geo_short.assemble_s", "s"), ("sampler.geo_short.factor_s", "s"),
       ("correlation.rho_calls", "count"), ("correlation.rho_s", "s"),
       ("experiments.maxima_self_s", "s"), ("experiments.empirical_cdf_s", "s"), ("experiments.report_s", "s"),
       ("theta.estimates", "count"), ("theta.constraint_rows", "count"), ("theta.build_s", "s"),
       ("theta.mc_ns_per_sample_row", "ns"), ("norming.s", "s"),
       ("cli.self_s", "s"), ("cli.write_path_s", "s"), ("cli.bytes_written", "B"), ("trace.overhead_s", "s")]
)
COUNT_UNITS = ("count", "B")


class Span:
    __slots__ = ("id", "name", "layer", "part", "thread", "start", "end", "parent",
                 "child_sum", "cross", "extra", "gen")

    def __init__(self, sid, name, layer, part, thread, parent, gen=None):
        self.id, self.name, self.layer, self.part = sid, name, layer, part
        self.thread, self.parent, self.gen = thread, parent, gen
        self.child_sum = 0.0
        self.cross = []
        self.extra = {}
        self.start = time.perf_counter()
        self.end = None


class _GenState:
    """Shared by the next() spans of one wrapped path generator: set-up
    runs from the first next() until the first rng call."""

    __slots__ = ("first_start", "setup_end", "counted")

    def __init__(self):
        self.first_start = None
        self.setup_end = None
        self.counted = False


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.main_ident = threading.main_thread().ident
        self.main_stack: list[Span] = []
        self.records: list[tuple] = []
        self.part: str | None = None
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._next_id = 0
        self.reset()

    # ---- accumulation -------------------------------------------------

    def reset(self) -> None:
        self.total = defaultdict(float)   # (name, part) -> summed duration
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # named work counters
        self.setup = defaultdict(float)   # part -> generator set-up seconds
        self.gen_rng = defaultdict(float)  # part -> rng seconds inside path generators
        self.leaf_accs: list[dict] = []   # one per thread: name -> [seconds, calls]
        self.generation = getattr(self, "generation", 0) + 1

    def _stack(self) -> list:
        if threading.get_ident() == self.main_ident:
            return self.main_stack
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def open(self, name, layer, gen=None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self.main_stack[-1] if self.main_stack else None
        with self.lock:
            self._next_id += 1
            sid = self._next_id
        span = Span(sid, name, layer, self.part, threading.get_ident(), parent, gen)
        if layer == "rng":
            # the first rng call under a path generator ends its set-up
            p = parent
            while p is not None and p.thread == span.thread:
                if p.gen is not None:
                    if p.gen.setup_end is None:
                        p.gen.setup_end = span.start
                    break
                p = p.parent
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        duration = span.end - span.start
        covered = span.child_sum
        if span.cross:
            covered += _union(span.cross, span.start, span.end)
        parent = span.parent
        key = (span.name, span.part)
        with self.lock:
            if parent is not None:
                if parent.thread == span.thread:
                    parent.child_sum += duration
                else:
                    parent.cross.append((span.start, span.end))
            self.total[key] += duration
            self.self_time[key] += max(duration - covered, 0.0)
            self.calls[key] += 1
            if span.layer == "rng" and parent is not None and parent.gen is not None:
                self.gen_rng[span.part] += duration
            for k, v in span.extra.items():
                self.counts[k] += v
            self.records.append((span.id, parent.id if parent else None, span.name, span.layer,
                                 span.part, span.thread, span.start, span.end))

    # ---- wrappers -----------------------------------------------------

    def _wrap_call(self, fn, name, layer):
        tracer = self
        count = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(span.extra, args, kwargs, result)
                return result
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_leaf(self, fn, name):
        """Hot calls with no children of interest (rho, norming): timed and
        counted in a per-thread table, charged to the parent span, but kept
        out of the span records."""
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack = tracer._stack()
                if stack:
                    stack[-1].child_sum += duration
                acc = tracer._leaf_acc()
                entry = acc.get(name)
                if entry is None:
                    acc[name] = [duration, 1]
                else:
                    entry[0] += duration
                    entry[1] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_acc(self) -> dict:
        generation, acc = getattr(self.local, "leaf", (None, None))
        if generation != self.generation:
            acc = {}
            self.local.leaf = (self.generation, acc)
            with self.lock:
                self.leaf_accs.append(acc)
        return acc

    def _wrap_gen(self, fn, name, layer):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            state = _GenState()

            def blocks():
                while True:
                    span = tracer.open(name, layer, gen=state)
                    if state.first_start is None:
                        state.first_start = span.start
                    try:
                        item = next(inner)
                        span.extra["values.%s" % span.part] = item[1].size
                    except StopIteration:
                        return
                    finally:
                        tracer._close_gen(span, state)
                    yield item

            return blocks()

        wrapper.__wrapped__ = fn
        return wrapper

    def _close_gen(self, span, state) -> None:
        self.close(span)
        if state.setup_end is not None and not state.counted:
            state.counted = True
            with self.lock:
                self.setup[span.part] += state.setup_end - state.first_start

    def _wrap_factory(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            model = fn(*args, **kwargs)
            tracer.wrap_rho(model, record_patch=False)
            return model

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_rho(self, model, record_patch=True) -> None:
        original = model.rho
        if getattr(original, "__wrapped__", None) is not None:
            return
        wrapped = self._wrap_leaf(original, "rho")
        object.__setattr__(model, "rho", wrapped)
        if record_patch:
            self._patches.append((model, "rho", original, True))

    # ---- install / uninstall ------------------------------------------

    def install(self, models=()) -> None:
        import importlib
        import sys

        self.missing = []
        for modname, attr, layer, kind in TARGETS:
            module = importlib.import_module(modname)
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            if kind == "gen":
                wrapped = self._wrap_gen(original, leaf, layer)
            elif kind == "factory":
                wrapped = self._wrap_factory(original)
            elif kind == "leaf":
                wrapped = self._wrap_leaf(original, leaf)
            else:
                wrapped = self._wrap_call(original, leaf, layer)
            if owner:
                self._patches.append((holder, leaf, original, False))
                setattr(holder, leaf, wrapped)
                continue
            # rebind every hrex module attribute that holds the same object
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "hrex" or name.startswith("hrex.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, False))
                        setattr(mod, key, wrapped)
        for model in models:
            self.wrap_rho(model)

    def uninstall(self) -> None:
        for holder, key, original, frozen in reversed(self._patches):
            if frozen:
                object.__setattr__(holder, key, original)
            else:
                setattr(holder, key, original)
        self._patches = []

    # ---- results ------------------------------------------------------

    def round_metrics(self) -> dict:
        """Per-layer metrics of the round traced since the last reset."""
        tot = _by_name(self.total)
        own = _by_name(self.self_time)
        calls = _by_name(self.calls)
        for acc in self.leaf_accs:
            for name, (seconds, n) in acc.items():
                tot[name] += seconds
                calls[name] += n
        c = self.counts
        m = {}
        m["rng.substream_setups"] = calls["generator"]
        m["rng.substream_setup_us"] = 1e6 * tot["generator"] / max(calls["generator"], 1)
        m["rng.normal_values"] = c["normal_values"]
        m["rng.uniform_ns_per_value"] = 1e9 * tot["uniform_open"] / max(c["uniform_values"], 1)
        m["rng.ndtri_ns_per_value"] = 1e9 * own["standard_normal"] / max(c["normal_values"], 1)
        m["rng.exponential_ns_per_value"] = 1e9 * own["standard_exponential"] / max(c["exponential_values"], 1)
        for part in PARTS:
            key = ("iter_path_blocks", part)
            values = c["values.%s" % part]
            setup = self.setup[part]
            transform = self.total[key] - setup - self.gen_rng[part]
            m["sampler.%s.setup_s" % part] = setup
            m["sampler.%s.values" % part] = values
            m["sampler.%s.ns_per_value" % part] = 1e9 * max(transform, 0.0) / values if values else 0.0
        m["sampler.geo_short.assemble_s"] = self.total[("assemble_covariance", "geo_short")]
        m["sampler.geo_short.factor_s"] = self.total[("validate_psd", "geo_short")]
        m["correlation.rho_calls"] = calls["rho"]
        m["correlation.rho_s"] = tot["rho"]
        m["experiments.maxima_self_s"] = own["maxima_matrix"]
        m["experiments.empirical_cdf_s"] = tot["empirical_cdf"]
        m["experiments.report_s"] = sum(tot[n] for n in (
            "compare_to_limit", "build_report", "write_convergence_csv", "write_convergence_json"))
        m["theta.estimates"] = calls["estimate_theta"]
        m["theta.constraint_rows"] = c["constraint_rows"]
        m["theta.build_s"] = tot["build_constraints"] + tot["build_w_covariance"]
        m["theta.mc_ns_per_sample_row"] = 1e9 * own["estimate_theta"] / max(c["sample_rows"], 1)
        m["norming.s"] = sum(tot[n] for n in ("norming_constants", "threshold", "limit_cdf",
                                              "hr_bivariate_cdf", "std_normal_cdf"))
        m["cli.self_s"] = own["main"]
        m["cli.write_path_s"] = tot["write_path"]
        m["cli.bytes_written"] = c["bytes_written"]
        return m

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, layer, part, thread, start, end in self.records:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name, "layer": layer, "part": part,
                                     "thread": thread, "start": start, "end": end}) + "\n")


def _by_name(table) -> defaultdict:
    out = defaultdict(float)
    for (name, _), v in table.items():
        out[name] += v
    return out


def _union(intervals, lo, hi) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _count_normal(extra, args, kwargs, result):
    extra["normal_values"] = result.size


def _count_uniform(extra, args, kwargs, result):
    extra["uniform_values"] = result.size


def _count_exponential(extra, args, kwargs, result):
    extra["exponential_values"] = result.size


def _count_estimate(extra, args, kwargs, result):
    cs = args[0] if args else kwargs["cs"]
    samples = args[2] if len(args) > 2 else kwargs["samples"]
    extra["constraint_rows"] = len(cs.rows)
    extra["sample_rows"] = samples * len(cs.rows)


def _count_write(extra, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    extra["bytes_written"] = 24 + 8 * path.values.size


_COUNTERS = {
    "standard_normal": _count_normal,
    "uniform_open": _count_uniform,
    "standard_exponential": _count_exponential,
    "estimate_theta": _count_estimate,
    "write_path": _count_write,
}
