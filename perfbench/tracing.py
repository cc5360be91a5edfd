"""In-memory span tracer for the traced benchmark run.

The tracer patches wrappers onto the steerkit module attributes that callers
look up at call time, so no file of the package changes.  Each wrapper
records a span ``(id, name, start, end, parent, arg)`` for the job in
progress; ``arg`` carries a count the span knows (samples in a chunk, randoms
drawn, workers of a pool).  Worker-thread chunk tasks record the pool span as
their parent explicitly.  Outside a job the wrappers call straight through.

A span's self time is its duration minus the union of its children.  Where
spans on different threads overlap (two workers), the wall time is shared
equally among them, so the self times of one job add up to no more than its
wall time.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "montecarlo", "expio", "criteria", "entropy", "qcore")
BYTES_PER_RANDOM = 8  # every draw steerkit makes is a float64

#: Per-layer metrics: (name, unit, better).  Times and counts are means per
#: traced job unless the name says otherwise.
PER_LAYER = (
    ("trace.job_wall_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("cli.parse_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
    ("montecarlo.draw_s", "s", "lower"),
    ("montecarlo.geometry_s", "s", "lower"),
    ("montecarlo.count_s", "s", "lower"),
    ("montecarlo.hist_s", "s", "lower"),
    ("montecarlo.merge_s", "s", "lower"),
    ("montecarlo.pool_idle_frac", "frac", "lower"),
    ("montecarlo.chunks", "count", "lower"),
    ("montecarlo.randoms_per_sample", "count", "lower"),
    ("montecarlo.bytes_drawn", "B", "lower"),
    ("montecarlo.compares", "count", "lower"),
    ("expio.parse_s", "s", "lower"),
    ("expio.fit_s", "s", "lower"),
    ("expio.bootstrap_s", "s", "lower"),
    ("expio.jitter_s", "s", "lower"),
    ("expio.replicates", "count", "higher"),
    ("expio.replicate_yield", "frac", "higher"),
    ("qcore.tables_built", "count", "lower"),
    ("qcore.table_s", "s", "lower"),
    ("qcore.settings_s", "s", "lower"),
    ("criteria.evaluate_s", "s", "lower"),
    ("criteria.estimator_s", "s", "lower"),
    ("criteria.estimator_calls", "count", "lower"),
    ("criteria.closed_form_s", "s", "lower"),
    ("criteria.solver_evals", "count", "lower"),
    ("entropy.term_s", "s", "lower"),
    ("entropy.term_calls", "count", "lower"),
)


class _TimedGenerator:
    """Proxy of a chunk's Philox generator: every draw is a ``montecarlo.draw`` span."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        return self._tracer.wrap(getattr(self._gen, attr), "montecarlo.draw", _size_of_result)


def _size_of_result(args, result):
    return int(np.size(result))


class Tracer:
    """Records spans of the jobs run inside :meth:`job` while installed."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spans = None  # list of the job being recorded, else None
        self._patches = []
        self.names = []
        self._name_index = {}
        self.jobs = []  # per-job aggregates
        self._arrays = []

    # -- recording -------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, arg=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer._spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                count = arg(args, result) if arg is not None and result is not None else 0
                spans.append((sid, name, t0, t1, parent, count))

        return traced

    def _wrap_rng(self, fn, name, arg):
        traced = self.wrap(fn, name)

        def chunk_rng(*args):
            gen = traced(*args)
            return gen if self._spans is None else _TimedGenerator(gen, self)

        return chunk_rng

    def _wrap_parser(self, fn, name, arg):
        traced = self.wrap(fn, name)

        def build_parser():
            parser = traced()
            if self._spans is not None:
                parser.parse_args = self.wrap(parser.parse_args, name)
            return parser

        return build_parser

    def _wrap_map(self, fn, name, arg):
        """``_map_chunks``: a pool span, and a task span per chunk on whichever thread runs it."""
        tracer = self

        def map_chunks(task, plan, n_workers):
            spans = tracer._spans
            if spans is None:
                return fn(task, plan, n_workers)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            in_hist = any(n == "montecarlo.histogram" for _, n in stack)
            kind = "montecarlo.hist_task" if in_hist else "montecarlo.count_task"

            def traced_task(chunk_index, size):
                task_stack = tracer._stack()
                tid = next(tracer._ids)
                task_stack.append((tid, kind))
                t0 = perf_counter()
                try:
                    return task(chunk_index, size)
                finally:
                    t1 = perf_counter()
                    task_stack.pop()
                    spans.append((tid, kind, t0, t1, sid, size))

            stack.append((sid, name))
            t0 = perf_counter()
            try:
                return fn(traced_task, plan, n_workers)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, n_workers))

        return map_chunks

    def install(self):
        """Patch wrappers onto steerkit; :meth:`uninstall` restores the originals."""
        from steerkit import cli, criteria, entropy, expio, montecarlo, qcore

        targets = [
            (cli, "main", "cli.main", None, None),
            (cli, "build_parser", "cli.parse", None, self._wrap_parser),
            (cli, "_apply_config", "cli.parse", None, None),
            (cli, "_cmd_sweep", "cli.cmd", None, None),
            (cli, "_cmd_mc", "cli.cmd", None, None),
            (cli, "_cmd_threshold", "cli.cmd", None, None),
            (cli, "_cmd_analyze", "cli.cmd", None, None),
            (cli, "_emit_json", "cli.emit", None, None),
            (criteria, "sweep_rows_to_csv", "cli.emit", None, None),
            (montecarlo, "estimates_to_csv", "cli.emit", None, None),
            (montecarlo, "histogram_to_csv", "cli.emit", None, None),
            (expio, "results_to_json_records", "cli.emit", None, None),
            (montecarlo, "chunk_rng", "montecarlo.draw", None, self._wrap_rng),
            (montecarlo, "_chunk_geometry", "montecarlo.geometry", lambda a, r: a[4], None),
            (montecarlo, "_map_chunks", "montecarlo.map", None, self._wrap_map),
            (montecarlo, "violation_probability", "montecarlo.probability",
             lambda a, r: len(a[0].mu_grid) * a[0].n_samples, None),
            (montecarlo, "violation_histogram", "montecarlo.histogram", None, None),
            (expio, "load_counts", "expio.parse", None, None),
            (expio, "fit_visibility", "expio.fit", None, None),
            (expio, "counts_to_table", "expio.table", None, None),
            (expio, "_jittered_vector", "expio.jitter_vector", None, None),
            (expio, "_evaluate_criterion", "expio.dispatch", None, None),
            (expio, "evaluate_with_errors", "expio.errors", None, None),
            (criteria, "evaluate", "criteria.evaluate", None, None),
            (criteria, "sweep", "criteria.sweep", None, None),
            (criteria, "closed_form", "criteria.closed_form", None, None),
            (criteria, "critical_alpha", "criteria.solver", None, None),
            (criteria, "db_lhs", "criteria.db_lhs", None, None),
            (entropy, "tsallis_directed_term", "entropy.term", None, None),
            (entropy, "arimoto_conditional_renyi", "entropy.term", None, None),
            (entropy, "eur_bound_tsallis", "entropy.bound", None, None),
            (entropy, "eur_bound_renyi2", "entropy.bound", None, None),
            (qcore, "joint_table_closed", "qcore.table", None, None),
            (qcore.JointTable, "__post_init__", "qcore.table_init", None, None),
            (qcore, "mub_settings", "qcore.settings", None, None),
            (qcore, "nom_settings", "qcore.settings", None, None),
        ]
        # The estimators, including the copies expio imported by name.
        for owner in (criteria, expio):
            for attr in ("tsallis_steering", "renyi_steering", "db_steering"):
                targets.append((owner, attr, "criteria.estimator", None, None))
        for owner, attr, name, arg, wrapper in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, (wrapper or self.wrap)(original, name, arg))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def job(self, settings: int = 0, bootstrap: int = 0):
        """Record one job; an analyze job passes its setting count and bootstrap size."""
        spans = []
        stack = self._stack()
        root = next(self._ids)
        stack.append((root, "job"))
        self._spans = spans
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._spans = None
            stack.pop()
            spans.append((root, "job", t0, t1, 0, 0))
            self._finish(spans, root, settings, bootstrap)

    # -- analysis ----------------------------------------------------------------

    def _finish(self, spans, root, settings, bootstrap):
        own = self_times(spans)
        by_id = {s[0]: s for s in spans}
        agg = defaultdict(float)
        first_jitter = {}
        for sid, name, t0, t1, parent, arg in spans:
            agg[f"self:{name}"] += own.get(sid, 0.0)
            agg[f"count:{name}"] += 1
            agg[f"dur:{name}"] += t1 - t0
            agg[f"arg:{name}"] += arg
            parent_name = by_id[parent][1] if parent in by_id else None
            if name == "montecarlo.map":
                agg["pool_capacity"] += arg * (t1 - t0)
            elif name == "criteria.closed_form" and parent_name == "criteria.solver":
                agg["solver_evals"] += 1
            elif name == "expio.fit" and parent_name == "expio.errors":
                agg["errors_fits"] += 1
            elif name == "expio.jitter_vector" and parent_name == "expio.errors":
                agg["jitter_vectors"] += 1
                first_jitter[parent] = min(first_jitter.get(parent, t0), t0)
        for sid, name, t0, t1, _parent, _arg in spans:
            if name == "expio.errors":
                split = first_jitter.get(sid, t1)
                agg["bootstrap_phase"] += split - t0
                agg["jitter_phase"] += t1 - split
                agg["errors_calls"] += 1
        agg["settings"] = settings
        agg["bootstrap"] = bootstrap
        agg["wall"] = by_id[root][3] - by_id[root][2]
        self.jobs.append(agg)
        self._arrays.append(self._to_array(spans, len(self.jobs) - 1))

    def _to_array(self, spans, job_index):
        dtype = [("id", "i8"), ("name", "i4"), ("start", "f8"), ("end", "f8"),
                 ("parent", "i8"), ("arg", "i8"), ("job", "i4")]
        rows = []
        for sid, name, t0, t1, parent, arg in spans:
            if name not in self._name_index:
                self._name_index[name] = len(self.names)
                self.names.append(name)
            rows.append((sid, self._name_index[name], t0, t1, parent, arg, job_index))
        return np.array(rows, dtype=dtype)

    def layer_sum_problems(self, walls) -> list:
        """Jobs whose layers' self times add up to more than ``walls[k]``.

        ``walls`` are the traced ``cli.main`` times, read from a clock of the
        caller's, not from the spans.
        """
        problems = []
        for k, (job, wall) in enumerate(zip(self.jobs, walls)):
            layers = sum(v for key, v in job.items()
                         if key.startswith("self:") and key[5:].split(".")[0] in LAYERS)
            if layers > wall * (1.0 + 1e-9):
                problems.append(f"traced job {k}: layer self times {layers} exceed wall {wall}")
        return problems

    def write(self, path):
        """Write every recorded span (names as an index into ``names``)."""
        spans = np.concatenate(self._arrays) if self._arrays else np.zeros(0)
        np.savez_compressed(path, names=np.array(self.names), spans=spans)

    def metrics(self, overhead_frac: float) -> dict:
        """Per-layer metrics over the recorded jobs: name -> (value, unit)."""
        jobs = self.jobs
        n = len(jobs)

        def total(key):
            return sum(job.get(key, 0.0) for job in jobs)

        def per_job(*keys):
            return sum(total(k) for k in keys) / n

        def ratio(num, den):
            return num / den if den else 0.0

        randoms = total("arg:montecarlo.draw")
        samples = total("arg:montecarlo.geometry")
        tasks = total("dur:montecarlo.count_task") + total("dur:montecarlo.hist_task")
        bootstrap_drawn = total("bootstrap")
        bootstrap_used = total("errors_fits") - total("errors_calls")
        jitter_reps = sum(j.get("jitter_vectors", 0.0) / j["settings"] for j in jobs if j["settings"])
        values = {
            "trace.job_wall_s": per_job("wall"),
            "trace.overhead_frac": overhead_frac,
            "cli.parse_s": per_job("self:cli.parse"),
            "cli.emit_s": per_job("self:cli.emit"),
            "montecarlo.draw_s": per_job("self:montecarlo.draw"),
            "montecarlo.geometry_s": per_job("self:montecarlo.geometry"),
            "montecarlo.count_s": per_job("self:montecarlo.count_task"),
            "montecarlo.hist_s": per_job("self:montecarlo.hist_task"),
            "montecarlo.merge_s": per_job("self:montecarlo.probability",
                                          "self:montecarlo.histogram"),
            "montecarlo.pool_idle_frac": ratio(total("pool_capacity") - tasks,
                                               total("pool_capacity")),
            "montecarlo.chunks": per_job("count:montecarlo.geometry"),
            "montecarlo.randoms_per_sample": ratio(randoms, samples),
            "montecarlo.bytes_drawn": BYTES_PER_RANDOM * randoms / n,
            "montecarlo.compares": per_job("arg:montecarlo.probability"),
            "expio.parse_s": per_job("self:expio.parse"),
            "expio.fit_s": per_job("self:expio.fit"),
            "expio.bootstrap_s": per_job("bootstrap_phase"),
            "expio.jitter_s": per_job("jitter_phase"),
            "expio.replicates": (bootstrap_used + jitter_reps) / n,
            "expio.replicate_yield": ratio(bootstrap_used, bootstrap_drawn),
            "qcore.tables_built": per_job("count:qcore.table_init"),
            "qcore.table_s": per_job("self:qcore.table", "self:qcore.table_init"),
            "qcore.settings_s": per_job("self:qcore.settings"),
            "criteria.evaluate_s": per_job("self:criteria.evaluate"),
            "criteria.estimator_s": per_job("self:criteria.estimator", "self:criteria.db_lhs"),
            "criteria.estimator_calls": per_job("count:criteria.estimator"),
            "criteria.closed_form_s": per_job("self:criteria.closed_form"),
            "criteria.solver_evals": ratio(total("solver_evals"), total("count:criteria.solver")),
            "entropy.term_s": per_job("self:entropy.term", "self:entropy.bound"),
            "entropy.term_calls": per_job("count:entropy.term"),
        }
        for layer in LAYERS:
            keys = {k for job in jobs for k in job if k.startswith(f"self:{layer}.")}
            values[f"{layer}.self_s"] = per_job(*sorted(keys)) if keys else 0.0
        units = {name: unit for name, unit, _ in PER_LAYER}
        return {name: (values[name], units[name]) for name in units}


def self_times(spans) -> dict:
    """Self time per span id: duration minus the union of its children's intervals.

    Intervals left over on different threads that overlap share the wall
    time equally, so the result sums to at most the covered wall time.
    """
    children = defaultdict(list)
    for _sid, _name, t0, t1, parent, _arg in spans:
        children[parent].append((t0, t1))
    pieces = []
    for sid, _name, t0, t1, _parent, _arg in spans:
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            if c0 > cursor:
                pieces.append((cursor, min(c0, t1), sid))
            cursor = max(cursor, c1)
        if t1 > cursor:
            pieces.append((cursor, t1, sid))
    own = defaultdict(float)
    if not pieces:
        return own
    events = sorted([(p0, 1, sid) for p0, _, sid in pieces] + [(p1, 0, sid) for _, p1, sid in pieces])
    active = set()
    last = events[0][0]
    for t, is_start, sid in events:
        if active:
            share = (t - last) / len(active)
            for a in active:
                own[a] += share
        last = t
        if is_start:
            active.add(sid)
        else:
            active.discard(sid)
    return own
