#!/usr/bin/env python3
"""steerkit benchmark: closed-loop CLI workloads with output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One client runs jobs back to back (a closed loop, one thread): each job calls
``steerkit.cli.main(argv)`` in this process with ``--out`` in a scratch
directory, so it covers argument parsing, the computation and the output file
but not interpreter start-up.  Jobs run in whole cycles (see workloads.py)
until ``--seconds`` have passed.  Every output is checked after its job, off
the clock; a job fails if it raises, exits nonzero or fails its check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the jobs of
half the time untraced, then the same jobs again under the span tracer, and
reports the per-layer metrics.  ``--workload all`` runs every workload in its
own process and prints one table.  ``--smoke`` runs every workload at tiny
size, traced and untraced, with every check.

The last line of stdout is JSON: ``{"correct", "attempted", "failed",
"metrics"}``; a table with sample counts precedes it, and the full result,
stamped with the environment, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 11

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("job_s.p50", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)
#: What ``work_per_s`` counts on each workload, under its workload-specific name.
WORK_UNITS = {
    "mc-point": ("mc.samples_per_s", "Monte Carlo samples"),
    "mc-grid": ("mc.samples_per_s", "Monte Carlo samples"),
    "analyze": ("analyze.replicates_per_s", "bootstrap and jitter replicates"),
    "curves": ("curves.rows_per_s", "sweep rows and threshold results"),
}
#: The 90th percentile is reported (in the table and result file, without a
#: bound) only where a run holds enough jobs to leave ten beyond it.
P90_MIN_JOBS = 100


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_steerkit():
    """Import steerkit from this checkout's ``src``, never from elsewhere."""
    for rel in ("src/steerkit/cli.py", "tests/oracles.py"):
        if not (ROOT / rel).is_file():
            _fail(f"{rel} is missing under {ROOT}; run the benchmark from a steerkit checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import steerkit

    if Path(steerkit.__file__).resolve().parent != (ROOT / "src" / "steerkit").resolve():
        _fail(f"imported steerkit from {steerkit.__file__}, not from {ROOT / 'src'}")
    return steerkit


def with_flag(argv, flag, value):
    argv = list(argv)
    argv[argv.index(flag) + 1] = value
    return argv


class Runner:
    """Runs one workload's jobs through ``cli.main`` and checks their outputs."""

    def __init__(self, name: str, seed: int, scratch: Path, smoke: bool = False):
        import checks
        import workloads
        from steerkit import cli

        self.cli = cli
        self.checks = checks
        self.workloads = workloads
        self.oracles = checks.load_oracles(ROOT)
        self.source = workloads.Workload(name, seed, scratch, smoke)
        self.scratch = scratch
        self.problems = []  # run-level check failures
        self.warm_jobs = self.source.warmup()

    def run_job(self, job, out: Path, span=contextlib.nullcontext):
        """(seconds, error or None); only the ``cli.main`` call is timed.

        ``span`` is entered around the timed call alone; the output check
        runs after it has closed.
        """
        argv = job.argv + ["--out", str(out)]
        error = None
        with span():
            t0 = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a failed job is counted, the loop goes on
                code = None
                error = f"raised {exc!r}\n{traceback.format_exc()}"
            elapsed = time.perf_counter() - t0
        if code not in (0, None):
            error = f"exit code {code}"
        if error is None:
            error = "; ".join(self.checks.check_job(job, out, self.oracles)) or None
        if error is not None:
            print(f"perfbench: {job.kind} {' '.join(job.argv)}: {error}", file=sys.stderr)
        return elapsed, error

    def warmup_argv(self):
        return [job.argv + ["--out", str(self.scratch / f"warm{k}.out")]
                for k, job in enumerate(self.warm_jobs)]

    def warmup(self):
        for argv in self.warmup_argv():
            code = self.cli.main(argv)
            if code != 0:
                self.problems.append(f"warm-up job {argv} exited {code}")

    def loop(self, seconds: float, probes: int = 0):
        """Whole cycles for ``seconds`` of job time: ([(job, seconds, error)], setup times).

        ``probes`` set-up probes run between cycles, spread evenly over the
        window, so that their median spans the same phases of the machine as
        the job times.  Probe time is not counted in the window.
        """
        done, setup_times = [], []
        start = time.perf_counter()
        paused = 0.0
        probed = 0
        while True:
            elapsed = time.perf_counter() - start - paused
            while probed < probes and (
                    elapsed >= probed * seconds / probes or (done and elapsed >= seconds)):
                t0 = time.perf_counter()
                setup_times += self.probe_setup()
                probed += 1
                paused += time.perf_counter() - t0
            if done and elapsed >= seconds:
                return done, setup_times
            for k, job in enumerate(self.source.cycle()):
                out = self.scratch / ("first.out" if not done else f"slot{k}.out")
                done.append((job, *self.run_job(job, out)))

    def probe_setup(self):
        """One fresh interpreter: import, parser and warm-up jobs; [seconds] or []."""
        warm = self.scratch / "warmup.json"
        if not warm.exists():
            warm.write_text(json.dumps(self.warmup_argv()))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(warm)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            self.problems.append(f"set-up probe failed: {proc.stderr.strip()}")
            return []
        return [float(proc.stdout.strip().splitlines()[-1])]

    def rerun_traced(self, done):
        """The same jobs again under a fresh tracer: (tracer, [(job, seconds, error)])."""
        import tracing

        tracer = tracing.Tracer()
        redone = []
        tracer.install()
        try:
            for k, (job, _, _) in enumerate(done):
                analyze = job.argv[0] == "analyze"
                span = functools.partial(tracer.job, settings=job.spec["m"] if analyze else 0,
                                         bootstrap=job.spec["bootstrap"] if analyze else 0)
                redone.append((job, *self.run_job(job, self.scratch / f"traced{k}.out", span)))
        finally:
            tracer.uninstall()
        self.problems += tracer.layer_sum_problems([elapsed for _, elapsed, _ in redone])
        return tracer, redone

    def run_checks(self, done):
        """Checks that need extra runs: repeat determinism and worker independence."""
        first = done[0][0]
        repeat = self.scratch / "repeat.out"
        _, error = self.run_job(first, repeat)
        if error or repeat.read_bytes() != (self.scratch / "first.out").read_bytes():
            self.problems.append(f"repeating {first.kind} did not give identical output ({error})")
        seen = set()
        for job, _, _ in done:
            if job.argv[0] != "mc" or job.kind in seen:
                continue
            seen.add(job.kind)
            if job.spec["scheme"] == "isotropic":
                exact = self.checks.crm_exact(job.spec["m"], job.spec["factor"], job.spec["mus"])
                live = [mu for mu, p in zip(job.spec["mus"], exact) if p > 0.0]
                self.problems += self.checks.oracle_spot_check(
                    self.oracles, job.spec["m"], job.spec["factor"], live)
            if job.argv[job.argv.index("--workers") + 1] == "1":
                continue
            # Two workers against one, on few samples that still span several chunks.
            reduced = with_flag(job.argv, "--samples", str(self.workloads.SMOKE_MC_SAMPLES))
            outputs = []
            for workers in ("2", "1"):
                out = self.scratch / f"workers{workers}.out"
                code = self.cli.main(with_flag(reduced, "--workers", workers) + ["--out", str(out)])
                outputs.append(out.read_bytes() if code == 0 else None)
            if outputs[0] is None or outputs[0] != outputs[1]:
                self.problems.append(f"{job.kind}: 2-worker output differs from 1-worker output")


# ---------------------------------------------------------------------------
# metrics and reporting
# ---------------------------------------------------------------------------


def end_to_end_metrics(done, setup_times):
    times = [elapsed for _, elapsed, _ in done]
    work = sum(job.work for job, _, _ in done)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    values = {
        "setup_s": (statistics.median(setup_times) if setup_times else 0.0, len(setup_times)),
        "job_s.p50": (statistics.median(times), len(times)),
        "work_per_s": (work / sum(times), len(times)),
        "peak_rss_mib": (peak, 1),
    }
    metrics = {name: (values[name][0], unit, values[name][1]) for name, unit in END_TO_END}
    extra = {}
    if len(times) >= P90_MIN_JOBS:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
        extra["job_s.p90"] = (p90, "s", len(times))
    return metrics, extra


def by_kind(done):
    kinds = {}
    for job, elapsed, error in done:
        kinds.setdefault(job.kind, []).append(elapsed)
    return {kind: {"n": len(ts), "median_s": statistics.median(ts)} for kind, ts in kinds.items()}


def environment(args):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "steerkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """HEAD of the checkout's git metadata, read without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_table(workload, metrics, attempted, failed):
    frac = failed / attempted if attempted else 0.0
    print(f"{workload}: attempted {attempted}, failed {failed}, fail_frac {frac:g}")
    for name, (value, unit, n) in metrics.items():
        alias = f"  = {WORK_UNITS[workload][0]}" if name == "work_per_s" else ""
        print(f"  {name:32s} {value:14.6g} {unit:6s} n={n}{alias}")


def finish(args, metrics, done, problems, unbounded=None, extra=None):
    """Print the table and the result line; write the stamped result file."""
    attempted = len(done)
    failed = sum(1 for _, _, error in done if error is not None)
    correct = failed == 0 and not problems
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    unbounded = unbounded or {}
    print_table(args.workload, {**metrics, **unbounded}, attempted, failed)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    record = dict(result, environment=environment(args), fail_frac=failed / attempted,
                  samples={name: n for name, (_, _, n) in metrics.items()},
                  unbounded_metrics={name: {"value": v, "unit": u, "n": n}
                                     for name, (v, u, n) in unbounded.items()},
                  work_unit=WORK_UNITS[args.workload][1], jobs_by_kind=by_kind(done),
                  jobs=[[job.kind, job.work, elapsed] for job, elapsed, _ in done],
                  problems=problems, **(extra or {}))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def trace_run(runner, args):
    untraced, _ = runner.loop(args.seconds / 2.0)
    tracer, traced = runner.rerun_traced(untraced)
    overhead = sum(t for _, t, _ in traced) / sum(t for _, t, _ in untraced) - 1.0
    metrics = {name: (value, unit, len(tracer.jobs))
               for name, (value, unit) in tracer.metrics(overhead).items()}
    trace_path = OUT / f"{args.workload}-spans.npz"  # the latest traced run only
    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path)
    return metrics, untraced + traced, {"spans_file": str(trace_path.relative_to(ROOT))}


def run_one(args) -> int:
    load_steerkit()
    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, scratch)
        runner.warmup()
        unbounded, extra = None, None
        if args.trace:
            metrics, done, extra = trace_run(runner, args)
        else:
            done, setup_times = runner.loop(args.seconds, SETUP_REPEATS)
            metrics, unbounded = end_to_end_metrics(done, setup_times)
            extra = {"setup_samples_s": setup_times}
        runner.run_checks(done)
        return finish(args, metrics, done, runner.problems, unbounded, extra)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_all(args) -> int:
    """Every workload in its own process (own peak RSS), then one table."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}", file=sys.stderr)
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def run_smoke(args) -> int:
    """Every workload at tiny size: one cycle untraced, the same traced, all checks."""
    import workloads

    load_steerkit()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        scratch = OUT / f"scratch-smoke-{name}-{os.getpid()}"
        scratch.mkdir(parents=True, exist_ok=True)
        try:
            runner = Runner(name, args.seed, scratch, smoke=True)
            runner.warmup()
            done, _ = runner.loop(0.0)
            tracer, traced = runner.rerun_traced(done)
            done += traced
            runner.run_checks(done)
            for metric, (value, unit) in tracer.metrics(0.0).items():
                merged["metrics"][f"{name}/{metric}"] = {"value": value, "unit": unit}
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        failed = sum(1 for _, _, error in done if error is not None)
        for problem in runner.problems:
            print(f"perfbench: {name}: {problem}", file=sys.stderr)
        print(f"smoke {name}: {len(done)} jobs, {failed} failed, {len(runner.problems)} problems")
        merged["correct"] &= failed == 0 and not runner.problems
        merged["attempted"] += len(done)
        merged["failed"] += failed
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return run_smoke(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
