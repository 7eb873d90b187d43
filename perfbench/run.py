"""Benchmark of hrex: four workloads, end-to-end metrics, per-layer trace.

Run from the root of a source checkout (hrex is imported from ./src):

    python3 perfbench/run.py --workload converge_lag0 --seed 1 --seconds 20 --trace 0

Workloads: converge_lag0, serial_maxima, sample_dump, theta_constraints
(see perfbench/README.md).  A run sets the workload up, repeats whole
rounds of its operations for --seconds, then checks the first round's
outputs against references computed without hrex.  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  Lines before it start with '#' and are for people.

--quick runs every workload and every check at tiny sizes, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
# BLAS gets one thread per calling thread: converge_lag0 already runs nproc
# Python threads, and a multi-threaded BLAS call waits for the slower core.
# In ten-run sets on a shared 2-core machine, theta_constraints' round time
# spread by 0.20 of its median with BLAS threads and by 0.09 without.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the throughput each workload reports on the lines for people:
# (work unit counted by its operations, metric name, unit)
RATES = {"converge_lag0": ("cells", "cells_per_s", "cells/s"),
         "serial_maxima": ("cells", "cells_per_s", "cells/s"),
         "sample_dump": ("dump_bytes", "dump_bytes_per_s", "B/s"),
         "theta_constraints": ("theta_samples", "theta_samples_per_s", "samples/s")}


def say(*parts) -> None:
    print("#", *parts, flush=True)


def import_hrex():
    if not os.path.isfile(os.path.join(SRC, "hrex", "__init__.py")):
        raise SystemExit("perfbench: no hrex sources at %s; run from a source checkout" % SRC)
    sys.path.insert(0, SRC)
    import hrex

    if not os.path.abspath(hrex.__file__).startswith(SRC + os.sep):
        raise SystemExit("perfbench: imported hrex from %s, not from %s" % (hrex.__file__, SRC))
    return hrex


def environment() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (deps.get("name"), deps.get("version"))
    except Exception:  # older numpy has no dict mode; the record says unknown
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "machine": platform.machine()}


def measure_setup(args) -> list[float]:
    """Process start to the end of set-up, in fresh processes."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
            "--setup-probe"] + (["--quick"] if args.quick else [])
    times = []
    for _ in range(1 if args.quick else SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s): %s" % (proc.returncode, err.strip()[-500:]))
        times.append(elapsed)
    return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(args) -> dict:
    import tracer as tracing
    from workloads import WORKLOADS, Check

    env = environment()
    say("env", json.dumps(env, sort_keys=True))
    setup_times = measure_setup(args)

    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, args.quick)
        workload.setup()
        tracer = tracing.Tracer() if args.trace else None

        attempted = failed = 0
        messages: list[str] = []
        first: dict = {}     # op name -> first-round output
        digests: dict = {}
        matched: dict = {}   # op name -> calls whose output matched the first round
        units: dict = {}
        rounds: list[tuple[bool, float]] = []
        layer_rounds: list[dict] = []
        started = time.perf_counter()
        while True:
            traced = bool(tracer) and len(rounds) % 2 == 1
            if traced:
                tracer.reset()
                tracer.install(workload.models())
            round_time = 0.0
            try:
                for op in workload.ops():
                    attempted += 1
                    if tracer:
                        tracer.part = op.part
                    t0 = time.perf_counter()
                    try:
                        output = op.call()
                    except Exception as exc:
                        round_time += time.perf_counter() - t0
                        failed += 1
                        messages.append("%s: %s" % (op.name, "".join(
                            traceback.format_exception_only(type(exc), exc)).strip()))
                        continue
                    round_time += time.perf_counter() - t0
                    digest = op.digest(output)
                    if op.name not in first:
                        first[op.name], digests[op.name] = output, digest
                        for unit, amount in op.units.items():
                            units[unit] = units.get(unit, 0) + amount
                    elif digest != digests[op.name]:
                        failed += 1
                        messages.append("%s: output differs from the first round" % op.name)
                        workload.discard(output)
                        continue
                    else:
                        workload.discard(output)
                    matched[op.name] = matched.get(op.name, 0) + 1
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                layer_rounds.append(tracer.round_metrics())
            rounds.append((traced, round_time))
            # whole rounds only: stop when one more would end further past
            # --seconds than stopping now falls short of it
            elapsed = time.perf_counter() - started
            typical = statistics.median(t for _, t in rounds)
            kinds = {t for t, _ in rounds}
            if elapsed + typical / 2 >= args.seconds and (not tracer or kinds == {True, False}):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # An operation whose output fails a check fails in every round that
        # gave that same output, so the failed share does not depend on how
        # many rounds fit in --seconds.
        checks = []
        for name, output in first.items():
            try:
                own = workload.check(name, output)
            except Exception as exc:
                own = [Check("%s.checks" % name, False, "".join(traceback.format_exception(exc))[-2000:])]
            checks += own
            if any(not c.ok for c in own):
                failed += matched[name]
        bad = [c for c in checks if not c.ok]
        messages += ["check %s: %s" % (c.name, c.message) for c in bad]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)  # holds every output directory

    plain = [t for traced, t in rounds if not traced]
    q1, med, q3 = quartiles(plain)
    say("workload %s seed %d rounds %d (%d traced), %d checks" % (
        args.workload, args.seed, len(rounds), len(layer_rounds), len(checks)))
    say("round_s median %.4f quartiles %.4f %.4f over %d rounds: %s" % (
        med, q1, q3, len(plain), " ".join("%.4f" % t for t in plain)))
    say("setup_s probes %s" % " ".join("%.4f" % t for t in setup_times))
    work, name, unit = RATES[args.workload]
    say("metric %s %.6g %s (%d %s per round)" % (name, units.get(work, 0) / med, unit, units.get(work, 0), work))
    say("metric setup_s %.6f s" % statistics.median(setup_times))
    say("metric peak_rss_mb %.3f MB" % peak_rss_mb)
    for c in checks:
        if not c.ok:
            say("check FAILED %s: %s" % (c.name, c.message))
    say("checks passed %d of %d" % (len(checks) - len(bad), len(checks)))
    for m in messages:
        say("failure", m)

    if tracer:
        metrics = layer_metrics(tracer, tracing, layer_rounds, rounds)
        spans = os.path.join(WORK, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        tracer.write_spans(spans)
        say("spans written to %s" % os.path.relpath(spans, ROOT))
        if tracer.missing:
            say("trace: missing wrappers (their metrics read 0): %s" % ", ".join(tracer.missing))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "round_s": {"value": med, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not bad, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(tracer, tracing, layer_rounds, rounds) -> dict:
    """Counts from the first traced round (they repeat exactly), times as
    the median over traced rounds."""
    out = {}
    for name, unit in tracing.METRICS:
        if name == "trace.overhead_s":
            traced = statistics.median(t for tr, t in rounds if tr)
            plain = statistics.median(t for tr, t in rounds if not tr)
            value = traced - plain
        elif unit in tracing.COUNT_UNITS:
            values = [r[name] for r in layer_rounds]
            if len(set(values)) > 1:
                say("trace: count %s differs between traced rounds: %s" % (name, values))
            value = values[0]
        else:
            value = statistics.median(r[name] for r in layer_rounds)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(RATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.environ.update(BLAS_THREADS)  # before numpy loads BLAS; set-up probes inherit it
    import_hrex()
    os.environ.pop("HREX_OUT", None)  # it would redirect the CLI's output directory
    os.makedirs(WORK, exist_ok=True)
    if args.setup_probe:
        from workloads import WORKLOADS

        workdir = tempfile.mkdtemp(prefix="probe-", dir=WORK)
        try:
            WORKLOADS[args.workload](args.seed, workdir, args.quick).setup()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("ready", flush=True)
        return 0
    result = run(args)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
