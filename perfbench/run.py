"""extalg benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; extalg is imported from ./src.
Each workload runs in this one process, on one thread, as whole passes over
its fixed job list in an order drawn from --seed.  Every job is checked
against its oracle.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, and the per-layer metrics of a traced pass with --trace 1.
The line before it is a JSON report with the environment and details.
"""

from __future__ import annotations

import os

# Before numpy is imported: the benchmark measures one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import platform
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
import warnings

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# Set-up is timed this many times per run; the median is reported.
SETUP_PROBES = 5
# Tail latency needs at least this many samples: 10 beyond the percentile.
MIN_SAMPLES = 11
# Normalised seconds (see reference_s) per pass over each job list at the
# commit this benchmark was defined on; sets how many whole passes fit in
# --seconds, so that every run of a workload times the same jobs.
NOMINAL_PASS_S = {"cli_corpus": 0.75, "quiver_ladder": 14.0,
                  "wild_syzygy": 4.5, "large_prime": 11.6}
# At least two passes, so that no job's median is a single sample; that
# also gives every job list here at least MIN_SAMPLES samples.  wild_syzygy
# gets three: with two, its 11th-largest sample is the 40 ms resolution job
# at p = 2, whose time jumps by a quarter from run to run.
MIN_PASSES = {"cli_corpus": 2, "quiver_ladder": 2, "wild_syzygy": 3,
              "large_prime": 2}
# The host's speed is probed with the reference kernel before the first job
# and again after every SEGMENT_S of job time.
SEGMENT_S = 0.5
# reference_s() as measured on a 2-core x86-64 VM (Python 3.11, numpy 2.4):
# the unit of the normalised times.
REFERENCE_S = 0.049
# The set-up reference: standard-library modules that this runner has not
# imported when import_reference runs, and its time on the same VM (the
# unit of setup_s).
REFERENCE_MODULES = (
    "asyncio", "email.mime.multipart", "http.server", "unittest",
    "xml.dom.minidom", "pydoc", "tarfile", "zipfile", "logging.handlers",
    "doctest", "concurrent.futures", "csv", "difflib", "configparser",
    "sqlite3", "decimal", "fractions", "ipaddress", "smtplib",
    "xmlrpc.client")
SETUP_REFERENCE_S = 0.14


def require_sources():
    """Exit 1, printing no result, when ./src holds no extalg sources."""
    if not os.path.isfile(os.path.join(SRC, "extalg", "__init__.py")):
        sys.stderr.write(f"error: no extalg sources under {SRC}\n")
        sys.exit(1)


def import_extalg():
    """Import extalg from ./src and nothing else."""
    sys.path.insert(0, SRC)
    import extalg
    import extalg.cli  # noqa: F401  (imports every layer)
    if not os.path.abspath(extalg.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"error: extalg imported from {extalg.__file__}\n")
        sys.exit(1)


def forked_seconds(fn) -> float:
    """Seconds that fn() takes in a child forked from this process."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(rfd)
            t0 = time.perf_counter()
            fn()
            os.write(wfd, repr(time.perf_counter() - t0).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(wfd)
    try:
        with os.fdopen(rfd) as fh:
            out = fh.read()
        _, status = os.waitpid(pid, 0)
        pid = 0
    finally:
        if pid:  # interrupted: stop the child and reap it
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"forked probe failed with status {status}")
    return float(out)


def set_up(workload: str, scratch: str):
    """Set-up as a user pays it: import extalg, generate the job inputs."""
    import_extalg()
    import workloads
    workloads.make_jobs(workload, scratch)


def import_reference():
    for name in REFERENCE_MODULES:
        importlib.import_module(name)


def probe_setup(workload: str, scratch: str):
    """(median normalised seconds, raw probe seconds, reference seconds) of
    SETUP_PROBES set-up probes.

    Each probe runs in a child forked from this process, which has not yet
    imported numpy, sympy or extalg, so every probe imports them from
    scratch without paying for interpreter start-up and tear-down.  A probe
    is normalised like a job segment, but against import_reference, timed
    in its own forked child just before and just after it: imports track
    the host's speed differently from the numpy kernel of reference_s.
    """
    refs = [forked_seconds(import_reference)]
    times = []
    for _ in range(SETUP_PROBES):
        times.append(forked_seconds(lambda: set_up(workload, scratch)))
        refs.append(forked_seconds(import_reference))
    norm = [raw * 2 * SETUP_REFERENCE_S / (refs[k] + refs[k + 1])
            for k, raw in enumerate(times)]
    return statistics.median(norm), times, refs


# ---------------------------------------------------------------------------
# host speed


def reference_s() -> float:
    """Seconds for a fixed reference workload: the geometric mean of two
    kernels timed back to back.

    The host this benchmark runs on changes speed by up to half over tens
    of seconds, and slows some code more than other code.  One kernel is
    row reduction of a 48 x 60 matrix over GF(101), numpy-bound like the
    large hom systems; the other is products of 3 x 3 matrices over GF(2),
    interpreter-bound like the many tiny calls of the CLI corpus.  Both are
    modelled on extalg's inner loops but live here, so that changes to
    extalg do not change them.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    big = rng.integers(0, 101, size=(48, 60))
    small = [rng.integers(0, 2, size=(3, 3)) for _ in range(8)]
    t0 = time.perf_counter()
    for _ in range(30):
        a = big.copy()
        r = 0
        for c in range(a.shape[1]):
            nz = np.nonzero(a[r:, c])[0]
            if not nz.size:
                continue
            piv = r + int(nz[0])
            if piv != r:
                a[[r, piv]] = a[[piv, r]]
            a[r] = (a[r] * pow(int(a[r, c]), -1, 101)) % 101
            rows = np.nonzero(a[:, c])[0]
            rows = rows[rows != r]
            if rows.size:
                a[rows] = (a[rows] - np.outer(a[rows, c], a[r])) % 101
            r += 1
            if r == a.shape[0]:
                break
    t1 = time.perf_counter()
    for k in range(1500):
        x, y = small[k % 8], small[(3 * k + 1) % 8]
        flags = [[int(((x @ y) % 2 == x).all()), 0],
                 [0, int((np.kron(x, y) % 2).any())]]
        np.asarray(flags, dtype=np.int64)
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


# ---------------------------------------------------------------------------
# running jobs


def run_job(jobs, i):
    """(job index, seconds, mismatches); a job that raises has failed."""
    job = jobs[i]
    t0 = time.perf_counter()
    try:
        out = job.run()
    except Exception as e:
        dt = time.perf_counter() - t0
        return i, dt, [f"{type(e).__name__}: {e}"]
    dt = time.perf_counter() - t0
    try:
        errors = job.check(out)
    except Exception as e:  # malformed output fails the job too
        errors = [f"oracle: {type(e).__name__}: {e}"]
    return i, dt, errors


def run_normalised(jobs, orders):
    """Run the jobs in the given orders; returns [(job index, seconds,
    normalised seconds, mismatches)].

    Jobs are timed in segments of at least SEGMENT_S.  A segment's times
    are scaled by REFERENCE_S over the mean of the reference times taken
    just before and just after it, so a stretch of slow host shows in the
    raw times only.
    """
    schedule = [i for order in orders for i in order]
    out, segment = [], []
    before = reference_s()
    for n, i in enumerate(schedule):
        segment.append(run_job(jobs, i))
        if (n == len(schedule) - 1
                or sum(dt for _, dt, _ in segment) >= SEGMENT_S):
            after = reference_s()
            scale = 2 * REFERENCE_S / (before + after)
            out += [(i, dt, dt * scale, e) for i, dt, e in segment]
            segment, before = [], after
    return out


def pass_count(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload], int(seconds // NOMINAL_PASS_S[workload]))


def tail(latencies_ms):
    """(percentile, value): the highest percentile with at least 10 samples
    beyond it, i.e. the 11th largest sample."""
    xs = sorted(latencies_ms)
    k = max(len(xs) - MIN_SAMPLES, 0)
    return 100.0 * (k + 1) / len(xs), xs[k]


def latency_stats(samples, n_jobs: int):
    """(median seconds per job, p50 ms, tail percentile, tail ms) of
    [(job index, seconds)].  The p50 is the median over jobs of each job's
    median, because the pooled median of a mixed job list falls in the gap
    between two jobs and jumps with noise."""
    medians = [statistics.median(dt for i, dt in samples if i == j)
               for j in range(n_jobs)]
    pct, tail_ms = tail([dt * 1000.0 for _, dt in samples])
    return medians, statistics.median(medians) * 1000.0, pct, tail_ms


# ---------------------------------------------------------------------------
# reports


def commit() -> str:
    """The checked-out commit, when the checkout is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git work tree)"


def environment() -> dict:
    import numpy
    import sympy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "sympy": sympy.__version__,
            "commit": commit(), "machine": platform.machine()}


def summary(jobs, results, known_failures):
    """(result line without metrics, report fields) of [(job index, ...,
    mismatches)]; correct unless a job outside known_failures failed."""
    failed = sorted({jobs[r[0]].id for r in results if r[-1]})
    unexpected = [j for j in failed if j not in known_failures]
    n_failed = sum(1 for r in results if r[-1])
    line = {"correct": not unexpected, "attempted": len(results),
            "failed": n_failed}
    report = {"failed_frac": n_failed / len(results), "failed_jobs": failed,
              "unexpected_failures": unexpected,
              "failures": {jobs[r[0]].id: r[-1] for r in results if r[-1]}}
    return line, report


def timed_run(jobs, orders, known, setup):
    results = run_normalised(jobs, orders)
    line, report = summary(jobs, results, known)
    passed = line["attempted"] - line["failed"]
    job_s, p50_ms, pct, tail_ms = latency_stats(
        [(i, norm) for i, _, norm, _ in results], len(jobs))
    raw_job_s, raw_p50_ms, _, raw_tail_ms = latency_stats(
        [(i, raw) for i, raw, _, _ in results], len(jobs))
    # a typical pass takes every job at its median time
    pass_s, raw_pass_s = sum(job_s), sum(raw_job_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (setup[0], "s"),
        "jobs_per_s": (passed / len(orders) / pass_s, "jobs/s"),
        "job_ms_p50": (p50_ms, "ms"),
        "job_ms_tail": (tail_ms, "ms"),
        "pass_frac": (passed / line["attempted"], "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    line["metrics"] = {k: {"value": v, "unit": u}
                       for k, (v, u) in values.items()}
    report.update({
        "passes": len(orders), "samples": len(results),
        "tail_percentile": pct,
        "job_ms_median": {jobs[j].id: ms * 1000.0
                          for j, ms in enumerate(job_s)},
        "setup_probes_s": setup[1], "setup_reference_s": setup[2],
        "raw": {"setup_s": statistics.median(setup[1]),
                "jobs_per_s": passed / len(orders) / raw_pass_s,
                "job_ms_p50": raw_p50_ms, "job_ms_tail": raw_tail_ms},
        "host_speed": sum(raw for _, raw, _, _ in results)
        / sum(norm for _, _, norm, _ in results)})
    return line, report


def traced_run(jobs, order, known):
    """One pass in which every job runs untraced and traced, alternating
    which goes first, so that host drift and warm-up fall on both sides."""
    from tracer import LAYERS, Tracer
    tracer = Tracer()
    results, plain_s, traced_s = [], 0.0, 0.0
    for n, i in enumerate(order):
        for traced in ((False, True) if n % 2 else (True, False)):
            if traced:
                tracer.job = i
                with tracer:
                    results.append(run_job(jobs, i))
                traced_s += results[-1][1]
            else:
                results.append(run_job(jobs, i))
                plain_s += results[-1][1]
    line, report = summary(jobs, results, known)
    values = tracer.metrics()
    for layer in LAYERS:
        values[f"{layer}.sloc"] = sloc(os.path.join(SRC, "extalg",
                                                    f"{layer}.py"))
    values["trace.overhead_ratio"] = traced_s / plain_s
    units = {"_s": "s", "_share": "ratio", "_ratio": "ratio",
             ".sloc": "lines", "cells": "cells", ".p2": "cells",
             ".podd": "cells"}
    line["metrics"] = {
        name: {"value": value,
               "unit": next((u for suffix, u in units.items()
                             if name.endswith(suffix)), "count")}
        for name, value in values.items()}
    top = sorted(tracer.function_table().items(), key=lambda kv: -kv[1][2])
    report.update({
        "untraced_s": plain_s, "traced_s": traced_s,
        "spans": len(tracer.spans),
        "top_self_s": {q: {"calls": c, "total_s": t, "self_s": s}
                       for q, (c, t, s) in top[:15]}})
    return line, report


def sloc(path: str) -> int:
    """Non-blank lines that are not comments."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh
                   if line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind: a running set-up probe is killed and reaped, and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    require_sources()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        # before this process imports extalg, so that each probe imports it
        setup = None if args.trace else probe_setup(args.workload, tmp)
        import_extalg()
        import workloads
        jobs = workloads.make_jobs(args.workload, tmp)
        from sympy.utilities.exceptions import SymPyDeprecationWarning
        warnings.simplefilter("ignore", SymPyDeprecationWarning)

        rng = random.Random(args.seed)
        passes = 1 if args.trace else pass_count(args.workload, args.seconds)
        orders = [rng.sample(range(len(jobs)), len(jobs))
                  for _ in range(passes)]
        if args.trace:
            line, report = traced_run(jobs, orders[0],
                                      workloads.KNOWN_FAILURES)
        else:
            line, report = timed_run(jobs, orders, workloads.KNOWN_FAILURES,
                                     setup)
        report.update({"workload": args.workload, "seed": args.seed,
                       "env": environment(),
                       "job_orders": [[jobs[i].id for i in o]
                                      for o in orders]})
        print(json.dumps(report, sort_keys=True))
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
