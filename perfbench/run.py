"""dstarlab benchmark: one workload as a closed loop with one client.

    python3 perfbench/run.py --workload dist --seed 1 --seconds 20 --trace 0

Jobs are dstarlab commands called in-process through
``dstarlab.cli.main([..., "--no-timestamp"])``, checked against the frozen
references.  With ``--trace 0`` the run measures whole rounds of jobs for at
least ``--seconds`` and prints the end-to-end metrics; with ``--trace 1`` it
runs a fixed number of rounds with the program wrapped by the tracer, then the
same rounds unwrapped, and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import jobs as J
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-ups per run, the run's own included; the median is `setup_s`.  Short
# set-ups (0.06-0.3 s, mostly imports) vary by 5-15% from one to the next, so
# they get many samples; the 2 s cache fill gets three, to keep a run short.
SETUP_REPEATS = {"dist": 11, "growth": 7, "enumerate": 11, "dist-cached": 3}
TAIL_BEYOND = 10
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import dstarlab from this checkout's sources, never from elsewhere,
    with BLAS pinned to one thread and no cache directory from the environment."""
    pkg = SRC / "dstarlab"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dstarlab sources at {pkg}")
    for var in BLAS_VARS:  # read once, when numpy is first imported
        os.environ[var] = "1"
    os.environ.pop("DSTARLAB_CACHE", None)  # a stale cache would turn cold jobs into hits
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dstarlab
    import dstarlab.cache  # noqa: F401  (cli imports it too; the tracer needs every module)
    import dstarlab.cli  # noqa: F401

    if Path(dstarlab.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported dstarlab from {dstarlab.__file__}")
    return dstarlab


@dataclass
class State:
    workload: str
    workdir: Path
    cache_dir: Path | None = None
    cold: dict = field(default_factory=dict)  # job key -> cold result block
    cold_dirs: itertools.count = field(default_factory=itertools.count)


def run_job(argv):
    """(seconds, exit code, stdout) of one in-process dstarlab command."""
    import dstarlab.cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dstarlab.cli.main([*argv, "--no-timestamp"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing job is a failed job, not a failed benchmark
        code = "exception: " + traceback.format_exc(limit=3).replace("\n", " | ")
    return time.perf_counter() - t0, code, out.getvalue()


def job_argv(state: State, job) -> list:
    if state.workload == "dist":  # a fresh, empty cache directory per cold job
        return [*job, "--cache-dir", str(state.workdir / f"cold-{next(state.cold_dirs)}")]
    if state.workload == "dist-cached":
        return [*job, "--cache-dir", str(state.cache_dir)]
    return list(job)


def set_up(workload: str, workdir: Path) -> State:
    """Import, warm the program's in-process caches, fill the disk cache."""
    dstarlab = import_program()
    import mpmath  # noqa: F401  (imported lazily by the program on first use)
    import numpy  # noqa: F401

    state = State(workload, workdir)
    if workload == "growth":
        dstarlab.asymptotics.find_x0(J.GROWTH_ORDER)
        dstarlab.asymptotics.compute_b(J.GROWTH_ORDER)
    largest = {"dist": max(J.DIST_CENTERS.values()) + 1, "growth": J.GROWTH_ORDER,
               "enumerate": max(J.CONJECTURE_MAX_N),
               "dist-cached": J.CACHED_LARGE[1]}[workload]
    dstarlab.pseries.planted_series(largest)
    if workload == "dist-cached":
        state.cache_dir = workdir / "cache"
        for job in J.domain(workload):
            _, code, out = run_job(job_argv(state, job))
            if code == 0:
                state.cold[J.job_key(job)] = json.loads(out)["result"]
    return state


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_rounds(state: State, round_iter, seconds: float | None = None, min_rounds: int = 1):
    """Run whole rounds; stop after the first round that ends past ``seconds``
    once ``min_rounds`` rounds are done."""
    records = []
    start = time.perf_counter()
    for done, rnd in enumerate(round_iter, 1):
        for job in rnd:
            records.append((job, *run_job(job_argv(state, job))))
        if (seconds is not None and done >= min_rounds
                and time.perf_counter() - start >= seconds):
            break
    return records, time.perf_counter() - start


def failures(state: State, records, refs) -> list:
    hits = 1 if state.workload == "dist-cached" else 0
    out = []
    for job, _, code, stdout in records:
        key = J.job_key(job)
        reason = J.check(job, code, stdout, refs.get(key), expect_hits=hits,
                         cold=state.cold.get(key) if hits else None)
        if reason:
            out.append((key, reason))
    return out


def tail(times) -> tuple:
    """(value, percentile, jobs beyond): the highest percentile with
    TAIL_BEYOND jobs beyond it, or the maximum when there are too few jobs."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def rel_error_max(records) -> float | None:
    """Largest error/|value| over the mu estimates of the run: the singularity
    route's and the extrapolated one of every mu job."""
    worst = None
    for job, _, code, stdout in records:
        if job[0] == "mu" and code == 0:
            res = json.loads(stdout)["result"]
            for est in (res, res["extrapolation"]):
                rel = est["error"] / abs(est["value"])
                worst = rel if worst is None else max(worst, rel)
    return worst


def environment(workload: str, seed: int) -> dict:
    from dstarlab import _rat

    git_rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_rev = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "backend": "gmpy2 mpq" if _rat.HAVE_GMPY2 else "Fraction",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_rev": git_rev,
    }


def report(metrics: dict, notes: dict):
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:>14.6g} {unit}{note}")


def measure(args, state: State, setup_s: float, refs) -> tuple:
    setups = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                          for _ in range(SETUP_REPEATS[args.workload] - 1)]
    # Set-up's objects (modules, the warmed series, the references) are moved
    # out of the collector's reach, so that a full collection during a job
    # scans what the jobs allocate, as it would in a one-shot dstarlab process.
    gc.collect()
    gc.freeze()
    records, wall = run_rounds(state, J.rounds(args.workload, args.seed), args.seconds,
                               J.MIN_ROUNDS[args.workload])
    failed = failures(state, records, refs)
    times = [r[1] for r in records]
    ok = len(records) - len(failed)
    tail_s, tail_q, beyond = tail(times)
    err = rel_error_max(records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (ok / wall, "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (ok / len(records), "1"),
        # exact workloads report no estimate; an unknown relative error reads 1
        "rel_error_max": (1.0 if err is None else err, "1"),
    }
    notes = {
        "setup_s": "median of " + ", ".join(f"{s:.4g}" for s in setups),
        "jobs_per_s": f"{ok} jobs in {wall:.2f} s",
        "job_s_tail": f"p{tail_q:.1f}, {beyond} of {len(times)} jobs beyond",
        "ok_ratio": f"failed_ratio {len(failed) / len(records):.6g} 1 ({len(failed)} of {len(records)})",
    }
    if err is None:
        notes["rel_error_max"] = "no mu estimate in this workload"
    return metrics, notes, records, failed


def measure_traced(args, tracer: tracing.Tracer, state: State, refs) -> tuple:
    plan = J.take_rounds(args.workload, args.seed, J.TRACE_ROUNDS[args.workload])
    tracer.mark_pass()
    traced, _ = run_rounds(state, plan)
    tracer.uninstall()
    plain, _ = run_rounds(state, plan)
    failed = failures(state, traced + plain, refs)
    traced_s = sum(r[1] for r in traced)
    plain_s = sum(r[1] for r in plain)
    metrics = tracer.metrics()
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / plain_s - 1.0, "1")
    notes = {"trace.overhead": f"{traced_s:.3f} s traced vs {plain_s:.3f} s untraced"}
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    print("self time by layer: " + ", ".join(
        f"{k} {v:.3f} s ({v / traced_s:.0%})"
        for k, v in sorted(tracer.layer_seconds().items(), key=lambda kv: -kv[1])))
    for entry, children in sorted(tracer.children_seconds("asymptotics").items()):
        print(f"children of {entry}: " + ", ".join(
            f"{k} {v:.3f} s" for k, v in sorted(children.items(), key=lambda kv: -kv[1])))
    return metrics, notes, traced + plain, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=J.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up time and exit")
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_only:
            set_up(args.workload, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        tracer = None
        if args.trace:
            import_program()
            tracer = tracing.Tracer()
            tracer.install()
        state = set_up(args.workload, workdir)
        setup_s = time.perf_counter() - _T0  # the same span a --setup-only child times
        refs = J.load_references()
        if tracer is None:
            metrics, notes, records, failed = measure(args, state, setup_s, refs)
        else:
            metrics, notes, records, failed = measure_traced(args, tracer, state, refs)
        print(f"perfbench {args.workload} seed={args.seed}: {len(records)} jobs")
        report(metrics, notes)
        for key, reason in failed[:10]:
            print(f"  FAILED {key}: {reason}")
        print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
        print(json.dumps({
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
