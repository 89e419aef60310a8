"""Benchmark of the vfbm package: three closed-loop workloads, outside in.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs jobs back to back, each after the previous
one completed.  The package is driven only from outside: public functions
are called directly and the CLI runs in this process through
``vfbm.cli.main(argv)`` with stdout captured.

``--trace 0`` prints the end-to-end metrics.  This process runs warm jobs
for ``--seconds``, and at least until 11 have run, so that a tail with ten
jobs beyond it exists.  Set-up time and first-job time are medians over
fresh processes started at even intervals among the warm jobs: set-up is
timed from the process's start to the end of set-up, and each process's
first job is timed apart from later ones (it is what a one-shot CLI call
pays).

``--trace 1`` does the same, then runs a fixed number of jobs with every
public function of the package wrapped (see ``tracer.py``) and prints the
per-layer metrics; its spans are written to ``.perfbench-out/`` at the
root of the checkout.  End-to-end metrics always come from untraced jobs.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a record: every
end-to-end metric with its unit (also in a traced run), the error rate,
the tail percentile and its sample count, the job times and the machine.
Names and units of the metrics are those declared in ``BENCHMARK.json``.
"""

import os
import sys

# Pin BLAS threads before numpy is imported: the package's own cap
# (VFBM_THREADS, applied in cli.main) runs too late inside this process, and
# with two threads job times on a two-core machine spread widely.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VFBM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"  # inputs and CLI outputs, removed at exit
TRACE_OUT = ROOT / ".perfbench-out"

COLD_STARTS = 5  # fresh processes for set-up and first-job times
MIN_TAIL_JOBS = 11  # the tail percentile needs ten jobs beyond it
TRACED_JOBS = 3


def _import_package():
    """Import vfbm from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "vfbm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no vfbm package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import vfbm

    if Path(vfbm.__file__).resolve().parent != (SRC / "vfbm").resolve():
        sys.exit(f"perfbench: imported vfbm from {vfbm.__file__}, not from {SRC}")
    return vfbm


def _read_loadavg():
    try:
        fields = Path("/proc/loadavg").read_text().split()
    except OSError:
        return None
    running, total = fields[3].split("/")
    return {"1m": float(fields[0]), "5m": float(fields[1]), "15m": float(fields[2]),
            "running": int(running), "tasks": int(total)}


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mounts."""
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    best, fs = "", "unknown"
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        mount = parts[1]
        if (target == mount or target.startswith(mount.rstrip("/") + "/")) and len(mount) >= len(best):
            best, fs = mount, parts[2]
    return fs


def _machine(workdir: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "process_threads": threads,
        "output_fs": _fs_type(workdir),
    }


def _others_running() -> int | None:
    """Runnable tasks other than this one, from /proc/loadavg."""
    load = _read_loadavg()
    return None if load is None else load["running"] - 1


def _concurrent_load(samples) -> bool:
    """True when, in at least half of the samples taken after each job,
    another task was runnable.  The load averages before and after are
    recorded too but include this benchmark's own earlier runs."""
    seen = [s for s in samples if s is not None]
    return bool(seen) and 2 * sum(1 for s in seen if s > 0) >= len(seen)


def _cold_start(args) -> tuple:
    """Set-up time and first job of a fresh process.  Set-up runs from the
    process's start to its 'ready' line; the job is timed inside it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--cold-probe"] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        out, err = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"cold-start probe failed (exit {proc.returncode}): {err.strip()}")
    return t1 - t0, tuple(json.loads(out.splitlines()[-1]))


def _run_job(wl, k, tracer=None):
    """(seconds, work units, failures, others running) of job k; a raise
    counts as a failure."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.job(k)
        else:
            with tracer.job(k):
                raw = wl.job(k)
    except Exception:
        return time.perf_counter() - t0, 0, ["raised: " + traceback.format_exc(limit=-4)], _others_running()
    elapsed = time.perf_counter() - t0
    try:
        units, failures = wl.check(k, raw)
    except Exception:
        units, failures = 0, ["check raised: " + traceback.format_exc(limit=-4)]
    return elapsed, units, failures, _others_running()


def _measure(wl, args) -> tuple:
    """Warm jobs for ``args.seconds`` (and at least MIN_TAIL_JOBS), with
    COLD_STARTS fresh processes spread evenly among them, so that every
    metric samples the same stretch of a machine whose speed drifts.

    Returns set-up times, first jobs and warm jobs.
    """
    setups, firsts, warm = [], [], []
    clock = 0.0  # time spent in warm jobs
    while len(warm) < MIN_TAIL_JOBS or clock < args.seconds or len(setups) < COLD_STARTS:
        if len(setups) < COLD_STARTS and clock >= len(setups) * args.seconds / COLD_STARTS:
            setup_s, first = _cold_start(args)
            setups.append(setup_s)
            firsts.append(first)
            continue
        t0 = time.perf_counter()
        warm.append(_run_job(wl, 1 + len(warm)))
        clock += time.perf_counter() - t0
    return setups, firsts, warm


def _tail(times) -> tuple:
    """Highest percentile with at least ten jobs beyond it, and its value.

    Of n sorted times the (n-10)-th has exactly ten above it; it sits at
    percentile 100 (n-10)/n.
    """
    n = len(times)
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def _end_to_end(setups, firsts, rest) -> tuple:
    times = [t for t, *_ in rest]
    percentile, tail = _tail(times)
    return {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail,
        "work_per_s": sum(u for _, u, *_ in rest) / sum(times),
        "first_job_s": statistics.median(t for t, *_ in firsts),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"tail_percentile": percentile, "tail_samples": len(times),
        "setup_samples_s": setups, "first_job_samples_s": [t for t, *_ in firsts],
        "job_times_s": times}


def _traced(vfbm, wl, first_k, untraced_p50, args) -> tuple:
    """Run TRACED_JOBS more jobs with the package wrapped; per-layer metrics."""
    from tracer import Tracer

    tracer = Tracer(vfbm)
    bytes_before = wl.cli_bytes
    tracer.install()
    try:
        traced = [_run_job(wl, first_k + i, tracer) for i in range(TRACED_JOBS)]
    finally:
        tracer.uninstall()
    tracer.counts["cli.bytes_out"] = wl.cli_bytes - bytes_before
    summary = tracer.summary()
    tracer.write(TRACE_OUT / f"trace-{args.workload}-seed{args.seed}.json.gz")
    traced_p50 = statistics.median(t for t, *_ in traced)
    metrics = summary["metrics"]
    metrics["trace.overhead_s"] = traced_p50 - untraced_p50
    metrics["trace.job_s"] = sum(t for t, *_ in traced)
    info = {
        "traced_jobs": summary["jobs"],
        "spans": summary["spans"],
        "traced_job_p50_s": traced_p50,
        # job time that no package span covers: the benchmark's own part
        "unattributed_s": max(j["job_s"] - j["package_self_s"] for j in summary["jobs"]),
    }
    return traced, metrics, info


def _probe(workloads, args) -> int:
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        wl.setup()
        print("ready", flush=True)
        first = _run_job(wl, 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(first))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of workloads.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--cold-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    load_before = _read_loadavg()
    vfbm = _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    if args.cold_probe:
        return _probe(workloads, args)

    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
        wl.setup()
        first = _run_job(wl, 0)
        setups, firsts, rest = _measure(wl, args)
        firsts.append(first)
        jobs = firsts + rest
        end_to_end, info = _end_to_end(setups, firsts, rest)
        values, declared = end_to_end, spec["end_to_end"]
        if args.trace:
            traced, values, trace_info = _traced(vfbm, wl, 1 + len(rest), end_to_end["job_p50_s"], args)
            jobs += traced
            info.update(trace_info)
            declared = spec["per_layer"]
        run_failures = wl.finish()
        machine = _machine(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    load_after = _read_loadavg()

    failed = 0
    for _, _, failures, _ in jobs:
        failed += bool(failures)
        for msg in failures:
            print(f"perfbench: job failed: {msg}", file=sys.stderr)
    for msg in run_failures:
        print(f"perfbench: run check failed: {msg}", file=sys.stderr)
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"measured metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    # every end-to-end metric of the untraced jobs, with the error rate that
    # BENCHMARK.json cannot declare (it is 0 on a correct run)
    summary = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    summary["error_rate"] = {"value": failed / len(jobs), "unit": "ratio"}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": wl.unit,
        "end_to_end": summary,
        "run_checks_failed": run_failures,
        "machine": machine,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "concurrent_load": _concurrent_load([j[3] for j in jobs]),
        **info,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0 and not run_failures,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
