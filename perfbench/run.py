"""Benchmark for divpart: seeded CLI jobs end to end, per-layer spans traced.

    python3 perfbench/run.py --workload exact-law --seed 1 --seconds 55 --trace 0

Run it from the root of a checkout.  It is a closed loop with one client:
one ``python -m divpart ...`` job at a time, each in a fresh interpreter,
because a user pays the cold start on every run.  The seed draws the job
list from the committed catalog (``catalog.py``); every job's output is
checked against its reference (``checks.py``).  A run replays the list a
fixed number of passes, ``seconds`` over the workload's nominal pass time,
so the job count, and with it the tail percentile, depends only on
``--seconds``.

The host this runs on is shared: its speed swings by up to 1.6x within
seconds and drifts over minutes, and a whole run moves with it.  So the
timings are reported in reference seconds.  Before every job the benchmark
times ``KERNEL``, fixed work in a fresh interpreter; every timing
of the run is multiplied by ``REFERENCE_KERNEL_S`` over the median of those
kernel times.  On a host as fast as the reference one the factor is 1, and
a change to divpart moves the figures as it moves raw seconds, because the
kernel runs none of divpart's code.  The raw figures and the factor are
printed on the ``host`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
same jobs, each once untraced and once under ``tracejob.py``, and prints
the per-layer metrics of ``layers.py``; it fails the run when a traced job's
stdout differs from the untraced one or a count made without a clock does
not repeat on every pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2, with no result, when divpart
cannot be imported from ``src/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import catalog
import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# one pass of the job list, with its import and kernel samples, takes about
# this long on the 2-core host the bounds were set on
PASS_NOMINAL_S = {"exact-law": 16.0, "asymptotic": 20.0}
IMPORT_EVERY = 3        # jobs per setup_s sample
# median KERNEL time on that host; only the unit of the timings depends on
# it, not their spread
REFERENCE_KERNEL_S = 0.21

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("job_p50_s", "s"),
    ("job_tail_s", "s"), ("peak_rss_mb", "MiB"),
)
IMPORT_TIMER = "import time; t = time.perf_counter(); import divpart; print(time.perf_counter() - t)"
PROBE = "import json, divpart, numpy; print(json.dumps([divpart.__file__, numpy.__version__]))"
# Fixed work shaped like a job: a fresh interpreter, the numpy import, small
# int loops and numpy arithmetic.  It imports nothing of divpart.  A kernel
# run in the benchmark's own process followed the jobs worse: it misses the
# start-up cost that every job pays, and big-integer products in it swung
# far more than the jobs did.
KERNEL = """\
import numpy as np
x = 0
for i in range(60000):
    x = (x * 31 + i) % 1000003
a = np.arange(20000, dtype=float)
for _ in range(50):
    a = np.sqrt(a * a + 1.0)
b = 7 ** 30000 * 11 ** 28000
"""


class SetupError(RuntimeError):
    pass


@dataclass
class Job:
    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_kb: int
    rc: int
    stdout: bytes
    stderr: bytes
    problem: str | None = None


class Runner:
    """Starts one child at a time and accounts it with os.wait4, which
    gives that child's own CPU time and peak RSS."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, cmd: list[str], argv: list[str]) -> Job:
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *cmd], stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:   # interrupted or terminated: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Job(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   proc.returncode, out_path.read_bytes(), err_path.read_bytes())

    def cli_job(self, argv: list[str], refs: dict) -> Job:
        job = self.run(["-m", "divpart", *argv], argv)
        job.problem = _check(job, refs)
        return job


def _check(job: Job, refs: dict) -> str | None:
    ref = refs.get(catalog.key(job.argv))
    if ref is None:
        return "no catalog reference"
    return checks.check(job.argv, job.rc, job.stdout, job.stderr, ref)


def probe(runner: Runner) -> str:
    """Proves the program under test is the one in this checkout; returns
    the numpy version."""
    probe = runner.run(["-c", PROBE], [])
    if probe.rc != 0:
        raise SetupError("cannot import divpart from src/: "
                         + probe.stderr.decode("utf-8", "replace").strip()[-300:])
    path, numpy_version = json.loads(probe.stdout)
    if not Path(path).resolve().is_relative_to(ROOT / "src"):
        raise SetupError(f"divpart resolves to {path}, outside {ROOT / 'src'}")
    return numpy_version


def import_time(runner: Runner) -> float:
    """One cold `import divpart` in a fresh interpreter."""
    job = runner.run(["-c", IMPORT_TIMER], [])
    if job.rc != 0:
        raise SetupError("import divpart failed")
    return float(job.stdout)


def kernel_time(runner: Runner) -> float:
    """Wall time of one KERNEL process: the host's speed right now."""
    job = runner.run(["-c", KERNEL], [])
    if job.rc != 0:
        raise SetupError("the host-speed kernel failed")
    return job.wall_s


def quantile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density.  It draws on
    every sample near the quantile, not on one, so a job list whose cost
    classes leave a gap at the quantile does not make it jump."""
    xs = sorted(xs)
    n, steps = len(xs), 64
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    grid = [(k + 0.5) / (n * steps) for k in range(n * steps)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log(1 - t) for t in grid]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, jobs beyond it): the highest percentile with at
    least 10 jobs beyond it, not below the median."""
    n = len(latencies)
    q = max(50, min(99, math.floor(100 * (n - 10) / n)))
    i = max(0, math.ceil(q * n / 100) - 1)
    return q, quantile(latencies, q / 100), n - 1 - i


def _same_flags_same_bytes(jobs: list[Job]) -> None:
    """Identical flags must give identical stdout, and --workers may change
    wall time only: mark every job whose stdout differs from the first one
    run with the same flags (ignoring --workers)."""
    first: dict[tuple, bytes] = {}
    for job in jobs:
        flags = list(job.argv)
        if "--workers" in flags:
            i = flags.index("--workers")
            del flags[i:i + 2]
        want = first.setdefault(tuple(flags), job.stdout)
        if job.problem is None and job.stdout != want:
            job.problem = "stdout differs from an earlier run with the same flags"


def end_to_end(runner: Runner, jobs: list[list[str]], passes: int, refs: dict):
    """wall_s and cpu_s are the time to finish the job list once, taken as
    the sum over its jobs of each job's median over the passes, so that a
    burst of load from outside slows one sample of a job, not the metric.
    Before each job the benchmark times the kernel, and before every third
    job a cold import too (the samples of setup_s).  All timings are scaled
    to the reference host speed (see the module docstring)."""
    kernel: list[float] = []
    imports: list[float] = []
    runs = []
    for p in range(passes):
        this = []
        for i, argv in enumerate(jobs):
            if (p * len(jobs) + i) % IMPORT_EVERY == 0:
                imports.append(import_time(runner))
            kernel.append(kernel_time(runner))
            this.append(runner.cli_job(argv, refs))
        runs.append(this)
    done = [job for this in runs for job in this]
    _same_flags_same_bytes(done)
    per_job = list(zip(*runs))
    latencies = [j.wall_s for j in done]
    q, tail_s, beyond = tail(latencies)
    raw = {
        "setup_s": statistics.median(imports),
        "wall_s": sum(statistics.median(j.wall_s for j in js) for js in per_job),
        "cpu_s": sum(statistics.median(j.cpu_s for j in js) for js in per_job),
        "job_p50_s": quantile(latencies, 0.5),
        "job_tail_s": tail_s,
    }
    scale = REFERENCE_KERNEL_S / statistics.median(kernel)
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(j.rss_kb for j in done) / 1024.0
    notes = {"job_tail_s": f"p{q} of {len(done)} jobs, {beyond} beyond it",
             "wall_s": f"{len(jobs)} jobs, each the median of {passes} passes",
             "setup_s": f"median of {len(imports)} imports"}
    host = {"kernel_median_s": statistics.median(kernel), "kernel_samples": len(kernel),
            "scale": scale, "raw": raw}
    return done, metrics, notes, [], host


def traced(runner: Runner, jobs: list[list[str]], passes: int, refs: dict):
    done: list[Job] = []
    totals: list[layers.LayerTotals] = []
    import_s, plain_wall, traced_wall = [], [], []
    errors: list[str] = []
    trace_path = runner.tmp / "trace.json"
    for _ in range(passes):
        total = layers.LayerTotals()
        for argv in jobs:
            plain = runner.cli_job(argv, refs)
            trace_path.unlink(missing_ok=True)
            job = runner.run([str(HERE / "tracejob.py"), str(trace_path), "--", *argv], argv)
            job.problem = _check(job, refs)
            if job.problem is None and job.stdout != plain.stdout:
                job.problem = "traced stdout differs from untraced stdout"
            if job.problem is None:
                try:
                    trace = json.loads(trace_path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as exc:
                    job.problem = f"no trace written: {exc}"
                else:
                    total.add_job(trace)
                    import_s.append(trace["import_s"])
            plain_wall.append(plain.wall_s)
            traced_wall.append(job.wall_s)
            done += [plain, job]
        totals.append(total)
    _same_flags_same_bytes(done)
    if any(t.counts() != totals[0].counts() for t in totals):
        errors.append("counts made without a clock differ between passes")

    per_pass = [t.values() for t in totals]
    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        if name in ("cli.import_s", "trace.overhead_frac"):
            continue
        # counts repeat exactly (checked above); times are pass medians
        metrics[name] = (statistics.median(v[name] for v in per_pass) if unit == "s"
                         else per_pass[0][name])
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    metrics["trace.overhead_frac"] = sum(traced_wall) / sum(plain_wall) - 1.0
    notes = {"partition.build_table.packed_adds": "computed from loop bounds, not counted"}
    return done, metrics, notes, errors, None


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="divpart benchmark")
    parser.add_argument("--workload", required=True, choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="run only the first N jobs of the list (smoke tests)")
    args = parser.parse_args(argv)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be >= 1")

    # a terminated run unwinds like an interrupted one: the running child is
    # killed and waited for, and the scratch directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    load_start = os.getloadavg()
    jobs = catalog.job_list(args.workload, args.seed)[: args.limit]
    refs = catalog.load()
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp)
        try:
            numpy_version = probe(runner)
            if args.trace:
                passes = max(2, round(args.seconds / (2 * PASS_NOMINAL_S[args.workload])))
                done, metrics, notes, errors, host = traced(runner, jobs, passes, refs)
                units = layers.UNITS
            else:
                passes = max(1, round(args.seconds / PASS_NOMINAL_S[args.workload]))
                done, metrics, notes, errors, host = end_to_end(runner, jobs, passes, refs)
                units = dict(END_TO_END)
        except SetupError as exc:
            print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [j for j in done if j.problem]
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "jobs_per_pass": len(jobs), "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy_version,
        "git_sha": _git_sha(), "loadavg_start": load_start,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if host:
        print("host " + json.dumps(host, sort_keys=True))
    for job in failed[:10]:
        print(f"FAIL divpart {' '.join(job.argv)}: {job.problem}")
    for error in errors:
        print(f"ERROR {error}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {metrics[name]!r} {units[name]}{note}")
    print(f"fail_frac = {len(failed) / len(done)!r} ratio  ({len(failed)} of {len(done)} jobs)")
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
