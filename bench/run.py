"""Benchmark of relspan verification jobs.

    python3 bench/run.py --workload grouplike_pullback --seed 1 --seconds 20 --trace 0

runs one workload and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 they are the per-layer ones
of a traced pass (see bench/README.md).  Run it from the repository root; it
imports relspan from src/ and writes only under .bench_out/.

    python3 bench/run.py --steadiness 10 --seed 100 [--workload W] [--against FILE]

runs the benchmark that many times per workload, one fresh process at a time
with seeds seed, seed+1, ..., and prints each end-to-end metric's median and
quartiles against its bound.  --record-digests rewrites bench/digests.json
from the default seed.
"""

import time

# Times are CPU time of the benchmark's single thread, so that nothing else
# scheduled on the machine counts.
clock = time.thread_time
T0 = clock()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = Path(".bench_out")
DEFAULT_SEED = 1
SETUP_REPEATS = 9

sys.path.insert(0, str(ROOT / "src"))

# The host slows this machine's cores by up to 1.9x, in stretches of seconds
# to minutes, and CPU time counts the slow-down (bench/README.md gives the
# measurements).  So every reported time is scaled to one fixed machine speed:
# right around each timed span the benchmark times a fixed kernel, and a span
# of t CPU seconds, during which the kernel took k seconds, is reported as
# t * REF_KERNEL_S / k.  REF_KERNEL_S is the kernel's time at full speed on the
# 2-core x86 VM (Python 3.11) that defined the benchmark, so a reported second
# is a second of that machine at full speed.  Unscaled CPU and wall times are
# kept in each run's record.
REF_KERNEL_S = 0.00058
CALIBRATION_REPEATS = 5


def _kernel():
    total = Fraction(0)
    for i in range(1, 240):
        total += Fraction(1, i % 97 + 1)
    return total


def calibrate():
    """The kernel's median CPU time over CALIBRATION_REPEATS runs: how fast
    the machine runs now."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t = clock()
        _kernel()
        times.append(clock() - t)
    return statistics.median(times)


def _percentile(values, q):
    """The q-th percentile (q in 1..99) by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def _git_sha():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _run_metadata(workload, seed, n_jobs, passes):
    src = ROOT / "src" / "relspan"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "jobs_per_pass": n_jobs,
        "passes": passes,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


class Bench:
    """One run: set-up, timed passes over the job list, checks."""

    def __init__(self, workload, seed, digests):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.digests = digests.get(workload, {}) if seed == digests.get("seed") else {
            k: v for k, v in digests.get(workload, {}).items() if k.startswith("fixture:")}
        self.rs = None
        self.jobs = []
        self.attempted = self.failed = 0
        self.problems = []

    def setup_once(self):
        self.rs = self.wl.load_relspan()
        self.jobs, files = self.wl.make_jobs(self.workload, self.seed)
        self.wl.write_fixtures(files)
        self.run_pass([self.wl.warmup_job(self.jobs)], record=False)

    def setup(self):
        """Set up SETUP_REPEATS times (imports, inputs, fixtures, one warm-up
        job); the first time is counted from process start.  Returns the
        median scaled time (scaled by the kernel timed right after each set-up)
        and every (scaled, CPU) pair."""
        times = []
        for k in range(SETUP_REPEATS):
            if k:
                self.wl.purge_relspan()
                gc.collect()
            t = T0 if k == 0 else clock()
            self.setup_once()
            dt = clock() - t
            times.append((dt * REF_KERNEL_S / calibrate(), dt))
        gc.collect()
        gc.freeze()
        return statistics.median(s for s, _ in times), times

    def run_pass(self, jobs, record=True, tracer=None):
        """Run each job once; returns the list of (job id, scaled seconds,
        CPU seconds, wall seconds, ok)."""
        samples = []
        before = calibrate()
        for job in jobs:
            gc.collect()
            span = tracer.begin_job() if tracer else None
            wall, t = time.perf_counter(), clock()
            try:
                res = self.wl.run_job(self.rs, job)
                err = None
            except Exception:
                res, err = None, traceback.format_exc(limit=3)
            dt, wall = clock() - t, time.perf_counter() - wall
            if tracer:
                tracer.end_job(span)
            after = calibrate()
            scaled = dt * 2 * REF_KERNEL_S / (before + after)
            before = after
            problems = [err] if err else self.check(job, res, tracer)
            if record:
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems.append({"job": job["id"], "problems": problems})
                samples.append((job["id"], scaled, dt, wall, not problems))
        return samples

    def check(self, job, res, tracer):
        problems, digest = self.wl.check_job(self.rs, job, res)
        want = self.digests.get(job["id"])
        if want is not None and digest != want:
            problems.append(f"digest {digest[:12]} differs from the recorded {want[:12]}")
        if tracer and "stdout" in res:
            tracer.counts["cli.bytes_out"] += len(res["stdout"].encode())
        return problems


def e2e_metrics(samples, setup_s):
    """End-to-end metrics over the jobs of a run; each job's time is the
    median of its scaled executions (one per pass)."""
    per_job = {}
    for job_id, scaled, *_ in samples:
        per_job.setdefault(job_id, []).append(scaled)
    times = [statistics.median(v) for v in per_job.values()]
    ok = len(per_job) - len({job_id for job_id, *_, good in samples if not good})
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (ok / sum(times), "1/s"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.p90": (_percentile(times, 90), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_benchmark(args):
    digests = json.loads((BENCH_DIR / "digests.json").read_text())
    bench = Bench(args.workload, args.seed, digests)
    setup_s, setup_times = bench.setup()
    passes = max(1, round(args.seconds / bench.wl.PASS_SECONDS[args.workload]))
    meta = _run_metadata(args.workload, args.seed, len(bench.jobs), passes)
    record = {"meta": meta, "setup_times_s": setup_times}
    if not args.trace:
        samples = []
        for _ in range(passes):
            samples += bench.run_pass(bench.jobs)
        metrics = e2e_metrics(samples, setup_s)
        unscaled = e2e_metrics([(job, cpu, ok) for job, _, cpu, _, ok in samples],
                               statistics.median(cpu for _, cpu in setup_times))
        record.update(samples=samples, unscaled_cpu={k: v for k, (v, _) in unscaled.items()})
    else:
        from tracer import Tracer, metric_units

        untraced = bench.run_pass(bench.jobs)
        tracer = Tracer().install()
        try:
            traced = bench.run_pass(bench.jobs, tracer=tracer)
        finally:
            tracer.remove()
        values, coverage = tracer.metrics()
        values["trace_overhead"] = (sum(sample[1] for sample in traced)
                                    / sum(sample[1] for sample in untraced) - 1)
        units = metric_units()
        metrics = {name: (values[name], units[name]) for name in units}
        meta["passes"] = 2   # one untraced, one traced
        record.update(coverage=coverage, untraced=untraced, traced=traced)
        spans_path = OUT_DIR / "records" / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write_spans(str(spans_path))
        record["spans_file"] = str(spans_path)
    fail_frac = bench.failed / bench.attempted
    record.update(metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  fail_frac=fail_frac, problems=bench.problems)
    (OUT_DIR / "records").mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(json.dumps({"meta": meta}))
    for p in bench.problems[:5]:
        print(f"FAILED {p['job']}: {p['problems']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print(f"{'fail_frac':34s} {fail_frac:14.6g} 1   ({bench.failed}/{bench.attempted} jobs)")
    if args.trace:
        print(f"{'layer self-time coverage':34s} {record['coverage']['coverage']:14.4f}")
    else:
        print("unscaled CPU time: " + "  ".join(
            f"{k}={v:.6g}" for k, v in record["unscaled_cpu"].items() if k != "peak_rss_mb"))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def record_digests(args):
    """Write bench/digests.json: every job's digest for the default seed."""
    import workloads

    out = {"seed": DEFAULT_SEED}
    for workload in workloads.WORKLOADS:
        bench = Bench(workload, DEFAULT_SEED, {})
        bench.setup_once()
        out[workload] = {}
        for job in bench.jobs:
            res = workloads.run_job(bench.rs, job)
            problems, digest = workloads.check_job(bench.rs, job, res)
            if problems:
                print(f"{workload} {job['id']}: {problems}", file=sys.stderr)
                return 1
            out[workload][job["id"]] = digest
    (BENCH_DIR / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def steadiness(args):
    """Run the benchmark repeatedly and report each metric's spread."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    report = {"runs": args.steadiness, "seed": args.seed, "seconds": seconds, "workloads": {}}
    against = json.loads(Path(args.against).read_text()) if args.against else None
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for k in range(args.steadiness):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(args.seed + k), "--seconds", str(seconds), "--trace", "0"]
            started = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - started
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(last)
            if not result["correct"]:
                print(f"{workload} seed {args.seed + k}: incorrect results", file=sys.stderr)
                return 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {args.seed + k} ({elapsed:.1f} s wall): " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        rows = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            row = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                   "bound": m["bound"], "values": vals}
            if against:
                old = against["workloads"][workload][m["name"]]["median"]
                worse = (q2 - old) / old if m["better"] == "lower" else (old - q2) / old
                row["worse_than_against"] = worse
            rows[m["name"]] = row
        report["workloads"][workload] = rows
        for name, row in rows.items():
            note = "steady" if row["spread"] < row["bound"] / 3 else (
                "within bound" if row["spread"] <= row["bound"] else "TOO NOISY")
            if name == "setup_s":
                note = "(spread not bounded)"
            extra = (f"  worse by {row['worse_than_against']:+.3f} vs --against"
                     if "worse_than_against" in row else "")
            print(f"{workload:20s} {name:12s} median {row['median']:.5g}  q1 {row['q1']:.5g}  "
                  f"q3 {row['q3']:.5g}  spread {row['spread']:.3f} / bound {row['bound']}  "
                  f"{note}{extra}", flush=True)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"steadiness-seed{args.seed}-x{args.steadiness}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"report: {path}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--against", help="an earlier steadiness report to compare medians with")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "relspan" / "__init__.py").is_file():
        print(f"relspan sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.record_digests:
        return record_digests(args)
    if args.steadiness:
        return steadiness(args)
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seconds is None:
        parser.error(f"--workload (one of {', '.join(workloads.WORKLOADS)}) and --seconds are required")
    return run_benchmark(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # every run hashes the same way: re-execute with a fixed hash seed
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
