"""pgflift benchmark: seeded CLI jobs in a closed loop with one client.

One run (the form BENCHMARK.json names):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates job files from the seed under .bench_out/, runs each through
`pgflift.cli.main` in this process, one job at a time, each started when the
previous one has returned, for S seconds in whole rounds of jobs, then checks
every answer against an independent reference (reference.py) and re-runs
the golden jobs in tests/data/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 every job runs twice, untraced and
then under the outside-in wrappers of tracing.py, the two reports must be
byte-identical, and the metrics are the per-layer ones.

Every workload, as two sets of ten runs on the same seeds N..N+9 and one
traced run, each run as long as BENCHMARK.json's run_seconds, with
quartiles, spreads and the shift of the median between the sets:

    python3 perfbench/run.py --all [--seed N]

Standard library only. Exits 2 without a result when the pgflift sources or
the golden jobs are missing next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, job_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "data"
OUT_DIR = ROOT / ".bench_out"
SETUP_EVERY_S = 1.0  # one import probe per second of the timed loop
RUNS = 10  # runs per set under --all, as many as the acceptance check makes
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import pgflift.cli; print(time.perf_counter() - t)"
)


class SetupProbe:
    """Times `import pgflift.cli` in fresh interpreters.

    Imports run from a bytecode cache under .bench_out/, as an installed CLI
    would, whatever PYTHONDONTWRITEBYTECODE says in the caller's environment;
    the constructor's spawn only fills that cache and is not reported. The
    closed loop calls `between_jobs`, which spawns one interpreter per
    SETUP_EVERY_S seconds, so the samples spread over the whole run, as the
    job times do, instead of catching the host at one instant.
    """

    def __init__(self):
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
        self.times = []
        self.spawn()
        self.times.clear()
        self.next_at = time.perf_counter()

    def spawn(self):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT, env=self.env,
        )
        self.times.append(float(done.stdout))

    def between_jobs(self):
        if time.perf_counter() >= self.next_at:
            self.spawn()
            self.next_at = time.perf_counter() + SETUP_EVERY_S


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Runner:
    def __init__(self, workload, seed):
        from reference import run_cli

        self.workload, self.seed, self.run_cli = workload, seed, run_cli
        self.job_dir = OUT_DIR / workload.name
        shutil.rmtree(self.job_dir, ignore_errors=True)
        self.job_dir.mkdir(parents=True)

    def job_path(self, index):
        return self.job_dir / f"job-{index:04d}.json"

    def argv(self, index):
        path = self.job_path(index)
        if not path.exists():
            path.write_text(job_text(self.workload, self.seed, index), encoding="utf-8")
        return ["--config", str(path)] + (["--verify"] if self.workload.verify else [])

    def timed(self, index):
        argv = self.argv(index)
        start = time.perf_counter()
        code, out = self.run_cli(argv)
        return time.perf_counter() - start, code, out

    def closed_loop(self, seconds, run_one):
        """Call run_one(index) in whole rounds until `seconds` have passed."""
        start = time.perf_counter()
        index = 0
        while True:
            for _ in range(self.workload.round_jobs):
                run_one(index)
                index += 1
            if time.perf_counter() - start >= seconds:
                return

    def gate(self, results):
        """Check the (exit code, report) of every job and re-run the goldens.

        Returns (queries attempted, queries failed, problems that make the
        run incorrect, reasons of the failed queries that are not problems).
        """
        from reference import check_goldens, check_job

        attempted = failed = 0
        problems, failures = [], []
        for index, (code, out) in enumerate(results):
            job = json.loads(self.job_path(index).read_text(encoding="utf-8"))
            checks = check_job(job, out)
            attempted += len(checks)
            failed += sum(c.failed for c in checks)
            problems += [f"job {index}: {c.why}" for c in checks if c.wrong]
            failures += [f"job {index}: {c.why}" for c in checks if c.failed and not c.wrong]
            errors = any(json.loads(line)["error"] for line in out.splitlines())
            if code != (1 if errors else 0):
                problems.append(f"job {index}: exit code {code}")
        problems += check_goldens(GOLDEN_DIR)
        return attempted, failed, problems, failures


def print_metric(name, value, unit, count, samples=None, note=""):
    """One line: value, unit, sample count and, for timings, their quartiles."""
    spread = ""
    if samples:
        q1, q2, q3 = quartiles(samples)
        spread = f"q1={q1:.6g} median={q2:.6g} q3={q3:.6g} "
    print(f"{name:<16} {value:>14.6g} {unit:<9} n={count:<5} {spread}{note}".rstrip())


def end_to_end(runner, seconds):
    setup = SetupProbe()
    runner.timed(0)  # warm-up: first-call costs a CLI user does not pay per job
    times, results = [], []

    def run_one(index):
        elapsed, code, out = runner.timed(index)
        times.append(elapsed)
        results.append((code, out))
        setup.between_jobs()

    runner.closed_loop(seconds, run_one)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems, failures = runner.gate(results)
    tail_s, tail_pct = tail(times)
    busy = sum(times)
    jobs = len(times)
    metrics = {
        "setup_s": (statistics.median(setup.times), "s", len(setup.times), setup.times,
                    "imports"),
        "job_s.p50": (statistics.median(times), "s", jobs, times, "jobs"),
        "job_s.tail": (tail_s, "s", jobs, times, f"jobs, p{tail_pct:.1f}"),
        "queries_per_s": (attempted / busy, "1/s", attempted, None,
                          f"queries in {busy:.3f} s busy"),
        "ok_frac": ((attempted - failed) / attempted, "fraction", attempted, None,
                    f"queries, failed_frac={failed / attempted:.6g}"),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1, None, "process"),
    }
    for name, (value, unit, count, samples, note) in metrics.items():
        print_metric(name, value, unit, count, samples, note)
    return attempted, failed, problems, failures, {
        name: (value, unit) for name, (value, unit, *_) in metrics.items()}


def per_layer(runner, seconds):
    from tracing import Tracer, layer_metrics, write_spans

    tracer = Tracer()
    runner.timed(0)
    results, rows, mismatches = [], [], []
    sums = [0.0, 0.0]

    def run_one(index):
        plain_s, code, out = runner.timed(index)
        tracer.job = index
        tracer.install()
        try:
            traced_s, traced_code, traced_out = runner.timed(index)
        finally:
            tracer.uninstall()
        sums[0] += plain_s
        sums[1] += traced_s
        if (traced_code, traced_out) != (code, out):
            mismatches.append(f"job {index}: traced report differs from untraced")
        results.append((code, out))
        rows.append([json.loads(line) for line in out.splitlines()])

    runner.closed_loop(seconds, run_one)
    attempted, failed, problems, failures = runner.gate(results)
    metrics, trace_problems = layer_metrics(tracer, rows, sums[0], sums[1])
    write_spans(tracer.spans, OUT_DIR / f"trace-{runner.workload.name}.jsonl.gz")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    return attempted, failed, problems + mismatches + trace_problems, failures, metrics


def single_run(args) -> int:
    if not (SRC / "pgflift" / "cli.py").is_file() or not GOLDEN_DIR.is_dir():
        print(f"error: run from a pgflift checkout: {SRC}/pgflift or {GOLDEN_DIR} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pgflift

    if Path(pgflift.__file__).resolve().parent != (SRC / "pgflift").resolve():
        print(f"error: imported pgflift from {pgflift.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    runner = Runner(WORKLOADS[args.workload], args.seed)
    measure = per_layer if args.trace else end_to_end
    attempted, failed, problems, failures, metrics = measure(runner, args.seconds)
    for line in failures[:3]:
        print(f"failed query, {line}")
    for line in problems:
        print(f"INCORRECT: {line}")
    print(f"correct={not problems} attempted={attempted} failed={failed} "
          f"(typed errors the reference does not predict count as failed)")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def one_run(name, seed, seconds, trace):
    """The JSON result of one run in a fresh process, or None if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        print(f"{name} seed {seed} trace {trace}: exit {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    print(f"{name} seed={seed} trace={trace} correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return result


def all_workloads(seed) -> int:
    """Two sets of RUNS runs of every workload on the same seeds, then one
    traced run; prints each end-to-end metric's quartiles and spread per set
    and how far the second set's median moved from the first's."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    seeds = range(seed, seed + RUNS)
    summary, ok = {}, True
    for name in WORKLOADS:
        sets = [[one_run(name, s, seconds, 0) for s in seeds] for _ in range(2)]
        traced = one_run(name, seed, seconds, 1)
        results = [r for runs in sets for r in runs] + [traced]
        correct = all(r is not None and r["correct"] for r in results)
        ok = ok and correct
        sets = [[r for r in runs if r is not None] for runs in sets]
        summary[name] = {"sets": sets, "traced": traced}
        if not all(sets):
            continue
        attempted = sum(r["attempted"] for r in sets[0])
        failed = sum(r["failed"] for r in sets[0])
        print(f"\n== {name}: 2 sets of {RUNS} runs of {seconds} s (seeds {seeds[0]}.."
              f"{seeds[-1]}), correct={correct}, first set attempted={attempted} "
              f"failed={failed} failed_frac={failed / attempted:.6g}")
        print(f"{'metric':<14} {'unit':<8} {'q1':>10} {'median':>10} {'q3':>10} "
              f"{'spread':>7} {'spread2':>7} {'worse2':>7} {'bound':>6}")
        for metric, spec in specs.items():
            first, second = ([r["metrics"][metric]["value"] for r in runs] for runs in sets)
            q1, q2, q3 = quartiles(first)
            m2 = statistics.median(second)
            worse = (m2 - q2 if spec["better"] == "lower" else q2 - m2) / q2 if q2 else 0.0
            print(f"{metric:<14} {spec['unit']:<8} {q1:>10.5g} {q2:>10.5g} {q3:>10.5g} "
                  f"{spread(first):>7.4f} {spread(second):>7.4f} {worse:>7.4f} "
                  f"{spec['bound']:>6}")
        if traced:
            print(f"-- per layer (one traced run, seed {seed}), correct={traced['correct']}")
            for metric, m in traced["metrics"].items():
                print(f"{metric:<42} {m['value']:>14.6g} {m['unit']}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help=f"two sets of {RUNS} runs of every workload, summarised")
    args = parser.parse_args(argv)
    if args.all:
        if args.workload or args.seconds is not None:
            parser.error("--all runs every workload for run_seconds of BENCHMARK.json")
        return all_workloads(args.seed)
    if args.workload is None or args.seconds is None:
        parser.error("--workload and --seconds are required without --all")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
