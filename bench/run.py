"""rootbounds benchmark: three seeded closed-loop workloads of CLI jobs.

    python3 bench/run.py --workload {mult,tables,survey,all} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's src/.  One client runs the workload's job list (jobs.py) one
job at a time, each job a `rootbounds` argv passed to
`rootbounds.cli.main` in this process with stdout captured.  A pass runs
the whole list once; passes repeat while another fits in --seconds, and
every metric is the median over passes.  Job times are rescaled to a
nominal host speed by reference kernels timed between jobs (speed.py),
which cancels most of a shared host's speed swings.  After each pass,
outside its timing, every job's stdout is checked (checks.py).

--trace 0 reports the end-to-end metrics.  --trace 1 makes one pass of
the sampler jobs under tracemalloc, then alternates plain and traced
passes (tracing.py), and reports the per-layer metrics of the traced
ones plus the tracing overhead against the plain ones.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
lines before it name every metric with its unit.  The full record (with
nproc, CPU model, versions, seed and commit) goes to
.bench_results/<workload>-seed<N>-trace<T>.json, and a traced run's
spans to ...-spans.jsonl next to it.  Exits 1 when any job fails its
check, 2 when the checkout has no rootbounds sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from statistics import median

import speed
from checks import check_job
from jobs import HELD_OUT_SEED, WORKLOADS, make_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"

COMMANDS = ("mult", "table", "bound", "estimate", "stats")
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "mult_s": "s",
    "table_s": "s",
    "bound_s": "s",
    "estimate_s": "s",
    "stats_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPEATS = 9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import rootbounds.cli; "
                "print(time.perf_counter() - t)")

# Jobs run in one process, but each stands for a CLI call in a fresh one.
# glibc keeps memory that a job freed (in the arenas of its sampler threads
# above all) and the next job's peak then sits on top of it, so on `survey`
# peak_rss_mb varied 8% between seeds.  malloc_trim(0) after every job,
# outside its timing, hands that memory back as a process exit would.
try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: nothing to hand back
    _malloc_trim = None


def measure_setup() -> float:
    """Median time for a fresh interpreter to import rootbounds.cli (after one warm-up).

    Each import is rescaled to nominal speed by the reference imports
    (speed.py) run in fresh interpreters just before and just after it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def import_time(probe):
        done = subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        return float(done.stdout)

    times = []
    before = import_time(speed.IMPORT_PROBE)
    for i in range(SETUP_REPEATS + 1):
        elapsed = import_time(IMPORT_PROBE)
        after = import_time(speed.IMPORT_PROBE)
        if i:
            times.append(elapsed * speed.NOMINAL_S["import"] / ((before + after) / 2))
        before = after
    return median(times)


def run_pass(index, kind, jobs, refs, cli_main, tracer=None) -> dict:
    """Run every job once, then check the outputs; timings exclude the checks.

    The speed kernels run before the first job and after every job, outside
    the job's timing; each job's wall and CPU time is rescaled to nominal
    speed by the kernel times around it (speed.py).  The record keeps the raw
    times too.  kind "alloc" runs each job under tracemalloc and records
    its peak.
    """
    results = []
    alloc_peaks = []
    span_start = len(tracer.spans) if tracer else 0
    patch = tracer.patched() if tracer else contextlib.nullcontext()
    pass_start = time.perf_counter()
    with patch:
        probes = speed.Probes()
        probes.take()
        for job in jobs:
            out, err = io.StringIO(), io.StringIO()
            if kind == "alloc":
                tracemalloc.start()
            start, cpu_start = time.perf_counter(), time.process_time()
            # traced and alloc passes would record the in-job probes as the job's
            with probes.inside(job.command if kind == "plain" else ""):
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        if tracer:
                            tracer.job = f"p{index}:{job.name}"
                            rc, _ = tracer.call("cli.main", cli_main, list(job.argv))
                        else:
                            rc = cli_main(list(job.argv))
                except SystemExit as exc:  # argparse rejects an argv this way
                    rc = exc.code
                except Exception:  # a job that raises is a failed job; the run goes on
                    rc = traceback.format_exc()
            end = time.perf_counter()
            wall = end - start - probes.in_job_s
            cpu = time.process_time() - cpu_start - probes.in_job_cpu_s
            if kind == "alloc":
                alloc_peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            if _malloc_trim:
                _malloc_trim(0)
            probes.take()
            results.append((job, rc, out.getvalue(), err.getvalue(), wall, cpu, (start, end)))
    scales = {job.name: probes.scale(job.command, *span) for job, *_, span in results}
    outputs = {job.name: out for job, _, out, _, _, _, _ in results}
    failures = {}
    for job, rc, out, err, *_ in results:
        problems = check_job(job, rc, out, refs, outputs)
        if problems:
            failures[job.name] = {"argv": " ".join(job.argv), "problems": problems,
                                  "stderr": err[-2000:]}

    def sums(scaled):
        by_job = [(job.command, wall * f, cpu * f)
                  for job, _, _, _, wall, cpu, _ in results
                  for f in [scales[job.name] if scaled else 1.0]]
        return {"wall_s": sum(w for _, w, _ in by_job), "cpu_s": sum(c for _, _, c in by_job),
                **{f"{cmd}_s": sum(w for c, w, _ in by_job if c == cmd) for cmd in COMMANDS}}

    job_times = {job.name: wall for job, _, _, _, wall, _, _ in results}
    record = {
        "kind": kind,
        **sums(scaled=True),
        "raw": sums(scaled=False),
        "elapsed_s": time.perf_counter() - pass_start,
        "job_s": job_times,
        "job_scale": scales,
        "kernel_s": probes.medians(),
        "failures": failures,
    }
    if alloc_peaks:
        record["peak_alloc_mb"] = max(alloc_peaks) / 2**20
    if tracer:
        from tracing import layer_metrics

        twins = {job.name: job.twin for job in jobs if job.twin}
        stdout_bytes = sum(len(out.encode()) for _, _, out, *_ in results)
        record["layers"] = layer_metrics(tracer.spans[span_start:], tracer.cond1_pair_calls,
                                         job_times, twins, stdout_bytes)
    return record


def run_passes(seconds, jobs, refs, cli_main, tracer=None) -> list[dict]:
    """Closed loop: passes back to back while the next one still fits in `seconds`.

    Untraced runs make only plain passes.  Traced runs first make one
    "alloc" pass over the estimate and stats jobs, then alternate plain and
    traced passes, at least one of each.
    """
    passes: list[dict] = []
    start = time.perf_counter()
    kinds = ("plain", "traced") if tracer else ("plain",)
    if tracer:
        sampler_jobs = [j for j in jobs if j.command in ("estimate", "stats")]
        passes.append(run_pass(0, "alloc", sampler_jobs, refs, cli_main))
    while True:
        timed = [p for p in passes if p["kind"] != "alloc"]
        kind = kinds[len(timed) % len(kinds)]
        passes.append(run_pass(len(passes), kind, jobs, refs, cli_main,
                               tracer if kind == "traced" else None))
        if len(timed) + 1 < len(kinds):
            continue
        upcoming = kinds[(len(timed) + 1) % len(kinds)]
        expected = median(p["elapsed_s"] for p in passes if p["kind"] == upcoming)
        if time.perf_counter() - start + expected > seconds:
            return passes


def environment(args) -> dict:
    import numpy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run_workload(args) -> int:
    import rootbounds.cli

    if Path(rootbounds.cli.__file__).resolve().parent != (SRC / "rootbounds").resolve():
        print(f"error: imported rootbounds from {rootbounds.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    refs = json.loads((HERE / "refs.json").read_text())
    jobs = make_jobs(args.workload, args.seed)
    setup_s = measure_setup() if not args.trace else None
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = run_passes(args.seconds, jobs, refs, rootbounds.cli.main, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(len(p["job_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    plain = [p for p in passes if p["kind"] == "plain"]
    if args.trace:
        from tracing import PER_LAYER, median_metrics

        traced = [p for p in passes if p["kind"] == "traced"]
        values = median_metrics([p["layers"] for p in traced])
        values["sampler.peak_alloc_mb"] = passes[0]["peak_alloc_mb"]
        values["trace.overhead_pct"] = 100 * (median(p["wall_s"] for p in traced)
                                              / median(p["wall_s"] for p in plain) - 1)
        units = PER_LAYER
    else:
        values = {name: median(p[name] for p in plain) for name in END_TO_END
                  if name not in ("peak_rss_mb", "setup_s")}
        values.update(peak_rss_mb=peak_rss_mb, setup_s=setup_s)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"environment": environment(args), "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "metrics": metrics,
              "jobs": [{"name": j.name, "argv": list(j.argv)} for j in jobs], "passes": passes}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"jobs={attempted} failed={failed} record={RESULTS.name}/{stem}.json")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_ratio':28s} {failed / attempted:14.6g} 1")
    if not args.trace:
        raw = {name: median(p["raw"][name] for p in plain) for name in plain[0]["raw"]}
        print("  unscaled medians: " + " ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    for p in passes:
        for name, failure in p["failures"].items():
            print(f"FAILED {name}: {failure['argv']}: {'; '.join(failure['problems'])}",
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process so peak_rss_mb is its own."""
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement window; at least one pass (one of each kind traced) runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootbounds" / "cli.py").is_file():
        print(f"error: no rootbounds sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
