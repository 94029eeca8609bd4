"""Self-tests of the benchmark: job generation, references, checks, and a
smoke run of every workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import jobs  # noqa: E402
from rootbounds.cli import main as cli_main  # noqa: E402

REFS = json.loads((HERE / "refs.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(job: jobs.Job) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(list(job.argv)) == 0
    return out.getvalue()


def _problems(job, out, outputs=None):
    return checks.check_job(job, 0, out, REFS, outputs or {})


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_jobs_are_deterministic_per_seed(workload):
    assert jobs.make_jobs(workload, 1) == jobs.make_jobs(workload, 1)
    assert jobs.make_jobs(workload, 1) != jobs.make_jobs(workload, 2)
    names = [j.name for j in jobs.make_jobs(workload, 1)]
    assert len(names) == len(set(names))


def test_twins_follow_their_threads_one_job():
    def without_threads(argv):
        i = argv.index("--threads")
        return argv[:i] + argv[i + 2:]

    for workload in jobs.WORKLOADS:
        for seed in range(20):
            listed = jobs.make_jobs(workload, seed)
            for i, job in enumerate(listed):
                if job.twin:
                    twin = listed[i - 1]
                    assert twin.name == job.twin
                    assert without_threads(twin.argv) == without_threads(job.argv)
                    assert checks._opts(job.argv)["threads"] == "2"


def test_references_cover_every_seed():
    mult_keys = {int(r): set(v) for r, v in REFS["mult"].items()}
    for r, roots in jobs.reference_roots().items():
        assert {f"{c0},{c1}" for c0, c1 in roots} <= mult_keys[r]
    assert {f"{c0},{c1}" for c0, c1 in jobs.bound_roots()} <= set(REFS["bounds"])
    for job in jobs.golden_jobs():
        assert " ".join(job.argv) in REFS["golden"]
    # every root a generated job names has a stored multiplicity
    for workload in jobs.WORKLOADS:
        for seed in range(200):
            for job in jobs.make_jobs(workload, seed):
                opts = checks._opts(job.argv)
                roots = opts["roots"].split(";") if "roots" in opts else [opts.get("root")]
                for root in filter(None, roots):
                    if job.command in ("mult", "bound", "table"):
                        assert root in REFS["mult"][opts.get("r", "3")], (job, root)
                    if job.command == "bound":
                        assert root in REFS["bounds"], (job, root)


def test_references_agree_with_pinned_values_and_symmetry():
    mult3 = REFS["mult"]["3"]
    for (c0, c1), value in checks.PINNED_MULTS.items():
        assert int(mult3[f"{c0},{c1}"]) == value
    for (c0, c1), triple in checks.A03_TRIPLES.items():
        stored = REFS["bounds"].get(f"{c0},{c1}")
        if stored:
            assert all(p is None or p == int(v) for p, v in zip(triple, stored))
    assert "15,11" in REFS["bounds"]
    pairs = 0
    for r, table in REFS["mult"].items():
        for key, value in table.items():
            c0, c1 = key.split(",")
            mirror = table.get(f"{c1},{c0}")
            if mirror is not None and c0 != c1:
                assert mirror == value, (r, key)
                pairs += 1
    assert pairs > 60


def test_mult_check_rejects_off_by_one():
    job = jobs.Job("m", ("mult", "--root", "16,15"))
    out = _run(job)
    assert _problems(job, out) == []
    payload = json.loads(out)
    payload["multiplicity"] = str(int(payload["multiplicity"]) + 1)
    assert _problems(job, json.dumps(payload))


def test_bound_check_rejects_broken_counts():
    job = jobs.Job("b", ("bound", "--root", "11,8", "--theorem", "2", "--list"))
    out = _run(job)
    assert _problems(job, out) == []
    for key, delta in (("dyck_total", 1), ("count_thm1", -1), ("count_thm2", 1)):
        payload = json.loads(out)
        payload[key] = str(int(payload[key]) + delta)
        assert _problems(job, json.dumps(payload)), key
    payload = json.loads(out)
    payload["paths"] = payload["paths"][:-1]
    assert _problems(job, json.dumps(payload))


def test_table_check_rejects_wrong_rows():
    job = jobs.Job("t", ("table", "--family", "staircase", "--max-n", "13",
                         "--skip-bounds-above", str(jobs.TABLE_CAP)))
    out = _run(job)
    assert _problems(job, out) == []
    lines = out.split("\r\n")
    assert lines[-2].endswith("skipped,skipped,skipped,skipped")
    row = lines[5].split(",")
    row[3] = str(int(row[3]) + 1)
    assert _problems(job, "\r\n".join(lines[:5] + [",".join(row)] + lines[6:]))
    unskipped = lines[-2].replace("skipped", "1")
    assert _problems(job, "\r\n".join(lines[:-2] + [unskipped, ""]))


def test_estimate_checks_reject_changed_bytes_and_thread_mismatch():
    core = {j.name: j for j in jobs.core_jobs()}
    t1, t2 = core["core0-est-t1"], core["core0-est-t2"]
    out1, out2 = _run(t1), _run(t2)
    assert out1 == out2
    outputs = {t1.name: out1, t2.name: out2}
    assert _problems(t1, out1, outputs) == []
    assert _problems(t2, out2, outputs) == []
    changed = out2.replace('"hits":"', '"hits":"1', 1)
    assert _problems(t2, changed, outputs)
    # one changed byte anywhere in a fixed-seed job's stdout fails its golden
    flipped = out1[:-2] + ("x" if out1[-2] != "x" else "y") + out1[-1]
    assert _problems(t1, flipped, outputs)
    # a threads-2 job whose stdout differs from its threads-1 twin fails
    twin_changed = dict(outputs, **{t1.name: out1.replace('"seed":"2026"', '"seed":"2027"')})
    assert any("twin" in p for p in _problems(t2, out2, twin_changed))
    assert _problems(t2, out2, {})


def test_estimate_check_rejects_hits_far_from_exact_count():
    job = jobs.Job("e", ("estimate", "--root", "15,11", "--theorem", "2", "--samples", "4000",
                         "--seed", "5", "--threads", "1"))
    out = _run(job)
    assert _problems(job, out) == []
    exact = [int(v) for v in REFS["bounds"]["15,11"]]
    far = 2 * 4000 * exact[2] // exact[0]  # twice the expected hits
    payload = json.loads(out)
    payload["hits"] = str(far)
    assert any("sigma" in p for p in _problems(job, json.dumps(payload)))


def test_stats_check_rejects_mean_off_target():
    job = jobs.Job("s", ("stats", "--k", "100", "--distance", "1", "--samples", "4096", "--seed", "3"))
    out = _run(job)
    assert _problems(job, out) == []
    payload = json.loads(out)
    payload["mean"] = "9.21"  # 15.1% above 4d+4 = 8
    assert _problems(job, json.dumps(payload))


def test_failed_exit_code_is_a_failure():
    job = jobs.Job("m", ("mult", "--root", "16,15"))
    assert checks.check_job(job, 2, "", REFS, {}) == ["exit code 2"]


def test_scale_takes_the_median_kernel_time_near_the_job():
    import speed

    nominal = speed.NOMINAL_S
    probes = speed.Probes()
    probes.times = [0.0, 4.2, 5.0, 5.5, 6.0, 20.0]
    slow = {"py": 2 * nominal["py"], "np": nominal["np"]}
    probes.kernels = [{"py": 9.0, "np": 9.0}, slow, slow, dict(slow, py=9.0), slow,
                      {"py": 9.0, "np": 9.0}]
    # the job ran from 5.0 to 5.5: the probes from 4.2 to 6.0 are within a second
    assert probes.scale("mult", 5.0, 5.5) == pytest.approx(0.5)
    assert probes.scale("estimate", 5.0, 5.5) == pytest.approx(0.5 ** 0.5)
    assert probes.scale("stats", 5.0, 5.5) == pytest.approx(1.0)


def test_interpreted_jobs_are_probed_while_they_run():
    import time

    import speed

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    probes = speed.Probes()
    with probes.inside("bound"):
        busy(3 * speed.IN_JOB_S)
    assert len(probes.times) >= 2 and probes.in_job_s > 0
    assert all(set(k) == {"py"} for k in probes.kernels)
    with probes.inside("estimate"):
        busy(3 * speed.IN_JOB_S)
    assert len(probes.times) < 4 and probes.in_job_s == 0


def test_benchmark_json_names_match_the_harness():
    import run
    import tracing

    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    done = _bench("--workload", "tables", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    summary = done.stdout.rsplit("\n", 2)[0]
    for name, metric in result["metrics"].items():
        assert f" {name} " in summary
        assert metric["value"] != 0 or name == "trace.overhead_pct", name
    spans = ROOT / ".bench_results" / "tables-seed3-trace1-spans.jsonl"
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"id", "parent", "job", "name", "start", "end"} <= set(first)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "mult", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
