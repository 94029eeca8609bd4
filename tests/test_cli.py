import json
import subprocess
import sys
from pathlib import Path

import pytest

from rootbounds.cli import THREADS_ENV, build_parser, main
from rootbounds.sampler import MAX_THREADS

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mult_json(capsys):
    code, out, err = run_cli(capsys, "mult", "--root", "16,15")
    assert code == 0
    assert out == '{"class":"imaginary","multiplicity":"815214","r":3,"root":[16,15]}\n'
    assert err == ""


def test_mult_real_and_imprimitive(capsys):
    code, out, _ = run_cli(capsys, "mult", "--root", "3,1")
    assert code == 0
    assert json.loads(out) == {"class": "real", "multiplicity": "1", "r": 3, "root": [3, 1]}
    code, out, _ = run_cli(capsys, "mult", "--root", "4,6")
    assert code == 0
    assert json.loads(out)["multiplicity"] == "9"


def test_mult_csv_format(capsys):
    code, out, _ = run_cli(capsys, "mult", "--root", "4,3", "--format", "csv")
    assert code == 0
    assert out == "r,class,multiplicity\r\n3,imaginary,4\r\n"


def test_mult_rejects_zero_weight(capsys):
    code, out, err = run_cli(capsys, "mult", "--root", "0,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bound_with_listing(capsys):
    code, out, _ = run_cli(capsys, "bound", "--root", "4,3", "--theorem", "1", "--list")
    assert code == 0
    payload = json.loads(out)
    elapsed = payload.pop("elapsed_seconds")
    assert isinstance(elapsed, float) and elapsed >= 0
    assert payload == {
        "root": [4, 3],
        "r": 3,
        "theorem": 1,
        "dyck_total": "5",
        "count_thm1": "4",
        "count_thm2": "4",
        "bound": "4",
        "paths": ["1010100", "1011000", "1100100", "1110000"],
    }


def test_bound_theorem_two(capsys):
    code, out, _ = run_cli(capsys, "bound", "--root", "3,4", "--theorem", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["count_thm1"] == "5"
    assert payload["count_thm2"] == "4"
    assert payload["bound"] == "4"
    assert "paths" not in payload


def test_bound_rejects_non_coprime(capsys):
    code, _, err = run_cli(capsys, "bound", "--root", "4,2", "--theorem", "1")
    assert code == 2
    assert "coprime" in err


def test_estimate_fixed_seed(capsys):
    code, out, _ = run_cli(
        capsys,
        "estimate",
        "--root", "4,3",
        "--theorem", "1",
        "--samples", "1000",
        "--seed", "0x2A",
    )
    assert code == 0
    assert out == (
        '{"chunk":"65536","dyck_total":"5","estimate":"3.985","filter":"cond1",'
        '"hits":"797","r":3,"root":[4,3],"samples":"1000","seed":"42",'
        '"std_error":"0.0635985"}\n'
    )


def test_estimate_thread_env_default(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "3")
    args = build_parser().parse_args(
        ["estimate", "--root", "4,3", "--theorem", "1", "--samples", "10", "--seed", "0"]
    )
    assert args.threads == 3


def _estimate_argv(*extra):
    return ("estimate", "--root", "4,3", "--theorem", "1", "--samples", "10", "--seed", "0",
            *extra)


def test_estimate_rejects_non_integer_thread_env(capsys, monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "abc")
    code, out, err = run_cli(capsys, *_estimate_argv())
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert THREADS_ENV in err and "'abc'" in err


def test_estimate_rejects_threads_below_one(capsys, monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    for bad in ("0", "-2", "x"):
        code, out, err = run_cli(capsys, *_estimate_argv("--threads", bad))
        assert code == 2, bad
        assert out == "", bad
        assert err.startswith("error:") and err.count("\n") == 1, bad
    monkeypatch.setenv(THREADS_ENV, "0")
    code, _, err = run_cli(capsys, *_estimate_argv())
    assert code == 2
    assert "got 0" in err


def test_estimate_rejects_threads_above_ceiling(capsys, monkeypatch, serial_pool):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    for bad in (MAX_THREADS + 1, 10**6):
        code, out, err = run_cli(capsys, *_estimate_argv("--threads", str(bad)))
        assert code == 2, bad
        assert out == "", bad
        assert err.startswith("error:") and err.count("\n") == 1, bad
        assert f"at most {MAX_THREADS}" in err, bad
    assert serial_pool == []
    code, out, _ = run_cli(capsys, "estimate", "--root", "4,3", "--theorem", "1", "--samples",
                           "40", "--seed", "0", "--chunk", "10", "--threads", str(MAX_THREADS))
    assert code == 0 and '"hits":' in out
    assert serial_pool == [4]


def test_validate_word(capsys):
    code, out, _ = run_cli(capsys, "validate", "--word", "1010001")
    assert code == 0
    assert json.loads(out) == {
        "word": "1010001",
        "runs": [1, 1, 1, 3, 1],
        "weight": [4, 3],
        "littelmann_valid": False,
        "is_dyck": False,
        "cond1": False,
        "cond2": None,
    }


def test_validate_leading_zero_word(capsys):
    # run-pair conditions need every run >= 1, so they come back null
    code, out, _ = run_cli(capsys, "validate", "--word", "011")
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == [0, 1, 2]
    assert payload["weight"] == [1, 2]
    assert payload["littelmann_valid"] is True
    assert payload["cond1"] is None
    assert payload["cond2"] is None


def test_validate_bad_letter(capsys):
    code, _, err = run_cli(capsys, "validate", "--word", "10a")
    assert code == 2
    assert "letters" in err


def test_table_staircase_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "staircase", "--max-n", "6")
    assert code == 0
    golden = (DATA / "staircase_r3_max6.csv").read_bytes().decode("ascii")
    assert out == golden


def test_table_antistaircase(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "antistaircase", "--max-n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,root_c0,root_c1,multiplicity,bound1,bound2,gap1,gap2"
    assert lines[1] == "1,1,2,1,1,1,0,0"
    assert lines[2] == "2,2,3,2,2,2,0,0"


def test_table_custom_with_guard(capsys):
    code, out, _ = run_cli(
        capsys,
        "table",
        "--family", "custom",
        "--roots", "4,3;15,11",
        "--skip-bounds-above", "100000",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "1,4,3,4,4,4,0,0"
    assert lines[2] == "2,15,11,23750,skipped,skipped,skipped,skipped"


def test_table_custom_needs_roots(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "custom")
    assert code == 2
    assert "--roots" in err


def test_stats_smallest(capsys):
    code, out, _ = run_cli(capsys, "stats", "--k", "1", "--distance", "0", "--samples", "100")
    assert code == 0
    assert out == (
        '{"distance":0,"k":1,"mean":"2","samples":"100","seed":"0","std_error":"0"}\n'
    )


def test_stats_rejects_bad_chunk(capsys, monkeypatch):
    # a chunk that slipped past the check would reach the sampling loop,
    # which then fails here instead of looping forever
    def no_sampling(*args):
        raise RuntimeError("sampling started")

    monkeypatch.setattr("rootbounds.sampler._chunk_rng", no_sampling)
    for bad in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "stats", "--k", "3", "--distance", "1", "--samples", "10", "--chunk", bad
        )
        assert code == 2, bad
        assert out == "", bad
        assert err == "error: chunk size must be positive\n", bad


def test_bad_int_option_is_one_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--root", "4,3", "--theorem", "1", "--samples", "abc", "--seed", "0"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == "error: argument --samples: invalid int value: 'abc'\n"


def test_root_parse_errors(capsys):
    for bad in ("4", "4,3,2", "a,b"):
        code, _, err = run_cli(capsys, "mult", "--root", bad)
        assert code == 2, bad
        assert err.startswith("error:"), bad
    code, _, err = run_cli(capsys, "mult", "--root=-1,2")
    assert code == 2
    assert "nonnegative" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rootbounds.cli", "mult", "--root", "1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["multiplicity"] == "1"


def test_console_script_installed():
    proc = subprocess.run(
        ["rootbounds", "mult", "--root", "2,1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "class": "imaginary",
        "multiplicity": "1",
        "r": 3,
        "root": [2, 1],
    }
