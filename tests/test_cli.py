import argparse
import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rootbounds.cli
from rootbounds import (
    FilterLevel,
    Rank2Cartan,
    counting,
    dyck_words,
    kostant_count,
    multiplicity,
    peterson,
    runs_to_word,
    word_to_runs,
)
from rootbounds.cli import THREADS_ENV, build_parser, main
from rootbounds.counting import MAX_BOUND_HEIGHT, MAX_LISTED_PATHS, bound1, bound2, bound_report
from rootbounds.peterson import MAX_CELLS, MultiplicityTable
from rootbounds.montecarlo import (
    MAX_CHUNKS,
    MAX_LETTERS,
    MAX_THREADS,
    EstimateReport,
    VisitsReport,
)

DATA = Path(__file__).parent / "data"
PACKAGE = Path(rootbounds.cli.__file__).parent


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


def test_bound_list_refuses_csv_before_the_dp(capsys, monkeypatch):
    # a CSV row keeps only scalar fields, so it would drop the paths
    monkeypatch.setattr("rootbounds.counting._count", _no_dp)
    code, out, err = run_cli(
        capsys, "bound", "--root", "2,1", "--theorem", "1", "--format", "csv", "--list"
    )
    assert (code, out, err) == (2, "", "error: --list needs --format json\n")


def _no_listing(*args, **kwargs):
    raise RuntimeError("listing started")


def test_runaway_listing_is_refused_before_the_enumeration(capsys, monkeypatch):
    monkeypatch.setattr(rootbounds.cli, "dyck_words", _no_listing)
    code, out, err = run_cli(capsys, "bound", "--root", "26,25", "--theorem", "2", "--list")
    assert (code, out) == (2, "")
    assert err == f"error: --list stops at {MAX_LISTED_PATHS} paths; (26, 25) has 60668438425\n"


def test_listing_ceiling_admits_its_own_count(capsys, monkeypatch):
    # (4,3) has 4 paths under theorem 1
    monkeypatch.setattr(rootbounds.cli, "MAX_LISTED_PATHS", 4)
    code, out, _ = run_cli(capsys, "bound", "--root", "4,3", "--theorem", "1", "--list")
    assert code == 0
    assert len(json.loads(out)["paths"]) == 4
    monkeypatch.setattr(rootbounds.cli, "MAX_LISTED_PATHS", 3)
    monkeypatch.setattr(rootbounds.cli, "dyck_words", _no_listing)
    code, out, err = run_cli(capsys, "bound", "--root", "4,3", "--theorem", "1", "--list")
    assert (code, out, err) == (2, "", "error: --list stops at 3 paths; (4, 3) has 4\n")


def test_listing_is_checked_against_the_dp(capsys, monkeypatch):
    # a listing that drops a path disagrees with the DP's bound
    listing = rootbounds.cli.dyck_words

    def drop_first(weight, cartan, level):
        return listing(weight, cartan, level)[1:]

    monkeypatch.setattr(rootbounds.cli, "dyck_words", drop_first)
    code, out, err = run_cli(capsys, "bound", "--root", "4,3", "--theorem", "1", "--list")
    assert (code, out, err) == (2, "", "error: listed 3 paths, the DP counts 4\n")


def test_listing_matches_the_words_of_the_visited_runs(capsys):
    # the words made one by one from the listing's run tuples
    runs = map(word_to_runs, dyck_words((11, 8), Rank2Cartan(3), FilterLevel.COND2))
    expected = sorted(runs_to_word(r) for r in runs)
    code, out, err = run_cli(capsys, "bound", "--root", "11,8", "--theorem", "2", "--list")
    assert (code, err) == (0, "")
    assert json.loads(out)["paths"] == expected
    assert len(expected) == 720


def test_listing_walk_refusals_reach_the_cli(capsys, monkeypatch):
    # past the CLI's up-front ceiling, the walk still refuses with its own message
    monkeypatch.setattr(counting, "MAX_LISTED_PATHS", 719)
    code, out, err = run_cli(capsys, "bound", "--root", "11,8", "--theorem", "2", "--list")
    assert (code, out, err) == (2, "", "error: listing stops at 719 paths; (11, 8) has more\n")
    monkeypatch.setattr(counting, "MAX_WALK_STATES", 10)
    code, out, err = run_cli(capsys, "bound", "--root", "11,8", "--theorem", "2", "--list")
    assert (code, out) == (2, "")
    assert err == "error: enumeration stops at 10 search states; (11, 8) needs more\n"


NOT_IMAGINARY = (
    "warning: weight (7, 1) is not an imaginary root; the count is still exact "
    "but its upper-bound meaning is not guaranteed\n"
)


def test_bound_warns_in_one_line(capsys):
    code, out, err = run_cli(capsys, "bound", "--root", "7,1", "--theorem", "1")
    assert code == 0
    assert json.loads(out)["bound"] == "0"
    assert err == NOT_IMAGINARY


def test_table_warns_in_one_line(capsys):
    code, out, err = run_cli(capsys, "table", "--family", "custom", "--roots", "7,1;3,2")
    assert code == 0
    assert out == (
        "n,root_c0,root_c1,multiplicity,bound1,bound2,gap1,gap2\r\n"
        "1,7,1,0,0,0,0,0\r\n"
        "2,3,2,2,2,2,0,0\r\n"
    )
    assert err == NOT_IMAGINARY


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


def test_estimate_huge_r_returns_quickly(capsys):
    # the lone-1 run limit is a closed form, not a search up to r
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "estimate", "--root", "16,15", "--theorem", "2", "--samples",
                           "64", "--seed", "1", "--r", str(2**62))
    assert time.perf_counter() - t0 < 1
    assert code == 0
    assert json.loads(out)["hits"] == "64"  # at this r every path passes both conditions


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


@pytest.mark.parametrize("roots", ["0,0", "3,2;0,0", "3,2;4,2", "3,2;5,0"])
def test_table_custom_rejects_zero_weight(capsys, roots):
    code, out, err = run_cli(capsys, "table", "--family", "custom", "--roots", roots)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_table_custom_needs_roots(capsys):
    code, _, err = run_cli(capsys, "table", "--family", "custom")
    assert code == 2
    assert "--roots" in err


def test_table_fills_its_box_once(capsys, monkeypatch):
    # rows in any order cost one fill of the box that holds them all, and
    # each row's multiplicity is a lookup in it
    calls = []
    fill = MultiplicityTable.fill_box

    def recorded(self, *box):
        calls.append(box)
        return fill(self, *box)

    monkeypatch.setattr(MultiplicityTable, "fill_box", recorded)
    code, out, err = run_cli(capsys, "table", "--family", "custom", "--roots", "20,19;3,2;5,8")
    assert (code, err) == (0, "")
    assert calls == [(20, 19)]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    roots = [(20, 19), (3, 2), (5, 8)]
    assert [(int(c0), int(c1)) for _, c0, c1, *_ in rows] == roots
    for row, root in zip(rows, roots):
        assert int(row[3]) == multiplicity(root, Rank2Cartan(3)), root


def test_table_fill_failure_writes_nothing(capsys, monkeypatch):
    shifts = peterson._weyl_shifts
    monkeypatch.setattr(
        peterson, "_weyl_shifts", lambda *box: [s for s in shifts(*box) if s != (4, 1, 1)]
    )
    code, out, err = run_cli(capsys, "table", "--family", "staircase", "--max-n", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: multiplicity at (4, 1) ")
    assert err.count("\n") == 1


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


def test_chunk_count_is_refused_before_sampling(capsys, monkeypatch, serial_pool):
    # 10**12 chunks of one sample would be planned (estimate) or looped
    # over (stats) in full; the plan is refused before any chunk is drawn
    def no_sampling(*args):
        raise RuntimeError("sampling started")

    monkeypatch.setattr("rootbounds.sampler._chunk_rng", no_sampling)
    many = ("--samples", str(10**12), "--chunk", "1", "--seed", "0")
    for argv in (("estimate", "--root", "4,3", "--theorem", "1", "--threads", "2", *many),
                 ("stats", "--k", "3", "--distance", "1", *many)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv[0]
        assert out == "", argv[0]
        assert err == (f"error: {10**12} samples in chunks of 1 make {10**12} chunks, "
                       f"more than {MAX_CHUNKS}\n"), argv[0]
    assert serial_pool == []


def test_long_words_are_refused_before_sampling(capsys, monkeypatch):
    # one sub-batch holds at least one word, so a word is the one allocation
    # the sub-batches do not bound; estimate would also count its Dyck
    # paths first.  Words one letter over the cap come first, so nothing
    # large is drawn if the refusal is missing.
    def no_work(*args):
        raise RuntimeError("work started")

    monkeypatch.setattr("rootbounds.sampler._chunk_rng", no_work)
    monkeypatch.setattr("rootbounds.montecarlo.dyck_count", no_work)
    half = MAX_LETTERS // 2
    for letters, argv in (
        (MAX_LETTERS + 1, ("estimate", "--root", f"{half + 1},{half}", "--theorem", "1")),
        (MAX_LETTERS + 1, ("stats", "--k", str(half), "--distance", "1")),
        (2 * 10**9 + 1, ("estimate", "--root", f"{10**9 + 1},{10**9}", "--theorem", "2")),
        (2 * 10**9 + 1, ("stats", "--k", str(10**9), "--distance", "0")),
    ):
        code, out, err = run_cli(capsys, *argv, "--samples", "10", "--seed", "0")
        assert code == 2, argv
        assert out == "", argv
        assert err == f"error: words of {letters} letters are more than {MAX_LETTERS}\n", argv


@pytest.mark.parametrize("argv", [
    _estimate_argv()[:-2] + ("--seed", "-1"),
    _estimate_argv()[:-2] + ("--seed=-0x2A",),
    ("stats", "--k", "3", "--distance", "1", "--samples", "10", "--seed", "-5"),
])
def test_negative_seed_is_refused(capsys, monkeypatch, argv):
    def no_work(*args):
        raise RuntimeError("work started")

    monkeypatch.setattr("rootbounds.sampler._chunk_rng", no_work)
    monkeypatch.setattr("rootbounds.montecarlo.dyck_count", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: argument --seed: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, box", [
    (("mult", "--root", "1024,1023"), (1024, 1023)),
    (("mult", "--root", f"{10**9},1", "--r", "4"), (10**9, 1)),
    (("table", "--family", "staircase", "--max-n", "1023"), (1024, 1023)),
    (("table", "--family", "antistaircase", "--max-n", "1100"), (1100, 1101)),
    # no row holds 1100 * 1100 cells, but the one table grows over both
    (("table", "--family", "custom", "--roots", "1099,1;1,1099"), (1099, 1099)),
])
def test_runaway_boxes_are_refused_before_the_fill(capsys, monkeypatch, argv, box):
    def no_fill(*args):
        raise RuntimeError("fill started")

    monkeypatch.setattr(MultiplicityTable, "fill_box", no_fill)
    code, out, err = run_cli(capsys, *argv)
    cells = (box[0] + 1) * (box[1] + 1)
    assert code == 2
    assert out == ""
    assert err == f"error: the box up to {box} holds {cells} cells, more than {MAX_CELLS}\n"


def _no_dp(*args):
    raise RuntimeError("DP started")


@pytest.mark.parametrize("argv, root", [
    (("bound", "--root", "1001,1000", "--theorem", "1"), (1001, 1000)),
    (("bound", "--root", "129,128", "--theorem", "2", "--list"), (129, 128)),
    (("table", "--family", "staircase", "--max-n", "128"), (129, 128)),
    (("table", "--family", "antistaircase", "--max-n", "300"), (128, 129)),
    # the first root is fine, and no row may be written before the second is refused
    (("table", "--family", "custom", "--roots", "3,2;1001,1000"), (1001, 1000)),
    (("table", "--family", "custom", "--roots", "3,2;255,2", "--skip-bounds-above", "200"),
     (255, 2)),
], ids=["bound", "bound-list", "staircase", "antistaircase", "custom", "custom-unskipped"])
def test_runaway_bounds_are_refused_before_the_dp(capsys, monkeypatch, argv, root):
    monkeypatch.setattr("rootbounds.counting._count", _no_dp)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: exact bounds stop at height {MAX_BOUND_HEIGHT}; {root} has height {sum(root)}\n"
    )


def test_skipped_table_rows_pass_the_bound_ceiling(capsys):
    # (255,2) is past the ceiling, but its 128 paths are more than the
    # skip threshold, so no bound is computed for it
    code, out, err = run_cli(
        capsys, "table", "--family", "custom", "--roots", "3,2;255,2", "--skip-bounds-above", "100"
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == ["1,3,2,2,2,2,0,0", "2,255,2,0,skipped,skipped,skipped,skipped"]


def test_bound_ceiling_admits_the_pinned_roots(monkeypatch, cartan3):
    # bound 101,100 is the largest pinned root; one more step up the
    # staircase past the ceiling is refused in the library too
    assert 101 + 100 <= MAX_BOUND_HEIGHT < 129 + 128
    monkeypatch.setattr("rootbounds.counting._count", _no_dp)
    for fn in (bound1, bound2, bound_report):
        with pytest.raises(ValueError, match="^exact bounds stop at height"):
            fn((129, 128), cartan3)


def test_library_fill_refuses_runaway_box(monkeypatch):
    # the ceiling admits (801,800), the largest root whose fill was timed
    assert (801 + 1) * (800 + 1) <= MAX_CELLS

    def no_work(*args):
        raise RuntimeError("fill started")

    monkeypatch.setattr("rootbounds.peterson._weyl_shifts", no_work)
    table = MultiplicityTable(Rank2Cartan(3))
    with pytest.raises(ValueError, match="more than"):
        table.fill_box(1024, 1023)
    with pytest.raises(ValueError, match="more than"):
        table.entry((10**9, 10**9))
    assert len(table.entries) == 0


def test_kostant_count_refuses_runaway_box(monkeypatch):
    def no_work(*args):
        raise RuntimeError("grid started")

    monkeypatch.setattr("rootbounds.peterson._weyl_shifts", no_work)
    for weight in ((1024, 1023), (0, MAX_CELLS)):
        with pytest.raises(ValueError, match=f"more than {MAX_CELLS}$"):
            kostant_count(weight, Rank2Cartan(3))


def test_bad_int_option_is_one_error_line(capsys):
    code, out, err = run_cli(
        capsys, "estimate", "--root", "4,3", "--theorem", "1", "--samples", "abc", "--seed", "0"
    )
    assert code == 2
    assert out == ""
    assert err == "error: argument --samples: invalid int value: 'abc'\n"


def test_estimate_has_no_format_option(capsys):
    # estimate always prints JSON, so --format csv was taken and ignored
    code, out, err = run_cli(capsys, *_estimate_argv("--format", "csv"))
    assert code == 2
    assert out == ""
    assert err == "error: unrecognized arguments: --format csv\n"


def test_table_refuses_roots_under_a_family(capsys, monkeypatch):
    def no_fill(*args):
        raise RuntimeError("fill started")

    monkeypatch.setattr(MultiplicityTable, "fill_box", no_fill)
    code, out, err = run_cli(
        capsys, "table", "--family", "staircase", "--max-n", "3", "--roots", "5,4"
    )
    assert (code, out, err) == (2, "", "error: --roots needs --family custom\n")


def test_root_parse_errors(capsys):
    for bad in ("4", "4,3,2", "a,b"):
        code, _, err = run_cli(capsys, "mult", "--root", bad)
        assert code == 2, bad
        assert err.startswith("error:"), bad
    code, _, err = run_cli(capsys, "mult", "--root=-1,2")
    assert code == 2
    assert "nonnegative" in err


@pytest.mark.parametrize("argv, message", [
    (("mult", "--root", "a,b"), "--root needs two comma-separated integers c0,c1, got 'a,b'"),
    (("mult", "--root", "3,2,"), "--root needs two comma-separated integers c0,c1, got '3,2,'"),
    (("bound", "--root", "", "--theorem", "1"),
     "--root needs two comma-separated integers c0,c1, got ''"),
    (("table", "--family", "custom", "--roots", "3,2;"),
     "--roots entry needs two comma-separated integers c0,c1, got ''"),
], ids=["letters", "trailing-comma", "empty", "roots-entry"])
def test_root_parse_errors_name_the_option(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


COMMANDS = ("mult", "bound", "estimate", "validate", "table", "stats")

# the valid argvs of the goldens above, one or more per command
GOLDEN_ARGVS = [
    ("mult", "--root", "16,15"),
    ("mult", "--root", "4,3", "--format", "csv"),
    ("bound", "--root", "4,3", "--theorem", "1", "--list"),
    ("bound", "--root", "3,4", "--theorem", "2"),
    ("estimate", "--root", "4,3", "--theorem", "1", "--samples", "1000", "--seed", "0x2A"),
    ("validate", "--word", "1010001"),
    ("table", "--family", "staircase", "--max-n", "6"),
    ("table", "--family", "custom", "--roots", "4,3;15,11", "--skip-bounds-above", "100000"),
    ("stats", "--k", "1", "--distance", "0", "--samples", "100"),
]

PARSE_CORPUS = GOLDEN_ARGVS + [(command, "-h") for command in COMMANDS] + [
    ("bound", "--root", "4,3"),  # a required option missing
    ("mult", "--root", "4,3", "--format", "xml"),  # a value outside the choices
    ("stats", "--k", "x", "--distance", "0", "--samples", "10"),  # a bad int
    ("validate", "--word", "1", "--root", "4,3"),  # an unrecognized argument
    (),
    ("-h",),
    ("nope",),
]


def _argv_id(argv):
    return " ".join(argv) or "no-argv"


@pytest.fixture
def parsed(monkeypatch):
    """Makes every command hand its Namespace back instead of running."""
    seen = []
    for command in COMMANDS:
        monkeypatch.setattr(rootbounds.cli, f"cmd_{command}", lambda args: seen.append(args) or 0)
    return seen


def _parse_route(capsys, parse, argv):
    try:
        result = parse(list(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=_argv_id)
def test_main_parses_as_the_full_parser(capsys, monkeypatch, parsed, argv):
    # main builds only the named command's parser; the Namespace, or the
    # exit code with its usage, help or error bytes, must not change
    monkeypatch.setenv("COLUMNS", "80")

    def via_main(argv):
        # main returns the exit code that the full parser raises
        code = main(argv)
        return parsed.pop() if parsed else ("exit", code)

    full = _parse_route(capsys, lambda argv: build_parser().parse_args(argv), argv)
    assert _parse_route(capsys, via_main, argv) == full
    assert parsed == []


@pytest.fixture
def added(monkeypatch):
    """Records the name of every subparser built."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    return names


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=_argv_id)
def test_a_named_command_builds_only_its_parser(capsys, parsed, added, argv):
    assert main(list(argv)) == 0
    assert added == [argv[0]]


def test_main_reads_sys_argv(capsys, monkeypatch, parsed, added):
    monkeypatch.setattr(sys, "argv", ["rootbounds", "validate", "--word", "10"])
    assert main() == 0
    assert added == ["validate"]
    assert parsed[0].word == "10"


@pytest.mark.parametrize("argv", [(), ("-h",), ("nope",)], ids=_argv_id)
def test_help_and_unknown_commands_build_every_parser(capsys, parsed, added, argv):
    assert main(list(argv)) == (0 if argv == ("-h",) else 2)
    assert added == list(COMMANDS)


# the refusals of the tests above, each with the $ROOTBOUNDS_THREADS it runs under
REFUSALS = [
    *((None, _estimate_argv("--threads", bad)) for bad in ("0", "-2", "x", str(MAX_THREADS + 1))),
    ("abc", _estimate_argv()),
    ("0", _estimate_argv()),
    (None, _estimate_argv()[:-2] + ("--seed", "-1")),
    (None, _estimate_argv()[:-4] + ("--samples", "abc", "--seed", "0")),
    (None, _estimate_argv("--format", "csv")),
    (None, ("stats", "--k", "3", "--distance", "1", "--samples", "10", "--chunk", "0")),
]
CONTRACT = [(None, argv) for argv in PARSE_CORPUS] + REFUSALS


@pytest.mark.parametrize("env, argv", CONTRACT, ids=[
    _argv_id(argv) + (f" ${THREADS_ENV}={env}" if env else "") for env, argv in CONTRACT
])
def test_main_is_the_one_way_out(capsys, monkeypatch, env, argv):
    # main returns 0 or 2 and raises nothing, SystemExit included; a 2
    # writes nothing to stdout and one error line to stderr
    if env is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, env)
    code, out, err = run_cli(capsys, *argv)
    if "-h" in argv:
        assert (code, err) == (0, "")
        assert out.startswith("usage: rootbounds")
    elif code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.index("\n") == len(err) - 1
    else:
        assert (code, err) == (0, "")
        assert out


def _run_module(*flags_and_argv):
    # a fresh interpreter imports the package this suite imports, also when
    # only pytest's own pythonpath setting put it on sys.path
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *flags_and_argv], capture_output=True, text=True, env=env
    )


def test_module_entry_point():
    proc = _run_module("-m", "rootbounds.cli", "mult", "--root", "1,1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["multiplicity"] == "1"


_RUNPY_PROBE = """
import runpy
import sys
try:
    runpy.run_module("rootbounds.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code, "rootbounds.cli" in sys.modules)
"""


def test_module_entry_point_imports_the_cli_once(capsys):
    # run as __main__, the CLI reads its lazy names from __main__; importing
    # rootbounds.cli beside it would make runpy warn, and -W error fails that
    argv = ("bound", "--root", "11,8", "--theorem", "2", "--list")
    proc = _run_module("-W", "error", "-m", "rootbounds.cli", *argv)
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0

    def timeless(text):
        return re.sub(r'"elapsed_seconds":[^,}]+', '"elapsed_seconds":0', text)

    assert timeless(proc.stdout) == timeless(out)
    proc = _run_module("-W", "error", "-c", _RUNPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_optimized_python_gives_same_bound_output():
    argv = ("-m", "rootbounds.cli", "bound", "--root", "11,10", "--theorem", "2")
    outputs = []
    for flags in ((), ("-O",)):
        proc = _run_module(*flags, *argv)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        payload.pop("elapsed_seconds")
        outputs.append(payload)
    assert outputs[0] == outputs[1]
    assert outputs[0]["bound"] == "3630"


_PLANTED_CLOSED_FORM = """
import rootbounds.counting as counting
from rootbounds import Rank2Cartan
exact = counting.dyck_count
counting.dyck_count = lambda n, m: exact(n, m) + 1
print(__debug__)
try:
    counting.bound_report((11, 10), Rank2Cartan(3))
except ArithmeticError as exc:
    print("ArithmeticError:", exc)
"""


def test_optimized_python_keeps_closed_form_check():
    proc = _run_module("-O", "-c", _PLANTED_CLOSED_FORM)
    assert proc.returncode == 0, proc.stderr
    debug, raised = proc.stdout.splitlines()
    assert debug == "False"
    assert raised.startswith("ArithmeticError:")


_PLANTED_SHIFT = """
import rootbounds.peterson as peterson
from rootbounds import MultiplicityTable, Rank2Cartan
shifts = peterson._weyl_shifts
print(__debug__)
for dropped in ((1, 0, -1), (4, 1, 1), (0, 1, -1)):
    peterson._weyl_shifts = lambda *box: [s for s in shifts(*box) if s != dropped]
    try:
        MultiplicityTable(Rank2Cartan(3)).fill_box(30, 30)
    except ArithmeticError as exc:
        print("ArithmeticError:", exc)
"""


def test_optimized_python_keeps_multiplicity_check():
    # the fill, with the shift (1,0) of sign -1, the shift (4,1) of sign
    # +1 or the shift (0,1) that runs along each row dropped, must still
    # refuse its cells
    proc = _run_module("-O", "-c", _PLANTED_SHIFT)
    assert proc.returncode == 0, proc.stderr
    debug, *raised = proc.stdout.splitlines()
    assert debug == "False"
    assert [line.split(")")[0] for line in raised] == [
        "ArithmeticError: multiplicity at (1, 0",
        "ArithmeticError: multiplicity at (4, 1",
        "ArithmeticError: multiplicity at (0, 1",
    ]


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


def test_public_names_resolve():
    # a stale __all__ entry would otherwise fail only under `from rootbounds import *`
    import rootbounds

    assert [name for name in rootbounds.__all__ if not hasattr(rootbounds, name)] == []
    assert len(set(rootbounds.__all__)) == len(rootbounds.__all__)


_NUMPY_PROBE = """
import sys
from rootbounds.cli import main
code = main(sys.argv[1:])
print("futures", "concurrent.futures" in sys.modules)
print(code, "numpy" in sys.modules)
"""


@pytest.mark.parametrize("argv, loads_numpy", [
    (("mult", "--root", "16,15"), False),
    (("bound", "--root", "11,8", "--theorem", "2", "--list"), False),
    (("table", "--family", "staircase", "--max-n", "3"), False),
    (("validate", "--word", "1010001"), False),
    (_estimate_argv(), True),
    (("stats", "--k", "3", "--distance", "1", "--samples", "10"), True),
])
def test_only_sampling_commands_load_numpy(argv, loads_numpy):
    proc = _run_module("-c", _NUMPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loads_numpy}"
    # the sampler's thread pool comes with numpy: importing concurrent.futures
    # would slow the start of every exact command
    assert proc.stdout.splitlines()[-2] == f"futures {loads_numpy}"


_LEAN_PROBE = """
import sys
before = set(sys.modules)
from rootbounds.cli import main
code = main(sys.argv[1:])
print(code, *sorted((set(sys.modules) - before) & {"csv", "dataclasses", "inspect"}))
"""


@pytest.mark.parametrize("argv, loads_csv", [
    (("mult", "--root", "16,15"), False),
    (("mult", "--root", "16,15", "--format", "csv"), True),
    (("bound", "--root", "11,8", "--theorem", "2", "--list"), False),
    (("bound", "--root", "11,8", "--theorem", "1", "--format", "csv"), True),
    (("table", "--family", "staircase", "--max-n", "3"), True),
    (("validate", "--word", "1010001"), False),
])
def test_exact_commands_start_lean(argv, loads_csv):
    # the exact commands print in milliseconds, so start-up is most of their
    # time: they load no dataclasses or inspect, and csv only to write CSV
    proc = _run_module("-c", _LEAN_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ("0 csv" if loads_csv else "0")


_LOADS_PROBE = """
import sys
before = set(sys.modules)
import rootbounds
import rootbounds.cli


def loaded():
    return sorted(name.split(".", 1)[-1] for name in set(sys.modules) - before
                  if name.startswith("rootbounds.") or name in ("decimal", "fractions"))


print(*loaded())
if sys.argv[1:]:
    code = rootbounds.cli.main(sys.argv[1:])
    print(code, *loaded())
"""


def test_importing_the_cli_loads_no_library_module():
    # each command imports what it runs on first use, so a fresh interpreter
    # compiles only the CLI before the command line is parsed
    proc = _run_module("-c", _LOADS_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cli"]


@pytest.mark.parametrize("argv, loads", [
    (("mult", "--root", "16,15"), "core_lattice decimal fractions peterson"),
    (("validate", "--word", "1010001"), "core_lattice stability_filters string_data"),
    (("bound", "--root", "11,8", "--theorem", "2", "--list"),
     "core_lattice counting stability_filters string_data"),
    (("table", "--family", "staircase", "--max-n", "3"),
     "core_lattice counting decimal fractions peterson stability_filters string_data"),
])
def test_each_exact_command_loads_only_what_it_runs(argv, loads):
    # mult needs no counting engine or filters, validate no Peterson table,
    # and no exact command loads montecarlo; fractions (and with it decimal)
    # comes only with peterson
    proc = _run_module("-c", _LOADS_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 cli {loads}"


_SURFACE_PROBE = """
import sys
import rootbounds
from rootbounds import counting
print(counting is sys.modules["rootbounds.counting"])
namespace = {}
exec("from rootbounds import *", namespace)
print(sorted(set(namespace) - {"__builtins__"}) == sorted(rootbounds.__all__))
"""


def test_package_names_load_on_first_use():
    # a fresh interpreter, so the names and the submodule are not yet loaded
    proc = _run_module("-c", _SURFACE_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True", "True"]


@pytest.mark.parametrize("module", ["rootbounds", "rootbounds.cli"])
def test_lazy_names_are_their_home_modules_objects(module):
    module = sys.modules[module]
    if module is rootbounds.cli:
        # bench/tracing.py replaces these two, which no command calls
        assert {"enumerate_dyck", "runs_to_word"} <= module._HOMES.keys()
    else:
        assert sorted(module._HOMES) == sorted(module.__all__)
    for name, home in module._HOMES.items():
        # __getattr__ itself, since this process has read most names already
        expected = getattr(sys.modules[f"rootbounds.{home}"], name)
        assert module.__getattr__(name) is expected, name
        assert getattr(module, name) is expected, name
    assert module._HOMES.keys() <= set(dir(module))
    with pytest.raises(AttributeError, match=f"{module.__name__}.*no_such_name"):
        module.no_such_name


def test_cli_reads_its_lazy_names_as_module_attributes():
    # a bare global would not reach __getattr__, and would bypass a wrapper
    # set on rootbounds.cli; annotations are never evaluated
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    bare = sorted(
        f"{name.id}:{name.lineno}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for statement in function.body
        for name in ast.walk(statement)
        if isinstance(name, ast.Name) and name.id in rootbounds.cli._HOMES
    )
    assert bare == []


_LIBRARY_PROBE = """
import sys
import rootbounds
from rootbounds import FilterLevel, Rank2Cartan
print("numpy" in sys.modules)
cartan = Rank2Cartan(3)
refused = 0
for call in (
    lambda: rootbounds.estimate_bound((4, 2), cartan, FilterLevel.COND1, samples=10, seed=0),
    lambda: rootbounds.estimate_bound((4, 3), cartan, FilterLevel.COND1, samples=10, seed=0,
                                      threads=10**6),
    lambda: rootbounds.visits_statistic(5, 1, samples=10, seed=-1),
    lambda: rootbounds.visits_statistic(10**6, 1, samples=10, seed=0),
):
    try:
        call()
    except ValueError:
        refused += 1
print(refused, "numpy" in sys.modules)
rootbounds.visits_statistic(5, 1, samples=10, seed=0)
print("numpy" in sys.modules)
"""


def test_library_loads_numpy_only_for_a_sampling_call_that_runs():
    # the weight (4, 2) is refused by dyck_count, the last check before the sampler
    proc = _run_module("-c", _LIBRARY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "4 False", "True"]


def _imported_packages(path: Path) -> set[str]:
    """The top-level packages that a module's absolute imports name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add((node.module or "").split(".")[0])
    return names


def test_sampler_is_the_only_numpy_module():
    paths = sorted(PACKAGE.glob("*.py"))
    assert [path.name for path in paths if "numpy" in _imported_packages(path)] == [
        "sampler.py"
    ]


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize: about a quarter of the
    # time a fresh interpreter took to import rootbounds.cli
    paths = sorted(PACKAGE.glob("*.py"))
    assert "cli.py" in [path.name for path in paths]
    assert [path.name for path in paths if "dataclasses" in _imported_packages(path)] == []


def test_no_assert_in_the_package():
    # python -O strips assert statements, and the package's checks must
    # hold under it
    paths = sorted(PACKAGE.glob("*.py"))
    assert "sampler.py" in [path.name for path in paths]
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_commands_call_the_cli_module_attributes(capsys, monkeypatch):
    # bench/tracing.py times the sampler by replacing these two attributes
    calls = []
    reports = {
        "estimate_bound": EstimateReport(
            (4, 3), 3, FilterLevel.COND1, 10, 7, 5, "3.5", "0.724", 0, 65536
        ),
        "visits_statistic": VisitsReport(3, 1, 10, 0, "5", "0.2"),
    }

    def fake(name):
        return lambda *args, **kwargs: calls.append(name) or reports[name]

    for name in reports:
        monkeypatch.setattr(rootbounds.cli, name, fake(name))
    assert run_cli(capsys, *_estimate_argv()) == (0, (
        '{"chunk":"65536","dyck_total":"5","estimate":"3.5","filter":"cond1","hits":"7",'
        '"r":3,"root":[4,3],"samples":"10","seed":"0","std_error":"0.724"}\n'
    ), "")
    stats_argv = ("stats", "--k", "3", "--distance", "1", "--samples", "10")
    assert run_cli(capsys, *stats_argv) == (
        0, '{"distance":1,"k":3,"mean":"5","samples":"10","seed":"0","std_error":"0.2"}\n', ""
    )
    assert calls == ["estimate_bound", "visits_statistic"]


@pytest.mark.parametrize("argv, roots", [
    (("bound", "--root", "11,8", "--theorem", "2"), [(11, 8)]),
    (("table", "--family", "staircase", "--max-n", "3"), [(2, 1), (3, 2), (4, 3)]),
])
def test_bound_and_table_call_the_cli_bound_report(capsys, monkeypatch, argv, roots):
    # bench/tracing.py times the counting engine by replacing this attribute
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    calls = []
    real = rootbounds.cli.bound_report

    def counted(root, cartan):
        calls.append(tuple(root))
        return real(root, cartan)

    monkeypatch.setattr(rootbounds.cli, "bound_report", counted)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert calls == roots
    if argv[0] == "bound":
        out, expected = (json.loads(text) for text in (out, expected))
        out.pop("elapsed_seconds"), expected.pop("elapsed_seconds")
    assert out == expected


def test_bench_patch_points_exist(monkeypatch):
    # bench/tracing.py replaces module attributes of rootbounds; one that a
    # cleanup of src/ drops makes patched() raise AttributeError
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "bench"))
    import tracing

    bound = rootbounds.cli.bound_report
    with tracing.Tracer().patched():
        assert rootbounds.cli.bound_report is not bound
    assert rootbounds.cli.bound_report is bound
