"""Regenerate bench/refs.json, the references the output checks compare to.

    python3 bench/make_refs.py

Stores, for every root any seed's job list can produce (jobs.py
enumerates them): the multiplicity, the exact (dyck_total, count_thm1,
count_thm2) where a check needs it, and the stdout of every fixed-seed
job.  The values come from the package at the commit that runs this
script, so run it only when the benchmark's strata change, never to make
a failing check pass.  test_bench.py checks the stored values against
the acceptance gate's pinned numbers and against mult(c0,c1) =
mult(c1,c0).  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rootbounds import MultiplicityTable, Rank2Cartan, Weight, bound_report  # noqa: E402
from rootbounds.cli import main as cli_main  # noqa: E402

import jobs  # noqa: E402

REFS = HERE / "refs.json"


def main() -> int:
    mult = {}
    for r, roots in sorted(jobs.reference_roots().items()):
        table = MultiplicityTable(Rank2Cartan(r))
        table.fill_box(max(c0 for c0, _ in roots), max(c1 for _, c1 in roots))
        mult[str(r)] = {f"{c0},{c1}": str(table.entries[Weight(c0, c1)][1])
                        for c0, c1 in sorted(roots)}
    cartan = Rank2Cartan(3)
    bounds = {}
    for c0, c1 in sorted(jobs.bound_roots()):
        rep = bound_report((c0, c1), cartan)
        bounds[f"{c0},{c1}"] = [str(rep.dyck_total), str(rep.count_thm1), str(rep.count_thm2)]
    golden = {}
    for job in jobs.golden_jobs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if cli_main(list(job.argv)) != 0:
                raise SystemExit(f"golden job {job.name} failed")
        golden[" ".join(job.argv)] = out.getvalue()
    REFS.write_text(json.dumps({"mult": mult, "bounds": bounds, "golden": golden},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS}: {sum(map(len, mult.values()))} multiplicities, "
          f"{len(bounds)} bound triples, {len(golden)} goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main())
