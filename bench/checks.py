"""Output checks for benchmark jobs, run after a pass, outside its timing.

Each check parses one job's stdout and returns a list of problems (empty
when the output is right).  The checks use only the job's argv, the
references in refs.json and closed forms computed here, never the
package under test:

- mult: the multiplicity equals the stored reference.
- bound: dyck_total is the closed form, count_thm2 <= count_thm1 <=
  dyck_total, count_thm2 >= mult for imaginary roots, a03's triples and
  the stored exact triples match, and listed paths are sorted, distinct,
  of the right weight and as many as the bound.
- table: the same per row, and a row is "skipped" exactly when its Dyck
  total exceeds the cap.
- estimate: the fields agree with each other; the hits fall within 5
  sigma of the exact count when refs.json has it; a threads-2 job's
  stdout equals its threads-1 twin's; fixed-seed jobs match their golden.
- stats: the mean is within 15% of 4d+4 (a11's tolerance).
"""

from __future__ import annotations

import csv
import io
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from jobs import Job, dyck_total

# a03's pinned (dyck_total, count_thm1, count_thm2); None where a03 pins no value
A03_TRIPLES = {
    (15, 11): (297160, 23868, 23750),
    (16, 15): (None, 837218, 815215),
    (15, 16): (None, 1234431, 817505),
}
# a03 and a05's pinned r=3 multiplicities
PINNED_MULTS = {
    (15, 11): 23750,
    (16, 15): 815214,
    (51, 50): 203934938917850692376836,
}
TABLE_HEADER = ["n", "root_c0", "root_c1", "multiplicity", "bound1", "bound2", "gap1", "gap2"]


def _opts(argv) -> dict[str, str]:
    """--flag value pairs of an argv (bare flags map to "")."""
    out = {}
    i = 1
    while i < len(argv):
        key = argv[i].lstrip("-")
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[key] = argv[i + 1]
            i += 2
        else:
            out[key] = ""
            i += 1
    return out


def _root(text: str) -> tuple[int, int]:
    c0, c1 = text.split(",")
    return int(c0), int(c1)


def _imaginary(c0: int, c1: int, r: int) -> bool:
    # positive roots have norm 2 (real) or <= 0 (imaginary)
    return 2 * c0 * c0 + 2 * c1 * c1 - 2 * r * c0 * c1 <= 0


def _mult_ref(refs, r: int, root) -> Optional[int]:
    value = refs["mult"][str(r)].get("%d,%d" % tuple(root))
    return None if value is None else int(value)


def _bound_ref(refs, root) -> Optional[tuple[int, int, int]]:
    value = refs["bounds"].get("%d,%d" % tuple(root))
    return None if value is None else tuple(int(v) for v in value)


def _check_counts(root, r, total, b1, b2, mult, refs) -> list[str]:
    """Invariants shared by `bound` payloads and `table` rows."""
    problems = []
    if not b2 <= b1 <= total:
        problems.append(f"{root}: want count_thm2 <= count_thm1 <= dyck_total, got {b2}, {b1}, {total}")
    if mult is not None and _imaginary(*root, r) and b2 < mult:
        problems.append(f"{root}: count_thm2 {b2} is below the multiplicity {mult}")
    if r == 3:
        pinned = A03_TRIPLES.get(tuple(root))
        if pinned and any(p is not None and p != v for p, v in zip(pinned, (total, b1, b2))):
            problems.append(f"{root}: counts {(total, b1, b2)} differ from a03's {pinned}")
        exact = _bound_ref(refs, root)
        if exact and exact != (total, b1, b2):
            problems.append(f"{root}: counts {(total, b1, b2)} differ from reference {exact}")
    return problems


def check_mult(job: Job, out: str, refs) -> list[str]:
    opts = _opts(job.argv)
    root, r = _root(opts["root"]), int(opts.get("r", 3))
    payload = json.loads(out)
    want = _mult_ref(refs, r, root)
    if want is None:
        return [f"no reference multiplicity for r={r} {root}"]
    if payload.get("root") != list(root) or payload.get("r") != r:
        return [f"payload names {payload.get('root')} r={payload.get('r')}, job asked {root} r={r}"]
    if int(payload["multiplicity"]) != want:
        return [f"multiplicity {payload['multiplicity']} != reference {want}"]
    return []


def check_bound(job: Job, out: str, refs) -> list[str]:
    opts = _opts(job.argv)
    root, r, theorem = _root(opts["root"]), int(opts.get("r", 3)), int(opts["theorem"])
    p = json.loads(out)
    total, b1, b2 = int(p["dyck_total"]), int(p["count_thm1"]), int(p["count_thm2"])
    problems = []
    if total != dyck_total(*root):
        problems.append(f"dyck_total {total} != closed form {dyck_total(*root)}")
    if int(p["bound"]) != (b1 if theorem == 1 else b2):
        problems.append(f"bound {p['bound']} is not count_thm{theorem}")
    problems += _check_counts(root, r, total, b1, b2, _mult_ref(refs, r, root), refs)
    if "list" in opts:
        paths = p.get("paths", [])
        if len(paths) != int(p["bound"]):
            problems.append(f"{len(paths)} paths listed for a bound of {p['bound']}")
        if paths != sorted(set(paths)):
            problems.append("listed paths are not sorted and distinct")
        bad = [w for w in paths if (w.count("0"), w.count("1")) != root or len(w) != sum(root)]
        if bad:
            problems.append(f"{len(bad)} listed words do not have weight {root}, e.g. {bad[0]!r}")
    return problems


def check_table(job: Job, out: str, refs) -> list[str]:
    opts = _opts(job.argv)
    r = int(opts.get("r", 3))
    cap = int(opts["skip-bounds-above"]) if "skip-bounds-above" in opts else None
    if opts["family"] == "custom":
        roots = [_root(part) for part in opts["roots"].split(";")]
    else:
        n_max = int(opts.get("max-n", 6))
        stair = opts["family"] == "staircase"
        roots = [(n + 1, n) if stair else (n, n + 1) for n in range(1, n_max + 1)]
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != TABLE_HEADER:
        return [f"table header is {rows[:1]}"]
    if len(rows) - 1 != len(roots):
        return [f"{len(rows) - 1} rows for {len(roots)} roots"]
    problems = []
    for n, (root, row) in enumerate(zip(roots, rows[1:]), start=1):
        if row[:3] != [str(n), str(root[0]), str(root[1])]:
            problems.append(f"row {n} is {row[:3]}, want {[n, *root]}")
            continue
        want = _mult_ref(refs, r, root)
        if want is None or int(row[3]) != want:
            problems.append(f"row {n}: multiplicity {row[3]} != reference {want}")
            continue
        total = dyck_total(*root)
        if cap is not None and total > cap:
            if row[4:] != ["skipped"] * 4:
                problems.append(f"row {n}: Dyck total {total} is over the cap but bounds are {row[4:]}")
            continue
        b1, b2, g1, g2 = (int(v) for v in row[4:])
        if (g1, g2) != (b1 - want, b2 - want):
            problems.append(f"row {n}: gaps {(g1, g2)} do not match bounds {(b1, b2)} - {want}")
        problems += _check_counts(root, r, total, b1, b2, want, refs)
    return problems


def _sig6(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 6
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _sqrt_sig6(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 28
        root = (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()
        ctx.prec = 6
        return str(+root)


def check_estimate(job: Job, out: str, refs) -> list[str]:
    opts = _opts(job.argv)
    root, r, theorem = _root(opts["root"]), int(opts.get("r", 3)), int(opts["theorem"])
    p = json.loads(out)
    samples, hits = int(p["samples"]), int(p["hits"])
    problems = []
    echo = {"root": list(root), "r": r, "filter": f"cond{theorem}", "samples": opts["samples"],
            "seed": str(int(opts["seed"], 0)), "chunk": opts.get("chunk", str(1 << 16))}
    for key, want in echo.items():
        if p.get(key) != want:
            problems.append(f"{key} is {p.get(key)!r}, job asked {want!r}")
    total = dyck_total(*root)
    if int(p["dyck_total"]) != total:
        problems.append(f"dyck_total {p['dyck_total']} != closed form {total}")
    if not 0 <= hits <= samples:
        return problems + [f"hits {hits} outside [0, {samples}]"]
    frac = Fraction(hits, samples)
    if p["estimate"] != _sig6(frac * total):
        problems.append(f"estimate {p['estimate']} is not hits/samples x dyck_total")
    if p["std_error"] != _sqrt_sig6(frac * (1 - frac) / samples * total * total):
        problems.append(f"std_error {p['std_error']} does not follow from hits")
    exact = _bound_ref(refs, root) if r == 3 else None
    if exact:
        q = exact[theorem] / exact[0]
        sigma = math.sqrt(samples * q * (1 - q))
        if abs(hits - samples * q) > 5 * sigma:
            problems.append(f"hits {hits} are more than 5 sigma from the exact {samples * q:.1f}")
    return problems


def check_stats(job: Job, out: str, refs) -> list[str]:
    opts = _opts(job.argv)
    p = json.loads(out)
    distance = int(opts["distance"])
    problems = []
    echo = {"k": int(opts["k"]), "distance": distance, "samples": opts["samples"],
            "seed": str(int(opts.get("seed", "0"), 0))}
    for key, want in echo.items():
        if p.get(key) != want:
            problems.append(f"{key} is {p.get(key)!r}, job asked {want!r}")
    target = 4 * distance + 4
    if abs(float(p["mean"]) - target) >= 0.15 * target:
        problems.append(f"mean {p['mean']} is not within 15% of {target}")
    return problems


CHECKS = {
    "mult": check_mult,
    "bound": check_bound,
    "table": check_table,
    "estimate": check_estimate,
    "stats": check_stats,
}


def check_job(job: Job, rc, out: str, refs, outputs: dict[str, str]) -> list[str]:
    """Problems with one finished job; `outputs` maps job names to stdout in this pass."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        problems = CHECKS[job.command](job, out, refs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
    if job.twin is not None and out != outputs.get(job.twin):
        problems.append(f"stdout differs from its threads-1 twin {job.twin}")
    if job.golden and out != refs["golden"].get(" ".join(job.argv)):
        problems.append("stdout differs from the stored golden")
    return problems
