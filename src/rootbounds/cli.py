"""Command-line surface: exact multiplicities, exact and estimated bounds,
word diagnostics, and CSV accuracy tables.

Every result but table's CSV rows goes to stdout through _emit, as
compact sorted JSON or one CSV row; diagnostics and errors go to stderr.
Counts, seeds and chunk sizes go out as decimal strings, so no
double-precision JSON reader rounds them; r, the root coordinates,
theorem, k and distance go out as JSON numbers of any size.  main
returns every exit code and never raises SystemExit: 0, or 2 after one
"error:" line on stderr for a bad command line or a refused input.

Importing this module loads no other module of the package.  Each
library name the commands use is imported from its home module on first
read (_HOMES, PEP 562), so a command compiles and loads only what it
runs: mult core_lattice and peterson; validate core_lattice, string_data
and stability_filters; bound those and counting; table all four and
peterson; estimate and stats montecarlo, which imports the numpy sampler
only when one of them runs.  The commands read these names as attributes
of this module, so a wrapper set on rootbounds.cli is the one that runs.
The exact commands (mult, bound, table, validate) load neither numpy nor
dataclasses, and csv loads only where CSV is written (table and --format
csv).

A call that names its subcommand builds only that subcommand's parser;
argparse's add_argument is most of the time of a small exact command.
Help, no argv and an unknown command build every subcommand's parser,
so usage, help and error output are the full parser's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from math import gcd
from typing import TYPE_CHECKING, Optional, Sequence

from . import _lazy

if TYPE_CHECKING:
    from .core_lattice import Weight
    from .stability_filters import FilterLevel

# each library name the commands use, by the module that defines it; the
# first read imports that module, so a command loads only what it runs
_HOMES = {
    "Rank2Cartan": "core_lattice",
    "Weight": "core_lattice",
    "as_weight": "core_lattice",
    "classify": "core_lattice",
    "dyck_count": "core_lattice",
    "MAX_LISTED_PATHS": "counting",
    "bound_report": "counting",
    "check_bound_height": "counting",
    "dyck_words": "counting",
    # no command calls it: bench/tracing.py patches cli.enumerate_dyck
    "enumerate_dyck": "counting",
    "DEFAULT_CHUNK": "montecarlo",
    "MAX_THREADS": "montecarlo",
    "estimate_bound": "montecarlo",
    "visits_statistic": "montecarlo",
    "MultiplicityTable": "peterson",
    "check_box": "peterson",
    "FilterLevel": "stability_filters",
    "cond1": "stability_filters",
    "cond2": "stability_filters",
    "is_dyck": "string_data",
    "littelmann_valid": "string_data",
    "weight_of": "string_data",
    "word_to_runs": "string_data",
    # no command calls it: bench/tracing.py patches cli.runs_to_word
    "runs_to_word": "string_data",
}
__getattr__, __dir__ = _lazy(globals(), _HOMES)

# The commands read every name above as an attribute of this module (under
# python -m, of __main__), never as a bare global, which would not reach
# __getattr__; so a wrapper set on the module is the one that runs.
_cli = sys.modules[__name__]

THREADS_ENV = "ROOTBOUNDS_THREADS"


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one error line, like every other bad input."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _parse_root(text: str, option: str = "--root") -> Weight:
    try:
        c0, c1 = map(int, text.split(","))
    except ValueError:
        raise ValueError(
            f"{option} needs two comma-separated integers c0,c1, got {text!r}"
        ) from None
    return _cli.as_weight((c0, c1))


def _parse_seed(text: str) -> int:
    # accepts decimal or hex (0x...) spellings
    seed = int(text, 0)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return seed


def _parse_threads(text: str) -> int:
    try:
        threads = int(text)
        if threads >= 1:
            return threads
    except ValueError:
        threads = text
    raise argparse.ArgumentTypeError(
        f"must be a positive integer (default ${THREADS_ENV}), got {threads!r}"
    )


def _theorem_level(theorem: int) -> FilterLevel:
    return _cli.FilterLevel.COND1 if theorem == 1 else _cli.FilterLevel.COND2


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "csv":
        import csv
        scalar = {k: v for k, v in payload.items() if not isinstance(v, (list, dict))}
        writer = csv.writer(sys.stdout)
        writer.writerow(scalar.keys())
        writer.writerow(scalar.values())
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def cmd_mult(args) -> int:
    root = _parse_root(args.root)
    cartan = _cli.Rank2Cartan(args.r)
    _cli.check_box(*root)
    table = _cli.MultiplicityTable(cartan)
    _emit(
        {
            "root": [root.c0, root.c1],
            "r": args.r,
            "class": _cli.classify(root, cartan).value,
            "multiplicity": str(table.entry(root)[1]),
        },
        args.format,
    )
    return 0


def cmd_bound(args) -> int:
    if args.list and args.format == "csv":
        # a CSV row holds only scalar fields, so the paths would be dropped
        raise ValueError("--list needs --format json")
    root = _parse_root(args.root)
    cartan = _cli.Rank2Cartan(args.r)
    report = _cli.bound_report(root, cartan)
    bound = report.count_thm1 if args.theorem == 1 else report.count_thm2
    if args.list and bound > _cli.MAX_LISTED_PATHS:
        raise ValueError(
            f"--list stops at {_cli.MAX_LISTED_PATHS} paths; {tuple(root)} has {bound}"
        )
    payload = {
        "root": [root.c0, root.c1],
        "r": args.r,
        "theorem": args.theorem,
        "dyck_total": str(report.dyck_total),
        "count_thm1": str(report.count_thm1),
        "count_thm2": str(report.count_thm2),
        "bound": str(bound),
        "elapsed_seconds": round(report.elapsed, 3),
    }
    if args.list:
        words = _cli.dyck_words(root, cartan, _theorem_level(args.theorem))
        # the listing and the DP are independent routes to the same count
        if len(words) != bound:
            raise ArithmeticError(f"listed {len(words)} paths, the DP counts {bound}")
        payload["paths"] = sorted(words)
    _emit(payload, args.format)
    return 0


def cmd_estimate(args) -> int:
    root = _parse_root(args.root)
    cartan = _cli.Rank2Cartan(args.r)
    report = _cli.estimate_bound(
        root,
        cartan,
        _theorem_level(args.theorem),
        samples=args.samples,
        seed=args.seed,
        threads=args.threads,
        chunk=args.chunk,
    )
    _emit(
        {
            "root": list(report.weight),
            "r": report.r,
            "filter": report.filter.value,
            "samples": str(report.samples),
            "hits": str(report.hits),
            "dyck_total": str(report.dyck_total),
            "estimate": report.estimate,
            "std_error": report.std_error,
            "seed": str(report.seed),
            "chunk": str(report.chunk),
        },
        "json",
    )
    return 0


def cmd_validate(args) -> int:
    runs = _cli.word_to_runs(args.word)
    w = _cli.weight_of(runs)
    cartan = _cli.Rank2Cartan(args.r)
    payload = {
        "word": args.word,
        "runs": list(runs),
        "weight": [w.c0, w.c1],
        "littelmann_valid": _cli.littelmann_valid(runs, cartan),
        "is_dyck": _cli.is_dyck(runs),
        # the run-pair conditions assume every run >= 1, so words that
        # start with 0 get null here rather than a made-up verdict
        "cond1": _cli.cond1(runs, cartan) if all(a >= 1 for a in runs) else None,
        "cond2": (
            _cli.cond2(runs, cartan)
            if len(runs) % 2 == 0 and all(a >= 1 for a in runs)
            else None
        ),
    }
    _emit(payload, args.format)
    return 0


def _family_root(family: str, n: int) -> Weight:
    return _cli.Weight(n + 1, n) if family == "staircase" else _cli.Weight(n, n + 1)


def cmd_table(args) -> int:
    cartan = _cli.Rank2Cartan(args.r)
    if args.roots is not None and args.family != "custom":
        raise ValueError("--roots needs --family custom")
    # every check comes before the table is filled and the header is
    # written, so a refused table writes nothing; one fill covers the box
    # of every row, and the ceiling is checked on that box
    if args.family == "custom":
        if not args.roots:
            raise ValueError("--family custom needs --roots 'c0,c1;c0,c1;...'")
        roots = [_parse_root(part, "--roots entry") for part in args.roots.split(";")]
        box = (max(root.c0 for root in roots), max(root.c1 for root in roots))
    else:
        if args.max_n < 1:
            raise ValueError("--max-n must be >= 1")
        # the last root's box holds every earlier one; the roots are made
        # only once that box has passed the ceiling
        box = _family_root(args.family, args.max_n)
        roots = (_family_root(args.family, n) for n in range(1, args.max_n + 1))
    _cli.check_box(*box)
    rows = list(enumerate(roots, start=1))
    guard = args.skip_bounds_above
    skips = []
    for _, root in rows:
        if min(root) < 1 or gcd(*root) != 1:
            raise ValueError(f"table roots need coprime positive coordinates, got {tuple(root)}")
        skips.append(guard is not None and _cli.dyck_count(*root) > guard)
        if not skips[-1]:
            _cli.check_bound_height(*root)
    table = _cli.MultiplicityTable(cartan)
    table.fill_box(*box)
    import csv
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "root_c0", "root_c1", "multiplicity", "bound1", "bound2", "gap1", "gap2"])
    for (n, root), skipped in zip(rows, skips):
        mult = table.entry(root)[1]
        if skipped:
            b1 = b2 = g1 = g2 = "skipped"
        else:
            report = _cli.bound_report(root, cartan)
            b1, b2 = report.count_thm1, report.count_thm2
            g1, g2 = b1 - mult, b2 - mult
        writer.writerow([n, root.c0, root.c1, mult, b1, b2, g1, g2])
    return 0


def cmd_stats(args) -> int:
    report = _cli.visits_statistic(
        args.k, args.distance, samples=args.samples, seed=args.seed, chunk=args.chunk
    )
    _emit(
        {
            "k": report.k,
            "distance": report.distance,
            "samples": str(report.samples),
            "seed": str(report.seed),
            "mean": report.mean,
            "std_error": report.std_error,
        },
        "json",
    )
    return 0


def _add_common(p, root=True, fmt=True) -> None:
    p.add_argument("--r", type=int, default=3, help="Cartan off-diagonal magnitude, >= 3")
    if root:
        p.add_argument("--root", required=True, help="weight as c0,c1")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_mult(sub) -> None:
    p = sub.add_parser("mult", help="exact root multiplicity")
    _add_common(p)
    p.set_defaults(fn=cmd_mult)


def _add_bound(sub) -> None:
    p = sub.add_parser("bound", help="exact filtered Dyck path counts")
    _add_common(p)
    p.add_argument(
        "--theorem",
        type=int,
        choices=(1, 2),
        required=True,
        help="1 = run-ratio filter, 2 = ratio + partial-sum filter (tighter)",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="also list passing paths as words "
        f"(JSON only, at most {_cli.MAX_LISTED_PATHS} paths)",
    )
    p.set_defaults(fn=cmd_bound)


def _add_estimate(sub) -> None:
    p = sub.add_parser("estimate", help="Monte-Carlo estimate of a bound")
    _add_common(p, fmt=False)
    p.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, required=True, help="decimal or hex")
    p.add_argument(
        "--threads",
        type=_parse_threads,
        default=os.environ.get(THREADS_ENV, "1"),
        help=f"worker threads, at most {_cli.MAX_THREADS} (default ${THREADS_ENV} or 1); "
        "one worker also starts one draw helper; does not affect results",
    )
    p.add_argument("--chunk", type=int, default=_cli.DEFAULT_CHUNK, help="samples per RNG chunk")
    p.set_defaults(fn=cmd_estimate)


def _add_validate(sub) -> None:
    p = sub.add_parser("validate", help="diagnose one binary word")
    _add_common(p, root=False)
    p.add_argument("--word", required=True, help="ASCII string of 0s and 1s")
    p.set_defaults(fn=cmd_validate)


def _add_table(sub) -> None:
    p = sub.add_parser("table", help="CSV accuracy table over a root family")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--family", choices=("staircase", "antistaircase", "custom"), required=True)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--roots", help="for --family custom: 'c0,c1;c0,c1;...'")
    p.add_argument(
        "--skip-bounds-above",
        type=int,
        default=None,
        help="mark bound cells 'skipped' when the Dyck total exceeds this",
    )
    p.set_defaults(fn=cmd_table)


def _add_stats(sub) -> None:
    p = sub.add_parser("stats", help="diagonal-visit statistic of sampled paths")
    p.add_argument("--k", type=int, required=True, help="paths run to (k+1, k)")
    p.add_argument("--distance", type=int, required=True, help="count points with y - x = distance")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=_parse_seed, default=0)
    p.add_argument("--chunk", type=int, default=_cli.DEFAULT_CHUNK)
    p.set_defaults(fn=cmd_stats)


# each subcommand's registration, in the order the usage and help list them
_COMMANDS = {
    "mult": _add_mult,
    "bound": _add_bound,
    "estimate": _add_estimate,
    "validate": _add_validate,
    "table": _add_table,
    "stats": _add_stats,
}


def _parser(commands) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rootbounds",
        description=(
            "Exact rank-2 hyperbolic root multiplicities and Dyck-path upper "
            "bounds.  Roots are given as --root c0,c1 = coefficients of "
            "(alpha0, alpha1); c0 counts right steps / letter 0, c1 counts "
            "up steps / letter 1."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        _COMMANDS[name](sub)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    return _parser(_COMMANDS)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line, like an error, with no source path or source line
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # A call that names its subcommand parses exactly as under the full
    # parser, so it builds only that subparser.  Any other argv (none, -h,
    # an unknown command) needs every subcommand for its usage, help or
    # error, so it gets them all.  Each call builds its parser anew: the
    # --threads default reads the environment at that moment.
    commands = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        args = _parser(commands).parse_args(argv)
    except SystemExit as exc:
        # argparse leaves by SystemExit: 0 after its help, 2 after its one error line
        return exc.code
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.fn(args)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
