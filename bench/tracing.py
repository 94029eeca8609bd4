"""Spans at rootbounds' layer boundaries, recorded from outside the package.

`Tracer.patched()` replaces the functions below at the module attributes
their callers look up, and restores them on exit; nothing under src/
changes.  Module = layer:

    cli                rootbounds.cli.main (called by the harness)
    peterson           MultiplicityTable.entry
    counting           rootbounds.cli.bound_report, rootbounds.cli.enumerate_dyck,
                       rootbounds.counting.cond1_pair (counted, not timed)
    sampler            rootbounds.cli.estimate_bound, rootbounds.cli.visits_statistic
    stability_filters  rootbounds.sampler.cond2
    string_data        rootbounds.cli.runs_to_word

A span is (id, parent, job, name, start, end, attrs).  Spans stay in
memory until the run writes them out.  Sampler threads have no open span
of their own, so their spans take the main thread's innermost open span
as parent.  Allocation peaks are not measured here: tracemalloc slows
cond2's pure-Python loop about fourfold, so run.py measures them in a
pass of their own.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from statistics import median

import rootbounds.cli
import rootbounds.counting
import rootbounds.sampler
from rootbounds.peterson import MultiplicityTable

PER_LAYER = {
    # name: unit
    "peterson.fresh_s": "s",
    "peterson.incremental_s": "s",
    "peterson.cells": "count",
    "peterson.cells_per_s": "1/s",
    "counting.bound_report_s": "s",
    "counting.enumerate_s": "s",
    "counting.paths": "count",
    "counting.paths_per_s": "1/s",
    "counting.cond1_pair_calls": "count",
    "stability_filters.cond2_s": "s",
    "stability_filters.cond2_calls": "count",
    "sampler.estimate_s": "s",
    "sampler.self_s": "s",
    "sampler.visits_s": "s",
    "sampler.samples_per_s": "1/s",
    "sampler.cond1_pass_ratio": "1",
    "sampler.hit_ratio": "1",
    "sampler.peak_alloc_mb": "MB",
    "sampler.speedup_2t": "1",
    "string_data.runs_to_word_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "count",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_top = None
        self.job = None
        # calls counted during the last patched() block
        self.cond1_pair_calls = 0

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int]:
        stack = self._stack()
        parent = stack[-1] if stack else self._main_top
        sid = next(self._ids)
        stack.append(sid)
        if threading.current_thread() is threading.main_thread():
            self._main_top = sid
        return sid, parent

    def _close(self, sid, parent, name, start, attrs) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if threading.current_thread() is threading.main_thread():
            self._main_top = stack[-1] if stack else None
        self.spans.append((sid, parent, self.job, name, start, end, attrs))

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span; returns (result, span attrs dict to fill)."""
        attrs: dict = {}
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), attrs
        finally:
            self._close(sid, parent, name, start, attrs)

    def _wrap(self, name, fn, describe=None):
        def wrapper(*args, **kwargs):
            result, attrs = self.call(name, fn, *args, **kwargs)
            if describe is not None:
                attrs.update(describe(result, *args, **kwargs))
            return result
        return wrapper

    @contextmanager
    def patched(self):
        """Install the layer wrappers for the duration of a traced pass."""
        entry = MultiplicityTable.entry

        def traced_entry(table, weight):
            before = len(table.entries)
            result, attrs = self.call("peterson.entry", entry, table, weight)
            attrs.update(fresh=before == 0, cells=len(table.entries) - before)
            return result

        cond1_pair = rootbounds.counting.cond1_pair
        counter = itertools.count()
        tick = counter.__next__

        def counted_cond1_pair(a, b, cartan):
            tick()
            return cond1_pair(a, b, cartan)

        def estimate_attrs(rep, *args, threads=1, **kwargs):
            return {"samples": rep.samples, "hits": rep.hits, "level": rep.filter.value,
                    "threads": threads}

        replacements = [
            (MultiplicityTable, "entry", traced_entry),
            (rootbounds.counting, "cond1_pair", counted_cond1_pair),
            (rootbounds.cli, "bound_report", self._wrap(
                "counting.bound_report", rootbounds.cli.bound_report,
                lambda rep, *a, **k: {"paths": rep.dyck_total})),
            (rootbounds.cli, "enumerate_dyck", self._wrap(
                "counting.enumerate_dyck", rootbounds.cli.enumerate_dyck,
                lambda count, *a, **k: {"paths": count})),
            (rootbounds.cli, "estimate_bound", self._wrap(
                "sampler.estimate_bound", rootbounds.cli.estimate_bound, estimate_attrs)),
            (rootbounds.cli, "visits_statistic", self._wrap(
                "sampler.visits_statistic", rootbounds.cli.visits_statistic,
                lambda rep, *a, **k: {"samples": rep.samples})),
            (rootbounds.sampler, "cond2", self._wrap("stability_filters.cond2", rootbounds.sampler.cond2)),
            (rootbounds.cli, "runs_to_word", self._wrap("string_data.runs_to_word", rootbounds.cli.runs_to_word)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
        try:
            for owner, attr, fn in replacements:
                setattr(owner, attr, fn)
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)
            self.cond1_pair_calls = next(counter)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, job, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job, "name": name,
                                     "start": start, "end": end, **attrs}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered, reach = 0.0, start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, cond1_pair_calls: int, job_times: dict[str, float],
                  twins: dict[str, str], stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the two that need other passes:
    sampler.peak_alloc_mb and trace.overhead_pct."""
    selfs = self_times(spans)

    def ratio(a, b):
        return a / b if b else 0.0

    def total(name, pred=lambda attrs: True, key=None):
        return sum((attrs[key] if key else end - start)
                   for _, _, _, n, start, end, attrs in spans if n == name and pred(attrs))

    fresh = total("peterson.entry", lambda a: a["fresh"])
    incremental = total("peterson.entry", lambda a: not a["fresh"])
    cells = total("peterson.entry", key="cells")
    bound_s = total("counting.bound_report")
    enum_s = total("counting.enumerate_dyck")
    paths = total("counting.bound_report", key="paths") + total("counting.enumerate_dyck", key="paths")
    cond2_s = total("stability_filters.cond2")
    cond2_calls = sum(1 for s in spans if s[3] == "stability_filters.cond2")
    estimates = [s for s in spans if s[3] == "sampler.estimate_bound"]
    est_s = sum(end - start for _, _, _, _, start, end, _ in estimates)
    est_self = sum(selfs[s[0]] for s in estimates)
    samples = sum(s[6]["samples"] for s in estimates)
    cond2_samples = sum(s[6]["samples"] for s in estimates if s[6]["level"] == "cond2")
    hits = sum(s[6]["hits"] for s in estimates)
    cli_self = sum(selfs[s[0]] for s in spans if s[3] == "cli.main")
    t1 = sum(job_times[t] for t in twins.values())
    t2 = sum(job_times[t] for t in twins)
    return {
        "peterson.fresh_s": fresh,
        "peterson.incremental_s": incremental,
        "peterson.cells": cells,
        "peterson.cells_per_s": ratio(cells, fresh + incremental),
        "counting.bound_report_s": bound_s,
        "counting.enumerate_s": enum_s,
        "counting.paths": paths,
        "counting.paths_per_s": ratio(paths, bound_s + enum_s),
        "counting.cond1_pair_calls": cond1_pair_calls,
        "stability_filters.cond2_s": cond2_s,
        "stability_filters.cond2_calls": cond2_calls,
        "sampler.estimate_s": est_s,
        "sampler.self_s": est_self,
        "sampler.visits_s": total("sampler.visits_statistic"),
        "sampler.samples_per_s": ratio(samples, est_self),
        "sampler.cond1_pass_ratio": ratio(cond2_calls, cond2_samples),
        "sampler.hit_ratio": ratio(hits, samples),
        "sampler.speedup_2t": ratio(t1, t2),
        "string_data.runs_to_word_s": total("string_data.runs_to_word"),
        "cli.self_s": cli_self,
        "cli.stdout_bytes": stdout_bytes,
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(p[k] for p in per_pass) for k in per_pass[0]}
