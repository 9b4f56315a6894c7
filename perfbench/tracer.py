"""Per-layer spans and Spark job accounting for one explain pass.

The tracer measures FEDEX from outside: it replaces the public functions
``repro.core.explain`` calls with wrappers for the duration of a traced
pass and restores them afterwards; nothing in ``src/`` changes. Each
wrapper opens a span (name, start, end, parent, step id) kept in memory,
and the three layers that run Spark jobs also run under a job group of
their own, whose job ids and stage task counts are read as soon as the
call returns — Spark's status store keeps only the last
``spark.ui.retainedJobs`` jobs.

Layers and the entries wrapped:

* ``interestingness`` — ``step_interestingness`` (phase 1);
* ``partition`` — ``partitions_for_attribute``;
* ``contribution`` — ``exceptionality_contributions_multi`` and
  ``compute_contributions``; inside it ``driver_combine`` spans around
  ``reference.leave_one_out_ks`` and ``contribution._recombine``, and the
  rows returned by ``DataFrame.toPandas``/``collect``;
* ``assembly`` — ``Fedex.assemble`` and ``skyline_indices``.

Jobs a step runs outside these layers stay in the step's own group and
are reported as unattributed.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager

JOB_LAYERS = ("interestingness", "partition", "contribution")


def job_stats(sc, group: str) -> dict[str, int]:
    """Jobs, tasks and failed tasks Spark ran under ``group`` so far.

    Drains the listener bus first so the status store has seen every job
    the caller's finished actions started.
    """
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    st = sc.statusTracker()
    ids = st.getJobIdsForGroup(group)
    tasks = failed = 0
    for j in ids:
        info = st.getJobInfo(j)
        for s in info.stageIds if info else ():
            si = st.getStageInfo(s)
            if si is not None:
                tasks += si.numTasks
                failed += si.numFailedTasks
    return {"jobs": len(ids), "tasks": tasks, "failed_tasks": failed}


class Tracer:
    """Spans of one traced pass. Use ``with tracer.installed():`` around
    the pass and ``with tracer.step(i):`` around each explain call."""

    def __init__(self, sc):
        self.sc = sc
        self.spans: list[dict] = []
        self.overhead_s = 0.0  # time spent in the tracer's own bookkeeping
        self._stack: list[int] = []
        self._group: str | None = None
        self._step: int | None = None
        self._fetching = False

    # -- spans ---------------------------------------------------------
    def _in(self, name: str) -> dict | None:
        for i in reversed(self._stack):
            if self.spans[i]["name"] == name:
                return self.spans[i]
        return None

    @contextmanager
    def span(self, name: str, entry: str, *, jobs: bool = False):
        t0 = time.perf_counter()
        idx = len(self.spans)
        rec = {
            "name": name,
            "entry": entry,
            "step": self._step,
            "parent": self._stack[-1] if self._stack else None,
            "start": 0.0,
            "end": 0.0,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(idx)
        # A job-carrying layer nested in another keeps its parent's group.
        own = jobs and not any(self.spans[i].get("group") for i in self._stack[:-1])
        prev = self._group
        if own:
            rec["group"] = self._group = f"{name}#{idx}"
            self.sc.setJobGroup(self._group, self._group)
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t0
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if own:
                rec["attrs"].update(job_stats(self.sc, rec["group"]))
                self._group = prev
                self.sc.setJobGroup(prev, prev)
            self.overhead_s += time.perf_counter() - rec["end"]

    @contextmanager
    def step(self, step_id: int):
        """Root span of one explain call; its job group collects any job
        run outside the wrapped layers."""
        self._step = step_id
        t0 = time.perf_counter()
        idx = len(self.spans)
        group = f"step#{idx}"
        rec = {"name": "step", "entry": "Fedex.explain", "step": step_id,
               "parent": None, "start": 0.0, "end": 0.0, "attrs": {}}
        self.spans.append(rec)
        self._stack.append(idx)
        self._group = group
        self.sc.setJobGroup(group, group)
        rec["start"] = time.perf_counter()
        self.overhead_s += rec["start"] - t0
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            unattributed = job_stats(self.sc, group)["jobs"]
            layers = sum(
                s["attrs"].get("jobs", 0)
                for s in self.spans[idx + 1:]
                if s.get("group")
            )
            rec["attrs"].update(jobs=layers + unattributed, unattributed_jobs=unattributed)
            self._group = self._step = None
            self.overhead_s += time.perf_counter() - rec["end"]

    # -- wrapping --------------------------------------------------------
    def _wrap(self, owner, attr: str, layer: str, *, jobs=False, after=None):
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with tracer.span(layer, attr, jobs=jobs) as attrs:
                out = orig(*args, **kwargs)
                if after is not None:
                    after(attrs, out)
                return out

        setattr(owner, attr, wrapper)
        return owner, attr, orig

    def _wrap_fetch(self, cls, attr: str):
        """Count rows a contribution span moves to the driver (outermost
        fetch only: ``toPandas`` may fall back to ``collect``)."""
        orig = getattr(cls, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(df, *args, **kwargs):
            if tracer._fetching:
                return orig(df, *args, **kwargs)
            tracer._fetching = True
            try:
                out = orig(df, *args, **kwargs)
            finally:
                tracer._fetching = False
            span = tracer._in("contribution")
            if span is not None:
                span["attrs"]["rows_to_driver"] = (
                    span["attrs"].get("rows_to_driver", 0) + len(out)
                )
            return out

        setattr(cls, attr, wrapper)
        return cls, attr, orig

    @contextmanager
    def installed(self):
        """Wrap every layer entry for the duration of the block."""
        from repro.core import contribution, explain, reference

        try:  # Spark >= 4 splits the classic DataFrame from the API class
            from pyspark.sql.classic.dataframe import DataFrame
        except ImportError:
            from pyspark.sql import DataFrame

        def scored(attrs, out):
            attrs["columns_scored"] = len(out)

        def built(attrs, out):
            attrs["built"] = len(out)
            attrs["keys"] = [list(p.key()) for p in out]

        def contributed(attrs, out):
            vals = [c for r in out for c in r.contributions.values()]
            attrs["sets"] = len(vals)
            attrs["positive"] = sum(c > 0 for c in vals)

        def assembled(attrs, out):
            attrs["candidates"] = len(out)

        def skyline(attrs, out):
            attrs["skyline"] = len(out)

        patches = [
            self._wrap(explain, "step_interestingness", "interestingness",
                       jobs=True, after=scored),
            self._wrap(explain, "partitions_for_attribute", "partition",
                       jobs=True, after=built),
            self._wrap(explain, "exceptionality_contributions_multi", "contribution",
                       jobs=True, after=contributed),
            self._wrap(explain, "compute_contributions", "contribution",
                       jobs=True, after=contributed),
            self._wrap(reference, "leave_one_out_ks", "driver_combine"),
            self._wrap(contribution, "_recombine", "driver_combine"),
            self._wrap(explain.Fedex, "assemble", "assembly", after=assembled),
            self._wrap(explain, "skyline_indices", "assembly", after=skyline),
            self._wrap_fetch(DataFrame, "toPandas"),
            self._wrap_fetch(DataFrame, "collect"),
        ]
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    # -- summary ---------------------------------------------------------
    def layer_metrics(self, shown: dict[int, list]) -> dict[str, float]:
        """Per-layer totals over the pass. ``shown`` maps step id to the
        explanations that step returned (for ``partition.useful_frac``)."""
        def total(name, key):
            return sum(s["attrs"].get(key, 0) for s in self.spans if s["name"] == name)

        def wall(name):
            return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

        m: dict[str, float] = {}
        for layer in ("interestingness", "partition", "contribution"):
            m[f"{layer}.wall_s"] = wall(layer)
            for k in ("jobs", "tasks", "failed_tasks"):
                m[f"{layer}.{k}"] = total(layer, k)
        m["interestingness.columns_scored"] = total("interestingness", "columns_scored")

        built = total("partition", "built")
        useful = 0
        for step_id, explanations in shown.items():
            keys = {
                tuple(k)
                for s in self.spans
                if s["name"] == "partition" and s["step"] == step_id
                for k in s["attrs"].get("keys", ())
            }
            useful += len(keys & {(e.attr, e.method, e.via, e.n_sets) for e in explanations})
        m["partition.built"] = built
        m["partition.useful_frac"] = useful / built if built else 0.0

        sets = total("contribution", "sets")
        m["contribution.driver_combine_s"] = wall("driver_combine")
        m["contribution.rows_to_driver"] = total("contribution", "rows_to_driver")
        m["contribution.sets"] = sets
        m["contribution.positive_frac"] = total("contribution", "positive") / sets if sets else 0.0

        cands = total("assembly", "candidates")
        m["assembly.wall_s"] = wall("assembly")
        m["assembly.candidates"] = cands
        m["assembly.skyline_frac"] = total("assembly", "skyline") / cands if cands else 0.0
        return m

    def unattributed_jobs(self) -> int:
        return sum(s["attrs"].get("unattributed_jobs", 0) for s in self.spans if s["name"] == "step")

    def records(self) -> list[dict]:
        """Spans in a JSON-ready form (times relative to the first span)."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        return [
            {**s, "start": s["start"] - t0, "end": s["end"] - t0}
            for s in self.spans
        ]
