"""Spans around the public calls into each layer, for the traced run.

The tracer patches module and class attributes from outside the program, so
the program's files stay as they are.  Each call records one span: name,
start, end, parent span and the episode it belongs to (a new episode id
starts at ``HandoverEnv.reset`` and ends after ``episode_metrics``).  Spans
stay in memory for one cycle and are folded into per-name totals when it
ends.  A span's self time is its duration minus its children's durations;
the process is single-threaded, so children nest strictly.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from leoho import agents, env, experiments, link, net, orbital, training, vtrace
from workloads import patched

# (owner, attribute, span name).  A name imported with ``from ... import`` is
# patched in the module that looks it up, under the defining layer's name.
TARGETS = (
    (experiments, "run_experiment", "experiments.run_experiment"),
    (experiments, "train", "training.train"),
    (experiments, "evaluate", "experiments.evaluate"),
    (experiments, "episode_metrics", "experiments.episode_metrics"),
    (experiments, "write_trace_csv", "experiments.write_trace_csv"),
    (experiments, "write_summary_csv", "experiments.write_summary_csv"),
    (experiments, "write_curve_csv", "experiments.write_curve_csv"),
    (experiments, "save_checkpoint", "experiments.save_checkpoint"),
    (experiments, "dho_decide", "agents.dho_decide"),
    (training, "rollout_segment", "training.rollout_segment"),
    (training, "loss_and_gradient", "training.loss_and_gradient"),
    (training.Adam, "step", "training.Adam.step"),
    (training, "episode_metrics", "training.episode_metrics"),
    (training, "dho_decide", "agents.dho_decide"),
    (vtrace, "vtrace_targets", "vtrace.vtrace_targets"),
    (vtrace, "vtrace_from_values", "vtrace.vtrace_from_values"),
    (agents, "dho_decide", "agents.dho_decide"),
    (agents, "random_decide", "agents.random_decide"),
    (agents, "conventional_decide", "agents.conventional_decide"),
    (net, "forward", "net.forward"),
    (net, "forward_batch", "net.forward_batch"),
    (net, "backward_trunk", "net.backward_trunk"),
    (env.HandoverEnv, "reset", "env.reset"),
    (env.HandoverEnv, "step", "env.step"),
    (env.HandoverEnv, "observe", "env.observe"),
    (env.HandoverEnv, "measurements", "env.measurements"),
    (env, "admission", "env.admission"),
    (env, "rach", "env.rach"),
    (orbital, "propagate", "orbital.propagate"),
    (orbital, "nearest_distances_km", "orbital.nearest_distances_km"),
    (link.MeasurementState, "fold_sample", "link.fold_sample"),
)

# A batch-1 forward_batch inside net.forward is told apart from the
# learner's batched calls under this key.
BATCH1_FORWARD = "net.forward_batch@net.forward"


def _count_admission(counts, parent, args, result):
    counts["env.admission.requests"] += int(np.count_nonzero(args[0]))
    counts["env.admission.grants"] += int(np.count_nonzero(result[0]))


def _count_rach(counts, parent, args, result):
    counts["env.rach.commanded"] += int(np.count_nonzero(args[0]))
    counts["env.rach.collided"] += int(np.count_nonzero(result[1]))


def _count_forward_batch(counts, parent, args, result):
    if parent != "net.forward":
        counts["net.forward_batch.learner_rows"] += len(args[1])


def _count_backward(counts, parent, args, result):
    counts["net.backward_trunk.rows"] += len(args[1].inputs)


def _count_update(counts, parent, args, result):
    counts["training.transitions"] += sum(len(segment) for segment in args[1])


HOOKS = {
    "env.admission": _count_admission,
    "env.rach": _count_rach,
    "net.forward_batch": _count_forward_batch,
    "net.backward_trunk": _count_backward,
    "training.loss_and_gradient": _count_update,
}


@dataclass
class CycleTrace:
    """Per-name totals of one traced cycle."""

    wall_s: float
    spans: int
    calls: Counter = field(default_factory=Counter)
    inclusive_s: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.episodes: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._episode = 0
        self._episodes_started = 0

    def _wrap(self, name: str, inner):
        names, starts, ends = self.names, self.starts, self.ends
        parents, episodes, stack = self.parents, self.episodes, self._stack
        hook = HOOKS.get(name)
        starts_episode = name == "env.reset"
        ends_episode = name.endswith(".episode_metrics")
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if starts_episode:
                self._episodes_started += 1
                self._episode = self._episodes_started
            idx = len(starts)
            parent = stack[-1]
            names.append(name)
            parents.append(parent)
            episodes.append(self._episode)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(self.counts, names[parent] if parent >= 0 else None, args, result)
            if ends_episode:
                self._episode = 0
            return result

        return traced

    def install(self, stack: ExitStack) -> None:
        """Wrap every target the program still has; a missing one reads 0."""
        for owner, attr, name in TARGETS:
            if hasattr(owner, attr):
                stack.enter_context(patched(owner, attr, self._wrap(name, getattr(owner, attr))))

    def fold(self, wall_s: float) -> CycleTrace:
        """Totals of the spans recorded since the last fold; clears them."""
        n = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += durations[i]
        out = CycleTrace(wall_s=wall_s, spans=n, counts=self.counts)
        for i, name in enumerate(self.names):
            parent = self.parents[i]
            if name == "net.forward_batch" and parent >= 0 and self.names[parent] == "net.forward":
                name = BATCH1_FORWARD
            out.calls[name] += 1
            out.inclusive_s[name] += durations[i]
            out.self_s[name] += durations[i] - child[i]
        for name in ("env.step", "orbital.propagate", "link.fold_sample"):
            out.counts[f"{name}.calls"] = out.calls[name]
        out.counts["training.updates"] = out.calls["training.Adam.step"]
        for lst in (self.names, self.starts, self.ends, self.parents, self.episodes):
            del lst[:]
        self.counts = Counter()
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Exact per-cycle counts; each must repeat in every traced cycle of a run
# and in every run at the same seed.
COUNTS = (
    "env.step.calls",
    "env.admission.requests",
    "env.admission.grants",
    "env.rach.commanded",
    "env.rach.collided",
    "orbital.propagate.calls",
    "link.fold_sample.calls",
    "training.updates",
    "training.transitions",
)


def per_layer_metrics(traces: list[CycleTrace], overhead_share: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, name -> (value, unit), from traced cycles."""
    calls, incl, self_s, totals = Counter(), Counter(), Counter(), Counter()
    for t in traces:
        calls.update(t.calls)
        incl.update(t.inclusive_s)
        self_s.update(t.self_s)
        totals.update(t.counts)
    first = traces[0].counts

    def self_us(name):
        return _ratio(self_s[name], calls[name]) * 1e6

    def incl_us(name):
        return _ratio(incl[name], calls[name]) * 1e6

    train_s = incl["training.train"]
    m = {
        "env.admission.us": (self_us("env.admission"), "us"),
        "env.admission.grant_ratio": (
            _ratio(totals["env.admission.grants"], totals["env.admission.requests"]),
            "ratio",
        ),
        "env.rach.us": (self_us("env.rach"), "us"),
        "env.rach.success_ratio": (
            _ratio(
                totals["env.rach.commanded"] - totals["env.rach.collided"],
                totals["env.rach.commanded"],
            ),
            "ratio",
        ),
        "env.step.self_us": (self_us("env.step"), "us"),
        "env.observe.us": (self_us("env.observe"), "us"),
        "env.reset.us": (self_us("env.reset"), "us"),
        "orbital.propagate.calls_per_step": (
            _ratio(calls["orbital.propagate"], calls["env.step"]),
            "calls/step",
        ),
        # The conventional agent asks for measurements once per decided slot.
        "env.measurements.us_per_slot": (incl_us("env.measurements"), "us/slot"),
        "orbital.nearest_distances_km.us": (self_us("orbital.nearest_distances_km"), "us"),
        "link.fold_sample.us": (self_us("link.fold_sample"), "us"),
        "agents.conventional_decide.us": (self_us("agents.conventional_decide"), "us"),
        "agents.random_decide.us": (self_us("agents.random_decide"), "us"),
        "agents.dho_decide.us": (self_us("agents.dho_decide"), "us"),
        "net.forward.us": (incl_us("net.forward"), "us"),
        "training.rollout_segment.share": (
            _ratio(incl["training.rollout_segment"], train_s),
            "ratio",
        ),
        "net.forward_batch.rows_per_transition": (
            _ratio(
                first["net.forward_batch.learner_rows"], first["training.transitions"]
            ),
            "rows/transition",
        ),
        "net.forward_batch.us_per_row": (
            _ratio(incl["net.forward_batch"], totals["net.forward_batch.learner_rows"]) * 1e6,
            "us/row",
        ),
        "net.backward_trunk.us_per_row": (
            _ratio(incl["net.backward_trunk"], totals["net.backward_trunk.rows"]) * 1e6,
            "us/row",
        ),
        "vtrace.vtrace_targets.us_per_segment": (self_us("vtrace.vtrace_targets"), "us/segment"),
        "vtrace.vtrace_from_values.us_per_segment": (
            self_us("vtrace.vtrace_from_values"),
            "us/segment",
        ),
        "training.Adam.step.ms": (incl_us("training.Adam.step") / 1e3, "ms"),
        "training.learner.share": (
            _ratio(incl["training.loss_and_gradient"] + incl["training.Adam.step"], train_s),
            "ratio",
        ),
        "experiments.write_trace_csv.ms": (incl_us("experiments.write_trace_csv") / 1e3, "ms"),
        "experiments.episode_metrics.us": (incl_us("experiments.episode_metrics"), "us"),
        "trace.overhead_share": (overhead_share, "ratio"),
        "trace.spans_per_cycle": (traces[0].spans, "count"),
    }
    for name in COUNTS:
        m[name] = (first[name], "count")
    return m


def cycle_counts(trace: CycleTrace) -> dict[str, int]:
    return {name: trace.counts[name] for name in COUNTS} | {
        "net.forward_batch.learner_rows": trace.counts["net.forward_batch.learner_rows"],
        "spans": trace.spans,
    }


def share_table(traces: list[CycleTrace]) -> list[tuple[str, float, float]]:
    """(span name, self-time share of traced wall time, calls per cycle)."""
    wall = sum(t.wall_s for t in traces)
    self_s, calls = Counter(), Counter()
    for t in traces:
        self_s.update(t.self_s)
        calls.update(t.calls)
    rows = [(name, self_s[name] / wall, calls[name] / len(traces)) for name in self_s]
    rows.sort(key=lambda row: -row[1])
    return rows
