"""Workload table and the cycle runner.

A cycle is one closed-loop session at a workload's scenario, run through the
public entry point ``experiments.run_experiment`` three times, exactly as
``leoho run`` would: train the learned policy and evaluate it greedily, then
evaluate the random baseline, then the A3 (conventional) baseline.  Each
phase reads a spec file the benchmark generates from the workload and the
seed, and writes its summary/trace (and curve/checkpoint) CSVs to a scratch
directory inside the checkout.  Every cycle of a run uses the same seeds, so
cycles repeat the same work and their outputs must be byte-identical.

The machine's speed drifts by up to a third within seconds (other tenants
share the cores).  A ``Meter`` therefore runs a fixed calibration loop at
every phase boundary and every ``Meter.INTERVAL_S`` inside a phase; each
phase carries the mean calibration time over its span, and the time spent
calibrating is left out of its timings.
"""

from __future__ import annotations

import contextlib
import hashlib
import statistics
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from leoho import experiments, training

SCENARIOS = {
    "case1": (  # scripts/case1.spec: R = J, P = 5J
        "scenario.J = 10",
        "scenario.K = 3",
        "scenario.N = 20",
        "scenario.rb_ratio = 1.0",
        "scenario.preamble_ratio = 5.0",
        "scenario.nu = 1",
    ),
    "J100-scarce": (  # the "scarce" ratios: R = 30, P = 80
        "scenario.J = 100",
        "scenario.K = 3",
        "scenario.N = 20",
        "scenario.rb_ratio = 0.3",
        "scenario.preamble_ratio = 0.8",
        "scenario.nu = 1",
    ),
}

AGENTS = ("dho", "random", "conventional")


@dataclass(frozen=True)
class Workload:
    """Scenario plus the episode count of each phase of one cycle."""

    name: str
    scenario: str  # key of SCENARIOS
    train_episodes: int
    dho_episodes: int  # greedy evaluation of the trained policy
    random_episodes: int
    conventional_episodes: int

    def eval_episodes(self, agent: str) -> int:
        return getattr(self, f"{agent}_episodes")


# Why each workload exists is in README.md.  Phases stay under ~1 s so the
# calibration tracks the machine's speed over each, and a cycle takes
# 1.5-2.5 s so a run holds ten or more.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-case1", "case1", 400, 100, 150, 100),
        Workload("eval-case1", "case1", 300, 50, 800, 500),
        Workload("scale-J100-scarce", "J100-scarce", 60, 60, 300, 150),
    )
}


def spec_text(workload: Workload, agent: str, seed: int) -> str:
    lines = [f"agent = {agent}", *SCENARIOS[workload.scenario]]
    lines.append(f"train_episodes = {workload.train_episodes if agent == 'dho' else 0}")
    lines.append(f"eval_episodes = {workload.eval_episodes(agent)}")
    lines.append(f"master_seed = {seed}")
    return "\n".join(lines) + "\n"


def write_specs(workload: Workload, seed: int, work_dir: Path) -> dict[str, Path]:
    """One spec file per agent; the program sees only these and the seeds."""
    paths = {}
    for agent in AGENTS:
        path = work_dir / f"{agent}.spec"
        path.write_text(spec_text(workload, agent, seed))
        paths[agent] = path
    return paths


@dataclass
class PhaseResult:
    agent: str
    train_episodes: int
    eval_episodes: int
    wall_s: float  # run_experiment wall time, calibration excluded
    train_s: float  # part of wall_s spent inside experiments.train
    digest: str  # hash of summary.csv, trace.csv and curve.csv
    row: dict  # the summary row run_experiment returned
    curve_cost: float | None  # -mean training return from curve.csv
    train_calibration_s: float  # mean calibrate() time over training, 0 if none
    eval_calibration_s: float  # the same over the rest of the phase

    @property
    def episodes(self) -> int:
        return self.train_episodes + self.eval_episodes


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in ("summary.csv", "trace.csv", "curve.csv"):
        path = out_dir / name
        if path.exists():
            h.update(name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _curve_cost(path: Path) -> float:
    lines = path.read_text().splitlines()[1:]
    returns = [float(line.split(",")[1]) for line in lines]
    return -sum(returns) / len(returns)


@contextlib.contextmanager
def patched(owner, attr: str, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def calibrate() -> float:
    """Seconds for a fixed mix of batch-1 numpy calls and interpreter work.

    The mix resembles the program's hot loops, so both slow down together
    when the machine does; about 12 ms on an unloaded 2-vCPU Xeon.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 31))
    w = rng.standard_normal((31, 128))
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(3000):
        total += float(np.tanh(x @ w)[0, 0])
        counts: dict[int, int] = {}
        for k in range(10):
            counts[k] = counts.get(k, 0) + 1
    return time.perf_counter() - t0


class Meter:
    """The machine's speed, sampled with calibrate() while phases run.

    ``install`` hooks ``episode_metrics``, which training and evaluation
    call once per episode, to sample at least every INTERVAL_S.
    """

    INTERVAL_S = 0.2

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time spent inside sample()
        self._last = time.perf_counter()

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self._last = time.perf_counter()
        self.spent_s += self._last - t0

    def install(self, stack: ExitStack) -> None:
        for module in (training, experiments):
            inner = module.episode_metrics

            def sampled(outcomes, final_state, inner=inner):
                record = inner(outcomes, final_state)
                if time.perf_counter() - self._last >= self.INTERVAL_S:
                    self.sample()
                return record

            stack.enter_context(patched(module, "episode_metrics", sampled))

    def mean(self, start: int, stop: int | None = None) -> float:
        return statistics.fmean(self.samples[start:stop])


def run_phase(spec_path: Path, out_dir: Path, meter: Meter | None = None) -> PhaseResult:
    """One ``run_experiment`` call; training is timed apart from evaluation.

    With a meter, calibration samples bracket the phase and the training
    inside it, and their time is subtracted from both timings.
    """
    spec = experiments.parse_spec_file(spec_path)
    meter = meter or _NullMeter()
    train_s = 0.0
    mid = None  # index of the sample taken when training returned
    inner_train = experiments.train

    def timed_train(*args, **kwargs):
        nonlocal train_s, mid
        spent = meter.spent_s
        t0 = time.perf_counter()
        try:
            return inner_train(*args, **kwargs)
        finally:
            train_s += time.perf_counter() - t0 - (meter.spent_s - spent)
            meter.sample()
            mid = len(meter.samples) - 1

    meter.sample()
    first = len(meter.samples) - 1
    spent = meter.spent_s
    with patched(experiments, "train", timed_train):
        t0 = time.perf_counter()
        artifacts = experiments.run_experiment(spec, out_dir)
        wall_s = time.perf_counter() - t0 - (meter.spent_s - spent)
    meter.sample()
    curve = artifacts.get("curve")
    return PhaseResult(
        agent=spec.agent,
        train_episodes=spec.train_episodes if spec.agent == "dho" else 0,
        eval_episodes=spec.eval_episodes,
        wall_s=wall_s,
        train_s=train_s,
        digest=_digest(out_dir),
        row=artifacts["row"],
        curve_cost=_curve_cost(curve) if curve is not None else None,
        train_calibration_s=meter.mean(first, mid + 1) if mid is not None else 0.0,
        eval_calibration_s=meter.mean(first if mid is None else mid),
    )


class _NullMeter(Meter):
    """Takes no samples, for cycles that are not timed against the machine."""

    def sample(self) -> None:
        self.samples.append(0.0)


def run_cycle(specs: dict[str, Path], work_dir: Path, meter: Meter | None = None) -> list[PhaseResult]:
    """The three phases in order; each writes into a fresh directory."""
    results = []
    with ExitStack() as stack:
        if meter is not None:
            meter.install(stack)
        for agent in AGENTS:
            out_dir = work_dir / agent
            if out_dir.exists():
                for child in out_dir.iterdir():
                    child.unlink()
            results.append(run_phase(specs[agent], out_dir, meter))
    return results
