"""Output checks behind ``failed`` and ``correct``.

Per episode (every ``StepOutcome`` of every training and evaluation episode
of the checked cycle): the delay and every collision rate lie in [0, 1],
the accessed set only grows, the resource-block budget never goes negative,
``reward == -nu * D - C``, and ``ho_success`` equals the final accessed
fraction.  Per phase: the random and conventional summary means sit within
a few standard errors of reference means pinned from a long run, and the
learned policy's greedy return is finite.  A failing episode is counted,
never dropped.
"""

from __future__ import annotations

import math
from contextlib import ExitStack

import numpy as np

from leoho import experiments, training
from workloads import patched

# Reference summary means per (scenario, agent): column -> (mean, standard
# error of the mean), from REFERENCE_EPISODES[scenario] episodes at master
# seed 10**9, measured at the commit that introduced the benchmark.
REFERENCE_EPISODES = {"case1": 20000, "J100-scarce": 4000}
REFERENCE = {
    ("case1", "random"): {
        "sum_delay_mean": (0.57006, 0.0021099),
        "sum_collision_rb_mean": (0.0, 0.0),
        "sum_collision_prach_mean": (0.045905, 0.00067658),
        "ho_success_mean": (1.0, 0.0),
        "return_mean": (-0.615965, 0.0024337),
    },
    ("case1", "conventional"): {
        "sum_delay_mean": (1.556055, 0.0051774),
        "sum_collision_rb_mean": (0.0, 0.0),
        "sum_collision_prach_mean": (0.027655, 0.00052253),
        "ho_success_mean": (0.999825, 0.000029555),
        "return_mean": (-1.58371, 0.0052616),
    },
    ("J100-scarce", "random"): {
        "sum_delay_mean": (8.2129625, 0.00092927),
        "sum_collision_rb_mean": (5.0746225, 0.0022109),
        "sum_collision_prach_mean": (0.19998, 0.00091315),
        "ho_success_mean": (0.6, 0.0),
        "return_mean": (-13.487565, 0.0026756),
    },
    ("J100-scarce", "conventional"): {
        "sum_delay_mean": (8.2922725, 0.0012720),
        "sum_collision_rb_mean": (2.8865375, 0.0025327),
        "sum_collision_prach_mean": (0.1611975, 0.00088580),
        "ho_success_mean": (0.6, 0.0),
        "return_mean": (-11.3400075, 0.0028362),
    },
}
TOLERANCE_SE = 5.0


class EpisodeChecker:
    """Wraps ``episode_metrics`` where training and experiments call it.

    Checks run inside the wrapper, so only an untimed cycle installs it.
    """

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.checked = 0
        self.failed = 0

    def install(self, stack: ExitStack) -> None:
        for module in (training, experiments):
            inner = module.episode_metrics
            stack.enter_context(patched(module, "episode_metrics", self._wrap(inner)))

    def _wrap(self, inner):
        def checked(outcomes, final_state):
            record = inner(outcomes, final_state)
            self.checked += 1
            if not episode_ok(outcomes, final_state, record, self.scenario):
                self.failed += 1
            return record

        return checked


def episode_ok(outcomes, final_state, record, scenario) -> bool:
    j = scenario.num_ues
    accessed = np.zeros(j, dtype=bool)
    rb = np.array(scenario.rb_per_target, dtype=np.int64)
    previous = 0
    for o in outcomes:
        rates = np.append(o.c_r_per_target, o.c_p)
        if not (0.0 <= o.d <= 1.0) or np.any(rates < 0.0) or np.any(rates > 1.0):
            return False
        if np.any(o.newly_accessed & accessed):
            return False
        accessed |= o.newly_accessed
        count = round(j * (1.0 - o.d))
        if count != int(accessed.sum()) or count < previous:
            return False
        previous = count
        rb -= np.bincount(o.command[o.newly_accessed], minlength=scenario.num_planes)[1:]
        if np.any(rb < 0):
            return False
        expected = -scenario.nu * o.d - (float(o.c_r_per_target.sum()) + o.c_p)
        if not math.isclose(o.reward, expected, rel_tol=1e-12, abs_tol=1e-12):
            return False
    if not np.array_equal(accessed, final_state.accessed):
        return False
    if not np.array_equal(rb, final_state.rb_remaining):
        return False
    return math.isclose(record.ho_success, accessed.mean(), rel_tol=0.0, abs_tol=1e-12)


def summary_ok(scenario_key: str, agent: str, row: dict) -> bool:
    """Baseline summary means against the pinned reference; dho return finite.

    The allowed distance is a few standard errors of the difference between
    two independent means, with the per-episode spread taken from the
    reference (a short run's own spread can be 0); 1e-6 covers the CSV's
    six decimals.
    """
    if agent == "dho":
        return math.isfinite(float(row["return_mean"]))
    n_ref = REFERENCE_EPISODES[scenario_key]
    episodes = int(row["eval_episodes"])
    for column, (ref_mean, ref_se) in REFERENCE[(scenario_key, agent)].items():
        se = ref_se * math.sqrt(1.0 + n_ref / episodes)
        if abs(float(row[column]) - ref_mean) > TOLERANCE_SE * se + 1e-6:
            return False
    return True
