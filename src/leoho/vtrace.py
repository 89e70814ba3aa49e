"""V-trace targets: truncated-importance-sampling value corrections.

``vtrace_from_values`` is the pure recursion over already-computed values
and log importance ratios, for one segment or many stacked.
``vtrace_targets`` turns the current policy's pass over recorded segments
(its values and the log-probabilities of the recorded actions) into the
joint log-ratios and runs the recursion; it is the learner's one targets
path.  Both return the per-step targets and the policy-gradient advantages
built from them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np


@dataclass
class TrajectorySegment:
    """Recorded episodes from a behavior policy: one, or a stack of them.

    The arrays take an optional leading episode axis, so a stack of S
    episodes is (S, L, ...); ``segment[e]`` is episode ``e`` and
    ``segment[a:b]`` a stack of a run of them, both views, and a stack
    iterates as its episodes.  ``observations`` has one extra row (the
    state after the last step); ``bootstrap_value`` stands in for the value
    of that state, in every episode of a stack, and is 0 for terminal
    episodes.  ``masks`` flags which heads actually chose (already accessed
    terminals are pinned to action 0 with log-probability 0).
    """

    observations: np.ndarray  # ([S,] L + 1, obs_dim)
    actions: np.ndarray  # ([S,] L, J) int
    behavior_logprobs: np.ndarray  # ([S,] L, J) per-head log mu
    rewards: np.ndarray  # ([S,] L)
    masks: np.ndarray  # ([S,] L, J) 1.0 = head active
    bootstrap_value: float = 0.0

    def __post_init__(self) -> None:
        *lead, length = self.rewards.shape
        if self.observations.shape[:-1] != (*lead, length + 1):
            raise ValueError("observations must hold one row per step plus the final state")
        for name in ("actions", "behavior_logprobs", "masks"):
            if getattr(self, name).shape[:-1] != (*lead, length):
                raise ValueError(f"{name} must be shaped {(*lead, length)} before its last axis")
        if not np.all(np.isfinite(self.behavior_logprobs)):
            raise ValueError("behavior log-probabilities must be finite")

    def __len__(self) -> int:
        """Steps of one episode, or episodes of a stack."""
        return self.rewards.shape[0]

    def __getitem__(self, key: int | slice) -> TrajectorySegment:
        arrays = ("observations", "actions", "behavior_logprobs", "rewards", "masks")
        return replace(self, **{name: getattr(self, name)[key] for name in arrays})

    def __iter__(self) -> Iterator[TrajectorySegment]:
        return (self[e] for e in range(len(self)))


def vtrace_from_values(
    rewards: np.ndarray,
    values: np.ndarray,
    bootstrap_value: float | np.ndarray,
    log_ratios: np.ndarray,
    gamma: float,
    rho_bar: float = 1.0,
    c_bar: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward-recursion V-trace over segments stacked on leading axes.

    ``rewards``, ``values`` and ``log_ratios`` are (..., L) with time last;
    ``bootstrap_value`` is a scalar or (...).  ``log_ratios[..., n]`` is
    log pi(a_n|s_n) - log mu(a_n|s_n) for the joint action.  Returns
    (targets, pg_advantages, rho) where
    ``pg_advantages[n] = rho_n * (r_n + gamma * v_{n+1} - V(s_n))`` with
    ``v_L`` the bootstrap value.  The recursion runs once over L, on all
    segments at a time.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    log_ratios = np.asarray(log_ratios, dtype=float)
    length = rewards.shape[-1]
    if values.shape != rewards.shape or log_ratios.shape != rewards.shape:
        raise ValueError("rewards, values and log_ratios must have equal length")

    with np.errstate(over="ignore"):
        ratios = np.exp(log_ratios)
    if not np.all(np.isfinite(ratios)):
        raise ValueError("non-finite importance ratios; behavior log-probs corrupt?")
    rho = np.minimum(rho_bar, ratios)
    c = np.minimum(c_bar, ratios)

    values_ext = np.empty(rewards.shape[:-1] + (length + 1,))
    values_ext[..., :length] = values
    values_ext[..., length] = bootstrap_value
    deltas = rho * (rewards + gamma * values_ext[..., 1:] - values_ext[..., :-1])

    targets = np.empty_like(values_ext)
    targets[..., length] = bootstrap_value
    for n in range(length - 1, -1, -1):
        # v_n - V(s_n), accumulated backwards.
        ahead = targets[..., n + 1] - values_ext[..., n + 1]
        correction = deltas[..., n] + gamma * c[..., n] * ahead
        targets[..., n] = values_ext[..., n] + correction

    q = rewards + gamma * targets[..., 1:]
    pg_advantages = rho * (q - values_ext[..., :-1])
    return targets[..., :-1], pg_advantages, rho


def vtrace_targets(
    segments: TrajectorySegment,
    values: np.ndarray,
    target_logp: np.ndarray,
    gamma: float,
    rho_bar: float = 1.0,
    c_bar: float = 1.0,
    vtrace_enabled: bool = True,
    *,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Targets and advantages, shaped like ``segments.rewards``, under the current policy.

    ``values`` ([S,] L) and ``target_logp`` ([S,] L, J), the per-head log pi
    of the recorded actions, come from the current policy's pass over the
    segments.  The joint log pi/mu ratio of a step sums over its heads, and
    masked heads contribute nothing; with ``vtrace_enabled=False`` every
    ratio is one.  ``scratch``, two arrays shaped like ``target_logp``,
    takes the masked log pi and log mu; without it they are new arrays.
    """
    if vtrace_enabled:
        masks = segments.masks
        target, behavior = (None, None) if scratch is None else scratch
        masked = np.multiply(target_logp, masks, out=target)
        masked -= np.multiply(segments.behavior_logprobs, masks, out=behavior)
        log_ratios = masked.sum(axis=-1)
    else:
        log_ratios = np.zeros(segments.rewards.shape)
    targets, pg_advantages, _ = vtrace_from_values(
        segments.rewards, values, segments.bootstrap_value, log_ratios, gamma, rho_bar, c_bar
    )
    return targets, pg_advantages
