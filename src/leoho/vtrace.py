"""V-trace targets: truncated-importance-sampling value corrections.

``vtrace_from_values`` is the pure recursion over already-computed values
and log importance ratios, for one segment or many stacked;
``vtrace_targets`` evaluates the current network over a recorded segment
first.  Both return the per-step targets and the policy-gradient
advantages built from them.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from leoho import net


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


def log_ratios(
    target_logp: np.ndarray, behavior_logprobs: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """Joint log pi/mu ratio per step from the (..., J) per-head log pi of the actions.

    Sums over the J heads; masked heads contribute nothing.
    """
    return (target_logp * masks - behavior_logprobs * masks).sum(axis=-1)


def segment_log_ratios(
    params: net.PolicyParameters, segment: TrajectorySegment, logits: np.ndarray | None = None
) -> np.ndarray:
    """Joint log pi/mu ratio per step of one segment; masked heads contribute nothing."""
    if logits is None:
        logits, _, _ = net.forward_batch(params, segment.observations[:-1])
    target_logp = net.head_log_probs(logits, segment.actions)
    return log_ratios(target_logp, segment.behavior_logprobs, segment.masks)


def vtrace_targets(
    params: net.PolicyParameters,
    segment: TrajectorySegment,
    gamma: float,
    rho_bar: float = 1.0,
    c_bar: float = 1.0,
    vtrace_enabled: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Targets and advantages for a segment under the current parameters."""
    logits, values, _ = net.forward_batch(params, segment.observations[:-1])
    if vtrace_enabled:
        ratios = segment_log_ratios(params, segment, logits)
    else:
        ratios = np.zeros(len(segment))
    targets, pg_advantages, _ = vtrace_from_values(
        segment.rewards, values, segment.bootstrap_value, ratios, gamma, rho_bar, c_bar
    )
    return targets, pg_advantages
