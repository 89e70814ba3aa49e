"""The three handover decision policies behind one ``act`` interface.

All of them pin already-accessed terminals to action 0: the environment
would ignore their requests anyway, and for the learned policy the pin keeps
recorded behavior log-probabilities consistent (a pinned head chose 0 with
probability one).  The chunk engine (:func:`env.play`) relies on the pin:
it stops deciding for an episode once every terminal in it has access and
retires it (:meth:`HandoverEnv.retire`).

Every decision function takes arrays with any leading episode axes, so one
call decides for all the episodes a :class:`HandoverEnv` steps together.
The agents are deciders for :func:`env.play`: ``begin_episode`` starts a
chunk, ``act`` decides a slot and ``retire`` drops retired episodes.
The learned policy also decides under a :class:`net.StackedPolicy`, one
parameter set per equal run of episodes.  It returns its logits rather than
log-probabilities: evaluation needs only the actions, and training takes a
whole rollout's log-probabilities in one :func:`dho_log_probs` call.
Stochastic agents draw each episode's randomness at ``begin_episode``, in
one block per episode from that episode's generator: (N, J) uniform actions
for the random agent, (N, J, K) Gumbel noise for the sampling learned agent.
The blocks carry the chunk's episode axis, and each slot's rows are read
through :meth:`HandoverEnv.at_slot`, which follows the episodes the env
retires.  ``retire`` drops the A3 streaks of the episodes retired.
The random agent reads its actions as raw PCG64 words and converts the
chunk's blocks at once (:func:`rng.integers_by_rows`), with the bits of
numpy's ``integers(0, K, (N, J))``; the noise is numpy's own ``gumbel``.
"""

from __future__ import annotations

import numpy as np

from leoho import net
from leoho.env import HandoverEnv
from leoho.link import MeasurementState
from leoho.rng import integers_by_rows


def conventional_decide(
    measurements: MeasurementState,
    accessed: np.ndarray,
    offset_db: float,
    streak: np.ndarray,
    trigger_slots: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """A3-triggered handover: request the strongest target once the event holds.

    ``streak`` (..., J, K-1) counts consecutive slots the A3 condition held
    per (terminal, target); it is carried by the caller and returned
    updated.  A terminal requests when some target's streak reaches
    ``trigger_slots``, choosing the highest filtered measurement among those
    targets (ties go to the lowest plane index).  The running best is kept
    one target plane at a time, and only a strictly higher measurement
    replaces it, as ``argmax`` breaks ties.
    """
    flags = measurements.a3_flags(offset_db)
    streak = np.where(flags, streak + 1, 0)
    eligible = streak >= trigger_slots
    targets = measurements.l3_dbm[..., 1:]
    best = np.where(eligible[..., 0], targets[..., 0], -np.inf)
    actions = eligible[..., 0].astype(np.intp)
    for t in range(1, eligible.shape[-1]):
        better = eligible[..., t] & (targets[..., t] > best)
        best = np.where(better, targets[..., t], best)
        actions = np.where(better, t + 1, actions)
    return np.where(accessed, 0, actions), streak


def random_decide(draws: np.ndarray, accessed: np.ndarray) -> np.ndarray:
    """Uniform draw over {0..K-1} per unaccessed terminal.

    ``draws`` holds the uniform actions, shaped like ``accessed``.
    """
    return np.where(accessed, 0, draws)


def dho_decide(
    params: net.PolicyParameters | net.StackedPolicy,
    observation: np.ndarray,
    noise: np.ndarray | None = None,
    mode: str = "sample",
    accessed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Learned policy: per-terminal categorical heads over the planes.

    ``observation`` is (..., obs_dim).  A :class:`net.StackedPolicy` of G
    parameter sets decides its rows as G equal runs in order, each under
    its own set.  Sampling adds Gumbel ``noise`` (..., J, K) to the logits.
    Returns the chosen actions and the (..., J, K) logits they were chosen
    from; pinned (accessed) heads report action 0.  :func:`dho_log_probs`
    turns the two into behavior log-probabilities.
    """
    logits = net.forward(params, observation)
    if mode == "greedy":
        actions = logits.argmax(axis=-1)
    elif mode == "sample":
        if noise is None:
            raise ValueError("sampling mode needs Gumbel noise")
        actions = (logits + noise).argmax(axis=-1)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if accessed is not None and accessed.any():
        actions = np.where(accessed, 0, actions)
    return actions, logits


def dho_log_probs(
    logits: np.ndarray, actions: np.ndarray, accessed: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-head log-probabilities of the actions :func:`dho_decide` chose from ``logits``.

    Takes any leading axes, so one call serves a whole rollout.  A pinned
    (accessed) head chose 0 with probability one and reports 0.  With
    ``out`` the log-probabilities go there and are computed in place over
    ``logits``, which the call uses up (:func:`net.head_log_probs`).
    """
    log_probs = net.head_log_probs(logits, actions, out=out)
    np.copyto(log_probs, 0.0, where=accessed)
    return log_probs


class ConventionalAgent:
    """Stateful wrapper carrying the A3 streak counters across a slot loop.

    The A3 offset and trigger length are the scenario's.
    """

    name = "conventional"

    def __init__(self) -> None:
        self._streak: np.ndarray | None = None

    def begin_episode(self, env: HandoverEnv, rngs) -> None:
        cfg = env.config
        self._streak = np.zeros(env.state.accessed.shape + (cfg.num_targets,), dtype=np.int64)
        self._offset_db = cfg.a3_offset_db
        # A streak never passes the horizon, so any longer trigger acts as
        # horizon + 1, which int64 holds on every numpy.
        self._trigger = min(cfg.a3_trigger_slots, cfg.horizon + 1)

    def act(self, env: HandoverEnv, observation: np.ndarray) -> np.ndarray:
        actions, self._streak = conventional_decide(
            env.measurements(), env.state.accessed, self._offset_db, self._streak, self._trigger
        )
        return actions

    def retire(self, settled: np.ndarray) -> None:
        self._streak = self._streak[~settled]


class RandomAgent:
    name = "random"

    def __init__(self) -> None:
        self._draws: np.ndarray | None = None

    def begin_episode(self, env: HandoverEnv, rngs) -> None:
        """``rngs``: an iterable of one generator per episode."""
        cfg = env.config
        generators = list(rngs)
        draws = np.empty((len(generators), cfg.horizon, cfg.num_ues), dtype=np.int64)
        integers_by_rows(generators, 0, cfg.num_planes, draws)
        self._draws = draws

    def act(self, env: HandoverEnv, observation: np.ndarray) -> np.ndarray:
        state = env.state
        return random_decide(env.at_slot(self._draws), state.accessed)

    def retire(self, settled: np.ndarray) -> None:
        """Nothing to drop: the draws are read through :meth:`HandoverEnv.at_slot`."""


class DhoAgent:
    """Learned policy, in greedy (evaluation) or sampling (behavior) mode."""

    name = "dho"

    def __init__(self, params: net.PolicyParameters, mode: str = "greedy"):
        self.params = params
        self.mode = mode
        self._noise: np.ndarray | None = None

    def begin_episode(self, env: HandoverEnv, rngs) -> None:
        """``rngs``: an iterable of one generator per episode."""
        self._noise = None
        if self.mode == "sample":
            cfg = env.config
            shape = (cfg.horizon, cfg.num_ues, cfg.num_planes)
            self._noise = np.stack([rng.gumbel(size=shape) for rng in rngs])

    def act(self, env: HandoverEnv, observation: np.ndarray) -> np.ndarray:
        state = env.state
        noise = None if self._noise is None else env.at_slot(self._noise)
        actions, _ = dho_decide(self.params, observation, noise, self.mode, state.accessed)
        return actions

    def retire(self, settled: np.ndarray) -> None:
        """Nothing to drop: the noise is read through :meth:`HandoverEnv.at_slot`."""


def make_agent(kind: str, params: net.PolicyParameters | None = None, mode: str = "greedy"):
    if kind == "conventional":
        return ConventionalAgent()
    if kind == "random":
        return RandomAgent()
    if kind == "dho":
        if params is None:
            raise ValueError("the learned agent needs policy parameters")
        return DhoAgent(params, mode=mode)
    raise ValueError(f"unknown agent kind {kind!r}")
