"""Actor-learner training loop with V-trace off-policy correction.

Actors roll out whole episodes with a snapshot of the learner parameters as
their behavior policy; the learner consumes batches of recorded segments and
applies one adaptive-moment update per batch, from one forward pass over
it.  The episodes of one batch share a snapshot and are stepped together.
The serial loop emulates the asynchronous architecture's queue delay by
publishing parameters to actors one update late, so importance ratios are
genuinely off-policy.  With ``vtrace_enabled=False`` actors always see the
freshest parameters and the ratios are forced to one, which is the
on-policy actor-critic variant.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from leoho import net, vtrace
from leoho.agents import dho_decide
from leoho.env import (
    ConfigError,
    EpisodeOutcomes,
    HandoverEnv,
    ScenarioConfig,
    episode_metrics,
    observation_size,
    stack_outcomes,
)

CHECKPOINT_VERSION = 1
DEFAULT_HIDDEN = (128, 128)


@dataclass(frozen=True)
class VtraceConfig:
    """Training hyperparameters; defaults match the desk-scale scenario."""

    gamma: float = 0.95
    rho_bar: float = 1.0
    c_bar: float = 1.0
    learning_rate: float = 3e-4
    entropy_coeff: float = 0.01
    baseline_coeff: float = 0.5
    batch_size: int = 10000  # transitions per learner update
    actors_count: int = 4
    vtrace_enabled: bool = True
    hidden: tuple[int, int] = DEFAULT_HIDDEN

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma", "must lie in [0, 1)")
        if self.rho_bar < self.c_bar:
            raise ConfigError("rho_bar", "truncation levels must satisfy rho_bar >= c_bar")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate", "must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be at least one transition")
        if self.actors_count < 1:
            raise ConfigError("actors_count", "must be at least 1")


@dataclass
class LossReport:
    policy: float
    baseline: float
    entropy: float
    total: float


def _forward(params: net.PolicyParameters, segments: list[vtrace.TrajectorySegment]):
    """One learner forward pass over every transition of the batch, in order."""
    return net.forward_batch(params, np.concatenate([s.observations[:-1] for s in segments]))


def compute_targets(
    params: net.PolicyParameters,
    segments: list[vtrace.TrajectorySegment],
    cfg: VtraceConfig,
    forward=None,
) -> tuple[np.ndarray, np.ndarray]:
    """V-trace targets and advantages per transition, flat across the batch.

    The segments must have equal length; they are stacked to (S, L) and the
    recursion runs over all of them at once.  ``forward`` is the batch's
    :func:`net.forward_batch` result when the caller already has it.
    """
    if len({len(s) for s in segments}) != 1:
        raise ValueError("the segments of one batch must have equal length")
    logits, values, _ = _forward(params, segments) if forward is None else forward
    shape = (len(segments), len(segments[0]))
    if cfg.vtrace_enabled:
        log_ratios = vtrace.log_ratios(
            logits,
            np.concatenate([s.actions for s in segments]),
            np.concatenate([s.behavior_logprobs for s in segments]),
            np.concatenate([s.masks for s in segments]),
        ).reshape(shape)
    else:
        log_ratios = np.zeros(shape)
    targets, advantages, _ = vtrace.vtrace_from_values(
        np.stack([s.rewards for s in segments]),
        values.reshape(shape),
        np.array([s.bootstrap_value for s in segments]),
        log_ratios,
        cfg.gamma,
        cfg.rho_bar,
        cfg.c_bar,
    )
    return targets.ravel(), advantages.ravel()


def loss_and_gradient_with_targets(
    params: net.PolicyParameters,
    segments: list[vtrace.TrajectorySegment],
    targets: np.ndarray,
    advantages: np.ndarray,
    cfg: VtraceConfig,
    forward=None,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Three-term loss and its exact gradient, targets held constant.

    total = policy + baseline_coeff * baseline - entropy_coeff * entropy.
    The targets/advantages are stop-gradients: they are recomputed from the
    current parameters before every update but not differentiated through.
    ``forward`` is the batch's :func:`net.forward_batch` result when the
    caller already has it.
    """
    actions = np.concatenate([s.actions for s in segments], axis=0)
    masks = np.concatenate([s.masks for s in segments], axis=0).astype(float)

    logits, values, cache = _forward(params, segments) if forward is None else forward
    probs = net.softmax(logits)
    logp = net.log_softmax(logits)
    chosen_logp = np.take_along_axis(logp, actions[..., None], axis=-1)[..., 0]
    entropies = -(probs * logp).sum(axis=-1)  # (B, J)

    policy_loss = -float((advantages * (chosen_logp * masks).sum(axis=1)).sum())
    value_error = values - targets
    baseline_loss = 0.5 * float((value_error**2).sum())
    entropy_total = float((entropies * masks).sum())
    total = (
        policy_loss + cfg.baseline_coeff * baseline_loss - cfg.entropy_coeff * entropy_total
    )
    if not np.isfinite(total):
        raise FloatingPointError("non-finite training loss")

    # d(total)/dlogits; pinned heads contribute nothing to any term.
    chosen_onehot = np.zeros_like(probs)
    np.put_along_axis(chosen_onehot, actions[..., None], 1.0, axis=-1)
    dlogits = -advantages[:, None, None] * (chosen_onehot - probs)
    dlogits += cfg.entropy_coeff * probs * (logp + entropies[..., None])
    dlogits *= masks[..., None]
    dvalues = cfg.baseline_coeff * value_error

    grads = net.backward_trunk(params, cache, dlogits, dvalues)
    report = LossReport(
        policy=policy_loss, baseline=baseline_loss, entropy=entropy_total, total=total
    )
    return report, grads


def loss_and_gradient(
    params: net.PolicyParameters,
    segments: list[vtrace.TrajectorySegment],
    cfg: VtraceConfig,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """The loss and its gradient, from one forward pass over the batch."""
    forward = _forward(params, segments)
    targets, advantages = compute_targets(params, segments, cfg, forward)
    return loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, forward)


def total_loss_with_targets(
    params: net.PolicyParameters,
    segments: list[vtrace.TrajectorySegment],
    targets: np.ndarray,
    advantages: np.ndarray,
    cfg: VtraceConfig,
) -> float:
    report, _ = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg)
    return report.total


class Adam:
    """Adaptive-moment optimizer over a parameter set, updated in place."""

    def __init__(self, params: net.PolicyParameters, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors().items()}

    def step(self, params: net.PolicyParameters, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name, tensor in params.tensors().items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            tensor -= lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


@dataclass
class EpisodeRecord:
    episode: int
    episode_return: float
    sum_delay: float
    sum_collision: float


def rollout_segment(
    env: HandoverEnv,
    params: net.PolicyParameters,
    noise: np.ndarray,
    env_seeds: list,
) -> tuple[list[vtrace.TrajectorySegment], list["EpisodeRecord"]]:
    """Sampled episodes under ``params`` as the behavior policy, stepped together.

    Episode ``e`` starts from seed key ``env_seeds[e]`` and samples with the
    Gumbel noise ``noise[e]`` (N, J, K).  Returns one segment and one record
    per episode.
    """
    cfg = env.config
    episodes, length, j = len(env_seeds), cfg.horizon, cfg.num_ues
    observations = np.empty((episodes, length + 1, observation_size(cfg)))
    actions = np.empty((episodes, length, j), dtype=np.int64)
    logprobs = np.empty((episodes, length, j))
    rewards = np.empty((episodes, length))
    masks = np.empty((episodes, length, j))

    obs = env.reset(episodes=env_seeds)
    slots = []
    for n in range(length):
        observations[:, n] = obs
        accessed = env.state.accessed
        masks[:, n] = ~accessed
        act, logp = dho_decide(params, obs, noise[:, n], "sample", accessed)
        obs, outcome = env.step(act)
        actions[:, n] = act
        logprobs[:, n] = logp
        rewards[:, n] = outcome.reward
        slots.append(outcome)
    observations[:, length] = obs
    columns = stack_outcomes(slots)

    segments, records = [], []
    for e in range(episodes):
        segments.append(
            vtrace.TrajectorySegment(
                observations=observations[e],
                actions=actions[e],
                behavior_logprobs=logprobs[e],
                rewards=rewards[e],
                masks=masks[e],
                bootstrap_value=0.0,  # episodes terminate at the horizon
            )
        )
        metrics = episode_metrics(EpisodeOutcomes(columns, e), env.state.episode(e))
        records.append(
            EpisodeRecord(
                episode=-1,
                episode_return=metrics.episode_return,
                sum_delay=metrics.sum_delay,
                sum_collision=metrics.sum_collision,
            )
        )
    return segments, records


def train(
    scenario: ScenarioConfig,
    cfg: VtraceConfig,
    episodes: int,
    actors: int | None = None,
    seed: int = 0,
    initial_params: net.PolicyParameters | None = None,
) -> tuple[net.PolicyParameters, list[EpisodeRecord]]:
    """Run the actor-learner loop and return final parameters plus the curve.

    Deterministic for a fixed (scenario, cfg, episodes, actors, seed):
    episode ``d`` belongs to actor ``i = d % actors``, is seeded from
    (seed XOR i, d // actors), and samples with Gumbel noise drawn from
    actor ``i``'s generator in episode order.  The ``ceil(batch_size /
    horizon)`` episodes between two learner updates all act under the same
    published parameters, so they are rolled out together.
    """
    num_actors = cfg.actors_count if actors is None else actors
    obs_dim = observation_size(scenario)
    if initial_params is None:
        params = net.init_params(
            obs_dim,
            scenario.num_ues,
            scenario.num_planes,
            hidden=cfg.hidden,
            rng=np.random.default_rng([seed, 2**16]),
        )
    else:
        params = initial_params.copy()

    optimizer = Adam(params)
    env = HandoverEnv(scenario)
    actor_rngs = [np.random.default_rng([seed, i, 1]) for i in range(num_actors)]
    noise_shape = (scenario.horizon, scenario.num_ues, scenario.num_planes)
    published = params.copy()  # what actors download
    rollout_episodes = math.ceil(cfg.batch_size / scenario.horizon)

    curve: list[EpisodeRecord] = []
    done = 0
    while done < episodes:
        batch = range(done, min(done + rollout_episodes, episodes))
        actor_ids = [d % num_actors for d in batch]
        seeds = [(seed ^ i, d // num_actors) for d, i in zip(batch, actor_ids)]
        noise = np.stack([actor_rngs[i].gumbel(size=noise_shape) for i in actor_ids])
        segments, records = rollout_segment(env, published, noise, seeds)
        for d, record in zip(batch, records):
            record.episode = d
        curve += records
        done = batch.stop

        if len(segments) * scenario.horizon >= cfg.batch_size:
            previous = params.copy()
            _, grads = loss_and_gradient(params, segments, cfg)
            optimizer.step(params, grads, cfg.learning_rate)
            # One update of publication lag models the actor-learner queue.
            published = previous if cfg.vtrace_enabled else params.copy()
    return params, curve


CURVE_HEADER = ["episode", "mean_return", "sum_delay", "sum_collision"]


def write_curve_csv(path, records: list[EpisodeRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CURVE_HEADER)
        for r in records:
            writer.writerow(
                [r.episode, f"{r.episode_return:.6f}", f"{r.sum_delay:.6f}", f"{r.sum_collision:.6f}"]
            )


def save_checkpoint(params: net.PolicyParameters, path) -> None:
    """Versioned, lossless parameter snapshot (.npz)."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "obs_dim": params.obs_dim,
        "num_ues": params.num_ues,
        "num_actions": params.num_actions,
        "hidden": list(params.hidden_sizes),
    }
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **params.tensors())


class CheckpointError(RuntimeError):
    pass


def load_checkpoint(path, scenario: ScenarioConfig | None = None) -> net.PolicyParameters:
    """Load a checkpoint, optionally validating it against a scenario."""
    with np.load(path) as data:
        if "meta" not in data:
            raise CheckpointError(f"{path} is not a policy checkpoint")
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {meta.get('version')} unsupported (want {CHECKPOINT_VERSION})"
            )
        params = net.PolicyParameters(
            obs_dim=meta["obs_dim"],
            num_ues=meta["num_ues"],
            num_actions=meta["num_actions"],
            **{name: data[name] for name in net.TENSOR_NAMES},
        )
    if scenario is not None:
        expected = (observation_size(scenario), scenario.num_ues, scenario.num_planes)
        actual = (params.obs_dim, params.num_ues, params.num_actions)
        if expected != actual:
            raise CheckpointError(
                f"checkpoint shape {actual} does not fit scenario {expected} "
                "(obs_dim, num_ues, num_planes)"
            )
    return params
