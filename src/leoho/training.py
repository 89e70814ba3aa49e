"""Actor-learner training loop with V-trace off-policy correction.

Actors roll out whole episodes with a snapshot of the learner parameters as
their behavior policy; the learner consumes batches of recorded segments and
applies one adaptive-moment update per batch, from one forward pass over
it.  The serial loop emulates the asynchronous architecture's queue delay by
publishing parameters to actors one update late, so importance ratios are
genuinely off-policy.  With ``vtrace_enabled=False`` actors always see the
freshest parameters and the ratios are forced to one, which is the
on-policy actor-critic variant.

Under that lag the learner's current parameters are already the behavior
policy of the batch after the one being rolled out, so with V-trace two
batches are stepped together in one lockstep pass, each under its own
snapshot, and their updates follow in order.  Without V-trace each batch
needs the update before it, so a pass holds one batch.  A pass holds only
equal batches, so a trailing partial batch beside a full one gets a pass
of its own.

A pass is one chunk of :func:`env.play`, decided under one
:class:`net.StackedPolicy` of its batches' snapshots, so a slot's decision
is one forward pass, a matmul over (G, rows, ...).  It ends only as a
whole: once every terminal of every episode has access, the remaining
slots pin every head to action 0 and are retired without a decision.  The
pass writes each decided slot's logits over that slot's Gumbel noise,
takes the behavior log-probabilities of the whole rollout in place over
them after its last slot, and gives the learner one stacked segment, which
each update slices into its batch.

Every array of a run has one home, shared between rollout and learner
where their lifetimes do not overlap:

- A :class:`PassBlocks` set holds what a pass writes: the stack of
  weights it decides under, the noise (then the logits), the observations
  and the behavior log-probabilities.  :func:`train` allocates it at its
  first pass, which is its largest, and keeps it until it returns.
- The stack always holds ``1 + lag`` groups, and the learner's parameters
  live in the last, where Adam updates them in place.  With V-trace the
  first group is the snapshot actors download: before a pass's last
  update the learner's group is copied into it, and the next pass reads
  it there.  Without V-trace the one group is the learner's own set, and
  nothing is copied.  :func:`train` returns a copy of the learner's group.
- The learner has one path, and every array of an update has one name in
  one :class:`LearnerBuffers` set: the heads' probabilities and logit
  gradient, the loss terms, and its :class:`net.TrunkBuffers` part, which
  holds the observation rows, the activations, the logits (then the
  log-probabilities), the values, the backward pass and the gradients.
  :func:`train` allocates the set at its first update and keeps it until
  it returns, so an update makes no new arrays beyond small per-head and
  per-segment ones, and its speed does not depend on what the allocator
  did with memory freed before it.
- The probabilities and the logit gradient, (rows, J, K) each, live in
  the pass's noise block as far as its cells hold them: both once a pass
  holds two batches, the probabilities alone with one.  That block is
  spent once the behavior log-probabilities are taken, and the next pass
  draws its noise only after the updates.
- The learner reads the pass's recorded actions, rewards and masks in
  place.  The V-trace targets take their masked log-probabilities in two
  of the set's buffers whose arrays are not built yet.  Where a per-head
  term broadcasts over the K planes, the update runs one plane at a time
  (see :mod:`net`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from leoho import net, vtrace
from leoho.agents import dho_decide, dho_log_probs
from leoho.env import (
    MAX_CHUNK_CELLS,
    ConfigError,
    EpisodeOutcomes,
    HandoverEnv,
    MetricsRecord,
    ScenarioConfig,
    batch_episodes,
    episode_metrics,
    observation_size,
    play,
    reject_non_finite,
)

DEFAULT_HIDDEN = (128, 128)

# The learned policy has one head per (terminal, plane), and its input and
# output layers grow with J * K; wider, it and its optimiser state would not
# fit in memory.  The baseline agents build no policy and have no such bound.
MAX_POLICY_HEADS = 2**16


def check_policy_heads(scenario: ScenarioConfig) -> None:
    """ConfigError if a policy for the scenario would pass :data:`MAX_POLICY_HEADS`."""
    heads = scenario.num_ues * scenario.num_planes
    if heads > MAX_POLICY_HEADS:
        raise ConfigError(
            "num_ues", f"the learned policy needs J * K at most {MAX_POLICY_HEADS}, got {heads}"
        )


def _layer_widths(scenario: ScenarioConfig, hidden: tuple[int, int]) -> tuple[int, int, int, int]:
    """The policy's layer widths: observation, the two hidden layers, heads."""
    return (observation_size(scenario), *hidden, scenario.num_ues * scenario.num_planes)


def check_training(scenario: ScenarioConfig, cfg: VtraceConfig, episodes: int) -> None:
    """ConfigError if training would allocate a block the engine cannot hold.

    Checked before any allocation: the policy's heads, each of its weight
    matrices, a rollout pass's blocks (its episodes times the larger of
    ``scenario.episode_cells``, an episode's observations and the widest
    layer) and a learner batch's widest activations (its transitions times
    the widest layer) must each stay within :data:`MAX_CHUNK_CELLS` cells.
    """
    check_policy_heads(scenario)
    widths = _layer_widths(scenario, cfg.hidden)
    matrix = max(a * b for a, b in zip(widths, widths[1:]))
    if matrix > MAX_CHUNK_CELLS:
        raise ConfigError(
            "hidden", f"each weight matrix must hold at most {MAX_CHUNK_CELLS} cells, got {matrix}"
        )
    per_batch = cfg.batch_episodes(scenario.horizon)
    per_episode = max(scenario.episode_cells, (scenario.horizon + 1) * widths[0], max(widths))
    cells = min((1 + cfg.lag) * per_batch, episodes) * per_episode
    if cells > MAX_CHUNK_CELLS:
        raise ConfigError(
            "batch_size",
            f"a rollout pass's blocks must hold at most {MAX_CHUNK_CELLS} cells, got {cells}; "
            "lower the batch size or the scenario's counts",
        )
    cells = min(per_batch, episodes) * scenario.horizon * max(widths)
    if cells > MAX_CHUNK_CELLS:
        raise ConfigError(
            "batch_size",
            f"a learner batch's widest layer must hold at most {MAX_CHUNK_CELLS} cells, got {cells}; "
            "lower the batch size or the hidden widths",
        )


def check_evaluation(scenario: ScenarioConfig, hidden: tuple[int, int]) -> None:
    """ConfigError if a dho evaluation chunk's forward pass would pass :data:`MAX_CHUNK_CELLS`.

    The chunk's episodes (:func:`env.batch_episodes`) times the widest layer.
    """
    cells = batch_episodes(scenario) * max(_layer_widths(scenario, hidden))
    if cells > MAX_CHUNK_CELLS:
        raise ConfigError(
            "hidden",
            f"an evaluation chunk's widest layer must hold at most {MAX_CHUNK_CELLS} cells, got {cells}",
        )


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
        # Untruncated importance weights (rho_bar = c_bar = inf) are valid V-trace.
        reject_non_finite(self, unbounded=("rho_bar", "c_bar"))
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError("gamma", "must lie in [0, 1)")
        if self.c_bar < 0:
            raise ConfigError("c_bar", "truncation levels must be non-negative")
        if self.rho_bar < self.c_bar:
            raise ConfigError("rho_bar", "truncation levels must satisfy rho_bar >= c_bar")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate", "must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size", "must be at least one transition")
        if self.actors_count < 1:
            raise ConfigError("actors_count", "must be at least 1")
        hidden = self.hidden
        if not (
            isinstance(hidden, tuple)
            and len(hidden) == 2
            and all(isinstance(h, int) and not isinstance(h, bool) and h >= 1 for h in hidden)
        ):
            raise ConfigError("hidden", f"must be two positive layer widths, got {hidden!r}")

    @property
    def lag(self) -> int:
        """Updates the actors act behind the learner: one with V-trace, none without."""
        return 1 if self.vtrace_enabled else 0

    def batch_episodes(self, horizon: int) -> int:
        """Episodes of one learner batch, ``ceil(batch_size / horizon)``."""
        return math.ceil(self.batch_size / horizon)


@dataclass
class LossReport:
    policy: float
    baseline: float
    entropy: float
    total: float


@dataclass
class LearnerBuffers:
    """Every array a learner update writes, for batches of ``rows`` transitions.

    :func:`train` allocates one set at its first update and each update
    overwrites the one before, so updates make no new arrays.  A buffer
    serves each array that is live at a time; the comments name what else
    a buffer holds while that array is not yet or no longer live.  The
    batch's actions are read where the rollout recorded them.  ``probs``
    and ``dlogits`` may view a ``host`` block (see :meth:`allocate`) that
    is free whenever an update runs; the rest are arrays of their own.
    """

    trunk: net.TrunkBuffers  # observations, activations, logits then log-probs, values, gradients
    probs: np.ndarray  # (rows, J, K)
    chosen_logp: np.ndarray  # (rows, J); then its masked loss terms
    entropies: np.ndarray  # (rows, J); first the softmax's per-head max and sum, then masked log pi
    dlogits: np.ndarray  # (rows, J, K); first masked log mu, then probs * logp, then the one-hot
    value_error: np.ndarray  # (rows,); then the value gradient
    per_row: np.ndarray  # (rows,) loss-term scratch

    @classmethod
    def allocate(
        cls, params: net.PolicyParameters, rows: int, host: np.ndarray | None = None
    ) -> "LearnerBuffers":
        """A set for ``rows`` transitions.

        ``probs``, then ``dlogits``, view consecutive cells of ``host``, a
        contiguous float block, as far as its cells hold them.
        """
        heads = (rows, params.num_ues)
        planes = heads + (params.num_actions,)
        cells = math.prod(planes)
        free = np.empty(0) if host is None else host.reshape(-1)
        probs, dlogits = (
            free[i * cells : (i + 1) * cells].reshape(planes)
            if (i + 1) * cells <= free.size
            else np.empty(planes)
            for i in range(2)
        )
        return cls(
            trunk=net.TrunkBuffers.allocate(params, rows),
            probs=probs,
            chosen_logp=np.empty(heads),
            entropies=np.empty(heads),
            dlogits=dlogits,
            value_error=np.empty(rows),
            per_row=np.empty(rows),
        )


def _forward(
    params: net.PolicyParameters, segments: vtrace.TrajectorySegment, buffers: LearnerBuffers
) -> None:
    """The pass over a stack of segments, its (S, L, ...) arrays read as (S * L, ...) rows.

    It leaves the values in ``buffers.trunk.values``, the log-probabilities
    in ``buffers.trunk.logits`` (over the logits, which nothing reads after
    them), the probabilities in ``buffers.probs`` and log pi of the actions
    taken in ``buffers.chosen_logp``.
    """
    trunk = buffers.trunk
    observations = segments.observations[:, :-1]
    np.copyto(trunk.inputs.reshape(observations.shape), observations)
    logits, _ = net.forward_batch(params, trunk.inputs, out=trunk)
    net.softmax_and_log_softmax(
        logits, out=(buffers.probs, logits), per_head=buffers.entropies[..., None]
    )
    actions = segments.actions.reshape(buffers.chosen_logp.shape)
    net.pick(logits, actions, out=buffers.chosen_logp)


def _loss_and_gradient(
    params: net.PolicyParameters,
    segments: vtrace.TrajectorySegment,
    targets: np.ndarray,
    advantages: np.ndarray,
    cfg: VtraceConfig,
    buffers: LearnerBuffers,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """The loss and gradient of the pass :func:`_forward` left in ``buffers``, which this uses up."""
    trunk, probs = buffers.trunk, buffers.probs
    actions = segments.actions.reshape(buffers.chosen_logp.shape)
    logp = trunk.logits.reshape(probs.shape)
    masks = segments.masks.reshape(actions.shape)
    # The product goes in dlogits' buffer, which is free until dlogits is built.
    entropies = net.head_sum(np.multiply(probs, logp, out=buffers.dlogits), out=buffers.entropies)
    np.negative(entropies, out=entropies)  # (B, J)

    # Each loss term is reduced in a buffer whose array is dead by then.
    chosen = buffers.chosen_logp
    chosen *= masks
    per_row = np.sum(chosen, axis=1, out=buffers.per_row)
    per_row *= advantages
    policy_loss = -float(per_row.sum())
    value_error = np.subtract(trunk.values, targets, out=buffers.value_error)
    baseline_loss = 0.5 * float(np.square(value_error, out=buffers.per_row).sum())
    entropy_total = float(np.multiply(entropies, masks, out=chosen).sum())
    total = (
        policy_loss + cfg.baseline_coeff * baseline_loss - cfg.entropy_coeff * entropy_total
    )
    if not np.isfinite(total):
        raise FloatingPointError("non-finite training loss")

    # d(total)/dlogits = -A (onehot - p) + c p (log p + H), built in place
    # in the pass's buffers, a per-head term one plane at a time; pinned
    # heads contribute nothing to any term.
    dlogits = net.one_hot(actions, out=buffers.dlogits)
    dlogits -= probs
    negated = np.negative(advantages, out=buffers.per_row)
    net.broadcast_planes(np.multiply, dlogits, negated[:, None])
    probs *= cfg.entropy_coeff
    net.broadcast_planes(np.add, logp, entropies)
    logp *= probs
    dlogits += logp
    net.broadcast_planes(np.multiply, dlogits, masks)
    dvalues = np.multiply(value_error, cfg.baseline_coeff, out=value_error)

    grads = net.backward_trunk(params, trunk, dlogits, dvalues)
    report = LossReport(
        policy=policy_loss, baseline=baseline_loss, entropy=entropy_total, total=total
    )
    return report, grads


def loss_and_gradient_with_targets(
    params: net.PolicyParameters,
    segments: vtrace.TrajectorySegment,
    targets: np.ndarray,
    advantages: np.ndarray,
    cfg: VtraceConfig,
    buffers: LearnerBuffers,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """Three-term loss and its exact gradient, targets held constant.

    total = policy + baseline_coeff * baseline - entropy_coeff * entropy.
    The targets/advantages are stop-gradients: they are recomputed from the
    current parameters before every update but not differentiated through.
    The pass writes into ``buffers``, and the gradients returned live there
    until the next pass over them.
    """
    _forward(params, segments, buffers)
    return _loss_and_gradient(params, segments, targets, advantages, cfg, buffers)


def loss_and_gradient(
    params: net.PolicyParameters,
    segments: vtrace.TrajectorySegment,
    cfg: VtraceConfig,
    buffers: LearnerBuffers,
) -> tuple[LossReport, dict[str, np.ndarray]]:
    """The loss and its gradient, from one forward pass over the batch.

    The pass writes into ``buffers``, and the gradients returned live
    there.  Its values and log pi of the recorded actions feed
    :func:`vtrace.vtrace_targets`, looked up on the module, where the
    benchmark's tracer patches it.
    """
    _forward(params, segments, buffers)
    heads = segments.actions.shape
    # The masked log pi and log mu go in buffers whose arrays are not built yet.
    scratch = (
        buffers.entropies.reshape(heads),
        buffers.dlogits.reshape(-1)[: buffers.entropies.size].reshape(heads),
    )
    targets, advantages = vtrace.vtrace_targets(
        segments,
        buffers.trunk.values.reshape(segments.rewards.shape),
        buffers.chosen_logp.reshape(heads),
        cfg.gamma,
        cfg.rho_bar,
        cfg.c_bar,
        cfg.vtrace_enabled,
        scratch=scratch,
    )
    return _loss_and_gradient(params, segments, targets.ravel(), advantages.ravel(), cfg, buffers)


class Adam:
    """Adaptive-moment optimizer over a parameter set, updated in place."""

    def __init__(self, params: net.PolicyParameters, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        self.v = {k: np.zeros_like(v) for k, v in params.tensors().items()}
        # Two scratch buffers as large as the largest tensor, kept for every step.
        size = max(v.size for v in params.tensors().values())
        self.scratch = np.empty(size), np.empty(size)

    def step(self, params: net.PolicyParameters, grads: dict[str, np.ndarray], lr: float) -> None:
        """``tensor -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``, in two scratch buffers.

        Every operation is the plain formula's, in its order, so the bits
        are the same.
        """
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for name, tensor in params.tensors().items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            step, denom = (buf[: g.size].reshape(g.shape) for buf in self.scratch)
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=step)
            m += step
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=step)
            step *= g
            v += step
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bias1, out=step)
            step *= lr
            step /= denom
            tensor -= step


@dataclass
class PassBlocks:
    """Every block a rollout pass writes, for passes of up to ``episodes`` episodes.

    :func:`train` allocates one set at its first pass, which is its
    largest, and keeps it until it returns; each pass overwrites its first
    E episodes' rows and decides under its stack's first G groups.  The
    stack's last group is the learner's parameters and its first the
    snapshot actors download, one and the same set without V-trace.  Once
    the behavior log-probabilities are taken the noise block is spent, and
    the learner's head buffers live in it until the next pass draws its
    noise (see :class:`LearnerBuffers`).
    """

    stack: net.StackedPolicy  # (1 + lag, ...) the published snapshot, then the learner's set
    noise: np.ndarray  # (E, N, J, K) Gumbel noise, then the logits, then the learner's heads
    observations: np.ndarray  # (E, N + 1, obs_dim)
    log_probs: np.ndarray  # (E, N, J) behavior log-probabilities

    @classmethod
    def allocate(
        cls, params: net.PolicyParameters, horizon: int, episodes: int, groups: int
    ) -> "PassBlocks":
        """Unwritten blocks, with a stack of ``groups`` sets shaped like ``params``."""
        heads = (episodes, horizon, params.num_ues)
        return cls(
            stack=net.StackedPolicy.allocate(params, groups),
            noise=np.empty(heads + (params.num_actions,)),
            observations=np.empty((episodes, horizon + 1, params.obs_dim)),
            log_probs=np.empty(heads),
        )


class _Behavior:
    """A rollout pass's decider: this module's ``dho_decide``, sampling with the noise given.

    It uses the noise up: once a slot is decided, its logits overwrite its
    noise, so one (E, N, J, K) block ends holding the logits of every
    decided slot.  It keeps each slot's pinned (accessed) heads.  The slots
    left when the pass settles keep their noise and their start value,
    pinned (a pinned head's log-prob is 0 whatever its logits).
    """

    def __init__(self, policy: net.PolicyParameters | net.StackedPolicy, noise: np.ndarray):
        self.policy = policy
        self.noise = noise  # (E, N, J, K)

    def begin_episode(self, env: HandoverEnv, rngs) -> None:
        self.pinned = np.ones(self.noise.shape[:-1], dtype=bool)

    def act(self, env: HandoverEnv, observation: np.ndarray) -> np.ndarray:
        n, accessed = env.state.slot, env.state.accessed
        self.pinned[:, n] = accessed
        noise = self.noise[:, n]
        actions, noise[...] = dho_decide(self.policy, observation, noise, "sample", accessed)
        return actions

    def retire(self, settled: np.ndarray) -> None:
        """Nothing to drop: a pass retires every episode at once."""


def rollout_segment(
    env: HandoverEnv,
    policy: net.PolicyParameters | net.StackedPolicy,
    noise: np.ndarray,
    env_seeds: list,
    out: tuple[np.ndarray, np.ndarray],
) -> tuple[vtrace.TrajectorySegment, list[MetricsRecord]]:
    """Sampled episodes, stepped together under one behavior policy.

    A :class:`net.StackedPolicy` of G parameter sets splits the episodes
    into G equal runs in order, each under its own set.  Episode ``e``
    starts from seed key ``env_seeds[e]`` and samples with the Gumbel noise
    ``noise[e]`` (N, J, K), which the pass uses up: each decided slot's
    logits overwrite its noise, and the behavior log-probabilities are
    taken in place over them, in one pass over the whole rollout.  The
    episodes are one chunk of :func:`env.play`, given an observation
    buffer, so it ends as a whole, and its outcome columns hold the actions
    (the requests, equal under the pin) and the rewards.  ``out`` is an
    (observations, log-probs) pair of (E, N + 1, obs_dim) and (E, N, J)
    blocks for the segment's observations and behavior log-probabilities.
    Returns one stacked segment, which views them, and each episode's
    metrics.
    """
    observations, log_probs = out
    behavior = _Behavior(policy, noise)
    columns, finals = play(env, env_seeds, behavior, observations=observations)
    actions = columns["requested"]
    segment = vtrace.TrajectorySegment(
        observations=observations,
        actions=actions,
        behavior_logprobs=dho_log_probs(noise, actions, behavior.pinned, out=log_probs),
        rewards=columns["reward"],
        masks=(~behavior.pinned).astype(float),
        bootstrap_value=0.0,  # episodes terminate at the horizon
    )
    records = [episode_metrics(EpisodeOutcomes(columns, e), final) for e, final in enumerate(finals)]
    return segment, records


def train(
    scenario: ScenarioConfig,
    cfg: VtraceConfig,
    episodes: int,
    seed: int = 0,
) -> tuple[net.PolicyParameters, list[MetricsRecord]]:
    """Run the actor-learner loop and return a copy of the final parameters, plus the curve.

    The curve is every episode's :class:`MetricsRecord`, in episode order.

    Deterministic for a fixed (scenario, cfg, episodes, seed): with
    ``actors = cfg.actors_count``, episode ``d`` belongs to actor
    ``i = d % actors``, is seeded from (seed XOR i, d // actors), and
    samples with Gumbel noise drawn from actor ``i``'s generator in episode
    order.  A learner batch is the ``ceil(batch_size / horizon)`` episodes
    between two updates, and a trailing partial batch is rolled out but not
    learned from.

    Actors act ``lag`` updates behind the learner: one with V-trace, none
    without.  While batch k is rolled out under the published parameters,
    the learner's own parameters are therefore already batch k + lag's
    behavior policy, so up to ``1 + lag`` batches are rolled out in one
    lockstep pass under one stack of their snapshots, and their updates
    follow in order.  A pass holds only equal batches, so a trailing
    partial batch beside full ones gets a pass of its own.  The result is
    the same as rolling out one batch per pass.
    """
    check_training(scenario, cfg, episodes)
    params = net.init_params(
        observation_size(scenario),
        scenario.num_ues,
        scenario.num_planes,
        hidden=cfg.hidden,
        rng=np.random.default_rng([seed, 2**16]),
    )

    optimizer = Adam(params)
    env = HandoverEnv(scenario)
    # Only the first min(actors, episodes) actors act.
    actor_rngs = [
        np.random.default_rng([seed, i, 1]) for i in range(min(cfg.actors_count, episodes))
    ]
    noise_shape = (scenario.horizon, scenario.num_ues, scenario.num_planes)
    per_batch = cfg.batch_episodes(scenario.horizon)
    lag = cfg.lag

    curve: list[MetricsRecord] = []
    blocks: PassBlocks | None = None  # every pass's blocks, kept for the run
    buffers: LearnerBuffers | None = None  # every update's arrays, kept for the run
    done = 0
    while done < episodes:
        count = min((1 + lag) * per_batch, episodes - done)
        if count > per_batch:
            count -= count % per_batch  # only equal batches share a pass
        groups = math.ceil(count / per_batch)
        if blocks is None:  # the first pass is the largest
            blocks = PassBlocks.allocate(params, scenario.horizon, count, 1 + lag)
            # Actors download the initial parameters until the first update.
            for g in range(1 + lag):
                blocks.stack.put(g, params)
            params = blocks.stack.group(lag)  # the learner's set, updated in place
        # The published snapshot decides the first batch and the learner's set the rest.
        stack = blocks.stack.first(groups)
        noise = blocks.noise[:count]
        seeds = []
        for d in range(done, done + count):
            i = d % cfg.actors_count
            noise[d - done] = actor_rngs[i].gumbel(size=noise_shape)
            seeds.append((seed ^ i, d // cfg.actors_count))
        out = blocks.observations[:count], blocks.log_probs[:count]
        segments, records = rollout_segment(env, stack, noise, seeds, out=out)
        curve += records
        done += count

        updates = count // per_batch  # none for a partial batch
        for g in range(updates):
            if buffers is None:  # so a run shorter than one batch allocates none
                rows = per_batch * scenario.horizon
                buffers = LearnerBuffers.allocate(params, rows, host=blocks.noise)
            batch = slice(g * per_batch, (g + 1) * per_batch)
            _, grads = loss_and_gradient(params, segments[batch], cfg, buffers)
            # With one update of publication lag, modelling the actor-learner
            # queue, the next pass's first batch acts under the parameters
            # from before this pass's last update.  The rollout is over, so
            # they go in the stack's first group, where the next pass reads
            # them.  Without lag that group is the learner's own set.
            if lag and g == updates - 1:
                blocks.stack.put(0, params)
            optimizer.step(params, grads, cfg.learning_rate)
        del segments  # free the pass's actions, rewards and masks before the next pass
    return params.copy(), curve
