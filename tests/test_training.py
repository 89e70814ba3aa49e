import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leoho import net, training
from leoho.agents import dho_decide, dho_log_probs
from leoho.env import (
    MAX_CHUNK_CELLS,
    ConfigError,
    EpisodeOutcomes,
    FeatureMask,
    HandoverEnv,
    OutcomeColumns,
    ScenarioConfig,
    batch_episodes,
    episode_metrics,
    observation_size,
)
from leoho.experiments import (
    ABLATION_MASKS,
    DESK_TRAINING,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
    scenario_for_case,
    write_curve_csv,
)
from leoho.training import (
    Adam,
    VtraceConfig,
    loss_and_gradient,
    loss_and_gradient_with_targets,
    rollout_segment,
    train,
)
from leoho.vtrace import TrajectorySegment, vtrace_targets


def make_segments(rng, params, count=3, length=4):
    """A stack of ``count`` random episodes, drawn one episode at a time."""
    episodes = []
    behavior = net.init_params(
        params.obs_dim, params.num_ues, params.num_actions, hidden=(8, 8), rng=rng
    )
    for _ in range(count):
        observations = rng.uniform(0, 1, size=(length, params.obs_dim))
        actions = rng.integers(0, params.num_actions, size=(length, params.num_ues))
        masks = (rng.uniform(size=(length, params.num_ues)) > 0.25).astype(float)
        logits, _ = net.forward_batch(behavior, observations)
        logprobs = net.head_log_probs(logits, actions) * masks
        episodes.append((observations, actions, logprobs, rng.normal(size=length), masks))
    return TrajectorySegment(*map(np.stack, zip(*episodes)), bootstrap_value=0.0)


def policy_pass(params, segments):
    """The current policy's values ([S,] L) and log pi ([S,] L, J) of the recorded actions."""
    logits, values = net.forward_batch(params, segments.observations.reshape(-1, params.obs_dim))
    logits = logits.reshape(segments.actions.shape + (params.num_actions,))
    return values.reshape(segments.rewards.shape), net.head_log_probs(logits, segments.actions)


def flat_targets(params, segments, cfg):
    """The batch's V-trace targets and advantages, one per transition, as the learner reads them."""
    targets, advantages = vtrace_targets(
        segments, *policy_pass(params, segments), cfg.gamma, cfg.rho_bar, cfg.c_bar, cfg.vtrace_enabled
    )
    return targets.ravel(), advantages.ravel()


def finite_difference_check(params, segments, cfg, h=1e-5, tolerance=1e-4):
    """Central differences of the fixed-target loss against analytic grads."""
    targets, advantages = flat_targets(params, segments, cfg)
    # The analytic gradients live in their own buffers, which the probes' passes leave alone.
    buffers, probe = (training.LearnerBuffers.allocate(params, segments.rewards.size) for _ in range(2))
    _, grads = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, buffers)
    worst = 0.0
    for name, tensor in params.tensors().items():
        flat = tensor.ravel()
        grad_flat = grads[name].ravel()
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + h
            up = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, probe)[0].total
            flat[idx] = original - h
            down = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, probe)[0].total
            flat[idx] = original
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(grad_flat[idx]), 1e-6)
            worst = max(worst, abs(numeric - grad_flat[idx]) / denom)
    assert worst < tolerance, f"worst relative gradient error {worst:.3e}"
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=rng)
    segments = make_segments(rng, params)
    cfg = VtraceConfig(gamma=0.95, entropy_coeff=0.013, baseline_coeff=0.6, hidden=(8, 8))
    finite_difference_check(params, segments, cfg)


def test_gradients_match_with_vtrace_disabled():
    rng = np.random.default_rng(1)
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=rng)
    segments = make_segments(rng, params, count=2)
    cfg = VtraceConfig(vtrace_enabled=False, hidden=(8, 8))
    finite_difference_check(params, segments, cfg)


def test_uniform_policy_entropy_is_j_log_k():
    params = net.zero_params(5, 4, 3, hidden=(8, 8))
    rng = np.random.default_rng(2)
    segments = make_segments(rng, params, count=1, length=6)
    segments[0].masks[:] = 1.0
    cfg = VtraceConfig(hidden=(8, 8))
    report, _ = loss_and_gradient(
        params, segments, cfg, training.LearnerBuffers.allocate(params, segments.rewards.size)
    )
    assert report.entropy == pytest.approx(6 * 4 * np.log(3), abs=1e-9)


def test_zero_advantages_zero_policy_gradient():
    params = net.zero_params(5, 2, 3, hidden=(8, 8))
    rng = np.random.default_rng(3)
    segments = make_segments(rng, params, count=1)
    targets, _ = flat_targets(params, segments, VtraceConfig(hidden=(8, 8)))
    cfg = VtraceConfig(entropy_coeff=0.0, baseline_coeff=0.0, hidden=(8, 8))
    report, grads = loss_and_gradient_with_targets(
        params,
        segments,
        targets,
        np.zeros_like(targets),
        cfg,
        training.LearnerBuffers.allocate(params, segments.rewards.size),
    )
    assert report.policy == 0.0
    for g in grads.values():
        assert np.allclose(g, 0.0)


def test_vtrace_config_validation():
    with pytest.raises(ConfigError) as err:
        VtraceConfig(gamma=1.0)
    assert err.value.field == "gamma"
    with pytest.raises(ConfigError):
        VtraceConfig(rho_bar=0.5, c_bar=1.0)
    with pytest.raises(ConfigError):
        VtraceConfig(batch_size=0)
    bad = [
        dict(c_bar=-2.0),
        dict(rho_bar=-1.0, c_bar=-2.0),
        dict(entropy_coeff=float("nan")),
        dict(learning_rate=float("inf")),
        dict(rho_bar=float("nan")),
        dict(c_bar=float("nan")),
        dict(c_bar=-float("inf")),
        dict(rho_bar=-float("inf"), c_bar=0.0),
        dict(hidden=(8,)),
        dict(hidden=(0, 8)),
        dict(hidden=(8, 8.0)),
        dict(hidden=[8, 8]),
    ]
    for kw in bad:
        with pytest.raises(ConfigError):
            VtraceConfig(**kw)
    # Untruncated importance weights stay valid.
    VtraceConfig(rho_bar=float("inf"))
    VtraceConfig(rho_bar=float("inf"), c_bar=float("inf"))


def test_policy_heads_are_bounded_before_training():
    wide = ScenarioConfig(num_ues=2**15 + 1, num_planes=2, rb_per_target=1, horizon=1)
    with pytest.raises(ConfigError) as err:
        train(wide, VtraceConfig(hidden=(8, 8)), episodes=1)
    assert err.value.field == "num_ues"
    training.check_policy_heads(ScenarioConfig(num_ues=2**15, num_planes=2, rb_per_target=1, horizon=1))


def test_training_sizes_are_bounded_before_training():
    def field(scenario, cfg, episodes):
        with pytest.raises(ConfigError) as err:
            training.check_training(scenario, cfg, episodes)
        return err.value.field

    one = ScenarioConfig(num_ues=1, num_planes=2, rb_per_target=1, horizon=1)
    # Each weight matrix, here the first layer's, holds at most MAX_CHUNK_CELLS.
    width = MAX_CHUNK_CELLS // observation_size(one)
    training.check_training(one, VtraceConfig(hidden=(width, 1), batch_size=1), episodes=1)
    assert field(one, VtraceConfig(hidden=(width + 1, 1), batch_size=1), 1) == "hidden"
    assert field(one, VtraceConfig(hidden=(8, 10**30)), 1) == "hidden"
    with pytest.raises(ConfigError):
        train(one, VtraceConfig(hidden=(width + 1, 1), batch_size=1), episodes=1)
    # A learner batch's widest layer: 32 transitions at 2^20 wide fit, 33 do not.
    wide = VtraceConfig(hidden=(8, 2**20), batch_size=33)
    training.check_training(one, wide, episodes=32)
    assert field(one, wide, 33) == "batch_size"
    # A rollout pass holds 1 + lag learner batches, but never more episodes
    # than the run trains.
    cfg = VtraceConfig(hidden=(8, 8), batch_size=10**18)
    fit = MAX_CHUNK_CELLS // one.episode_cells
    training.check_training(one, cfg, episodes=fit)
    assert field(one, cfg, fit + 1) == "batch_size"
    big = VtraceConfig(hidden=(8, 8), batch_size=fit // 2 + 1)
    assert field(one, big, 10**6) == "batch_size"
    training.check_training(one, VtraceConfig(hidden=(8, 8), batch_size=fit // 2), episodes=10**6)
    # An episode's observations can outgrow its blocks: here 10 x 61 against 300.
    a3 = ScenarioConfig(
        num_ues=10,
        rb_per_target=10,
        horizon=10,
        measurement_period_s=0.3,
        features=FeatureMask(a3_centralized=True),
    )
    assert a3.episode_cells == 300 and observation_size(a3) == 61
    fit = MAX_CHUNK_CELLS // (10 * 61)
    training.check_training(a3, cfg, episodes=fit)
    assert field(a3, cfg, fit + 1) == "batch_size"


def test_evaluation_chunk_width_is_bounded():
    one = ScenarioConfig(num_ues=1, num_planes=2, rb_per_target=1, horizon=1)
    width = MAX_CHUNK_CELLS // batch_episodes(one)
    training.check_evaluation(one, (width, 1))
    training.check_evaluation(one, (8, width))
    for hidden in ((width + 1, 1), (8, width + 1)):
        with pytest.raises(ConfigError) as err:
            training.check_evaluation(one, hidden)
        assert err.value.field == "hidden"


def test_stacked_targets_match_per_segment_vtrace():
    rng = np.random.default_rng(4)
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=rng)
    segments = make_segments(rng, params, count=4, length=6)
    for enabled in (True, False):
        cfg = VtraceConfig(gamma=0.9, rho_bar=1.2, c_bar=0.8, vtrace_enabled=enabled, hidden=(8, 8))
        targets, advantages = flat_targets(params, segments, cfg)
        for s, segment in enumerate(segments):
            expected = vtrace_targets(
                segment, *policy_pass(params, segment), 0.9, 1.2, 0.8, vtrace_enabled=enabled
            )
            rows = slice(6 * s, 6 * (s + 1))
            assert np.allclose(targets[rows], expected[0], rtol=0.0, atol=1e-12)
            assert np.allclose(advantages[rows], expected[1], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("vtrace_enabled", [True, False])
def test_learner_update_uses_vtrace_targets(vtrace_enabled):
    # The learner's own pass feeds vtrace_targets: its loss and gradient are
    # the fixed-target ones at the targets of that function, bit for bit.
    rng = np.random.default_rng(8)
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=rng)
    segments = make_segments(rng, params, count=3, length=5)
    cfg = VtraceConfig(gamma=0.9, rho_bar=1.2, c_bar=0.8, vtrace_enabled=vtrace_enabled, hidden=(8, 8))
    buffers, fixed = (training.LearnerBuffers.allocate(params, segments.rewards.size) for _ in range(2))
    report, grads = loss_and_gradient(params, segments, cfg, buffers)
    targets, advantages = flat_targets(params, segments, cfg)
    want_report, want = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, fixed)
    assert report == want_report
    for name in net.TENSOR_NAMES:
        assert grads[name].tobytes() == want[name].tobytes(), name


def test_adam_is_deterministic():
    params_a = net.init_params(4, 1, 2, hidden=(4, 4), rng=np.random.default_rng(5))
    params_b = params_a.copy()
    grads = {k: np.full_like(v, 0.3) for k, v in params_a.tensors().items()}
    opt_a, opt_b = Adam(params_a), Adam(params_b)
    for _ in range(5):
        opt_a.step(params_a, grads, 1e-3)
        opt_b.step(params_b, grads, 1e-3)
    for name in net.TENSOR_NAMES:
        assert np.array_equal(getattr(params_a, name), getattr(params_b, name))


def reference_adam_step(adam, params, grads, lr):
    """Adam.step as the plain expression, on ``adam``'s moments."""
    adam.t += 1
    bias1 = 1.0 - adam.beta1**adam.t
    bias2 = 1.0 - adam.beta2**adam.t
    for name, tensor in params.tensors().items():
        g = grads[name]
        m = adam.m[name]
        v = adam.v[name]
        m *= adam.beta1
        m += (1.0 - adam.beta1) * g
        v *= adam.beta2
        v += (1.0 - adam.beta2) * g * g
        tensor -= lr * (m / bias1) / (np.sqrt(v / bias2) + adam.eps)


def reference_learner_update(params, segments, cfg):
    """One learner update's loss and gradient as plain formulas, a new array per expression.

    The forward pass, the V-trace targets, the three-term loss and the
    backward pass keep no buffer, so no state carried between updates can
    reach their results.  For K < 8 the per-head max and sum equal the
    learner's plane loops bit for bit.
    """
    obs = segments.observations.reshape(-1, params.obs_dim)
    h1 = np.tanh(obs @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    logits = (h2 @ params.w_pi + params.b_pi).reshape(len(obs), params.num_ues, params.num_actions)
    values = h2 @ params.w_v + params.b_v[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    total = exps.sum(axis=-1, keepdims=True)
    probs = exps / total
    logp = shifted - np.log(total)
    actions = segments.actions.reshape(-1, params.num_ues)
    masks = segments.masks.reshape(actions.shape)
    chosen = np.take_along_axis(logp, actions[..., None], axis=-1)[..., 0]
    targets, advantages = vtrace_targets(
        segments,
        values.reshape(segments.rewards.shape),
        chosen.reshape(segments.actions.shape),
        cfg.gamma,
        cfg.rho_bar,
        cfg.c_bar,
        cfg.vtrace_enabled,
    )
    targets, advantages = targets.ravel(), advantages.ravel()

    entropies = -(probs * logp).sum(axis=-1)
    policy = -float((advantages * (chosen * masks).sum(axis=1)).sum())
    value_error = values - targets
    baseline = 0.5 * float((value_error**2).sum())
    entropy = float((entropies * masks).sum())
    report = training.LossReport(
        policy=policy,
        baseline=baseline,
        entropy=entropy,
        total=policy + cfg.baseline_coeff * baseline - cfg.entropy_coeff * entropy,
    )
    onehot = actions[..., None] == np.arange(params.num_actions)
    dlogits = (
        (onehot - probs) * -advantages[:, None, None]
        + (logp + entropies[..., None]) * (probs * cfg.entropy_coeff)
    ) * masks[..., None]
    dvalues = cfg.baseline_coeff * value_error

    dlogits = dlogits.reshape(len(obs), -1)
    grads = {
        "w_pi": h2.T @ dlogits,
        "b_pi": dlogits.sum(axis=0),
        "w_v": h2.T @ dvalues,
        "b_v": np.array([dvalues.sum()]),
    }
    dz2 = (dlogits @ params.w_pi.T + dvalues[:, None] * params.w_v[None, :]) * (1.0 - h2**2)
    grads["w2"] = h1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dz1 = (dz2 @ params.w2.T) * (1.0 - h1**2)
    grads["w1"] = obs.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return report, grads


def report_bits(report):
    return [value.hex() for value in dataclasses.astuple(report)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    obs_dim=st.integers(1, 12),
    hidden=st.tuples(st.integers(1, 20), st.integers(1, 20)),
    num_ues=st.integers(1, 5),
    num_actions=st.integers(2, 7),
    scale=st.floats(1e-8, 1e3),
    lr=st.floats(1e-6, 0.5),
    steps=st.integers(1, 6),
)
def test_adam_step_matches_plain_formula_bit_for_bit(
    seed, obs_dim, hidden, num_ues, num_actions, scale, lr, steps
):
    rng = np.random.default_rng(seed)
    params = net.init_params(obs_dim, num_ues, num_actions, hidden=hidden, rng=rng)
    reference = params.copy()
    adam, oracle = Adam(params), Adam(reference)
    for _ in range(steps):
        grads = {}
        for name, tensor in params.tensors().items():
            g = rng.normal(scale=scale, size=tensor.shape)
            g[rng.random(tensor.shape) < 0.2] = 0.0  # pinned heads give exact zeros
            grads[name] = g
        adam.step(params, grads, lr)
        reference_adam_step(oracle, reference, grads, lr)
        for name in net.TENSOR_NAMES:
            assert getattr(params, name).tobytes() == getattr(reference, name).tobytes(), name
            assert adam.m[name].tobytes() == oracle.m[name].tobytes(), name
            assert adam.v[name].tobytes() == oracle.v[name].tobytes(), name


@pytest.mark.parametrize("vtrace_enabled", [True, False], ids=["vtrace", "no_vtrace"])
@pytest.mark.parametrize("hidden", [(1, 1), (16, 16)])
@pytest.mark.parametrize("episodes", [4, 1], ids=["batch", "one_episode"])
def test_kept_buffers_match_the_allocating_reference_learner(vtrace_enabled, hidden, episodes):
    # Consecutive updates through one set of kept buffers give the bits of
    # the allocating formulas: losses, gradients and the updated parameters.
    rng = np.random.default_rng(13)
    params = net.init_params(7, 3, 3, hidden=hidden, rng=rng)
    reference = params.copy()
    cfg = VtraceConfig(
        gamma=0.9,
        rho_bar=1.2,
        c_bar=0.8,
        entropy_coeff=0.02,
        baseline_coeff=0.7,
        vtrace_enabled=vtrace_enabled,
        hidden=hidden,
    )
    adam, oracle = Adam(params), Adam(reference)
    buffers = training.LearnerBuffers.allocate(params, episodes * 5)
    for _ in range(4):
        segments = make_segments(rng, params, count=episodes, length=5)
        report, grads = loss_and_gradient(params, segments, cfg, buffers)
        want_report, want = reference_learner_update(reference, segments, cfg)
        assert report_bits(report) == report_bits(want_report)
        for name in net.TENSOR_NAMES:
            assert grads[name] is buffers.trunk.grads[name], name
            assert grads[name].tobytes() == want[name].tobytes(), name
        adam.step(params, grads, 0.05)
        reference_adam_step(oracle, reference, want, 0.05)
        for name in net.TENSOR_NAMES:
            assert getattr(params, name).tobytes() == getattr(reference, name).tobytes(), name


def tiny_scenario():
    return ScenarioConfig(
        num_ues=3, num_planes=3, rb_per_target=(3, 3), num_preambles=15, horizon=5
    )


def tiny_training(**kw):
    defaults = dict(batch_size=30, actors_count=1, hidden=(16, 16), learning_rate=1e-3)
    defaults.update(kw)
    return VtraceConfig(**defaults)


def test_train_smoke_and_curve_length(tmp_path):
    params, curve = train(tiny_scenario(), tiny_training(), episodes=12, seed=0)
    assert len(curve) == 12
    write_curve_csv(tmp_path / "curve.csv", curve)
    rows = (tmp_path / "curve.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(d) for d in range(12)]
    assert all(np.isfinite(r.episode_return) for r in curve)
    # Returns bounded by the worst case -N * (nu + c_max).
    assert all(-5 * (1 + 3) <= r.episode_return <= 0 for r in curve)
    assert params.obs_dim == observation_size(tiny_scenario())


def test_train_single_actor_deterministic():
    a = train(tiny_scenario(), tiny_training(), episodes=10, seed=7)
    b = train(tiny_scenario(), tiny_training(), episodes=10, seed=7)
    assert [r.episode_return for r in a[1]] == [r.episode_return for r in b[1]]
    for name in net.TENSOR_NAMES:
        assert np.array_equal(getattr(a[0], name), getattr(b[0], name))


def test_train_multi_actor_deterministic():
    cfg = tiny_training(actors_count=3)
    a = train(tiny_scenario(), cfg, episodes=9, seed=3)
    b = train(tiny_scenario(), cfg, episodes=9, seed=3)
    assert [r.episode_return for r in a[1]] == [r.episode_return for r in b[1]]


def test_train_with_vtrace_disabled_runs():
    _, curve = train(tiny_scenario(), tiny_training(vtrace_enabled=False), episodes=8, seed=1)
    assert len(curve) == 8


def segment_blocks(env, noise):
    """Fresh (observations, log-probs) blocks for a rollout of ``noise``'s episodes."""
    cfg = env.config
    return np.empty((len(noise), cfg.horizon, observation_size(cfg))), np.empty(noise.shape[:-1])


def serial_train(scenario, cfg, episodes, actors, seed):
    """The reference loop: one learner batch per rollout, under the published parameters.

    Its updates are the allocating reference learner and Adam's plain formula.
    """
    params = net.init_params(
        observation_size(scenario),
        scenario.num_ues,
        scenario.num_planes,
        hidden=cfg.hidden,
        rng=np.random.default_rng([seed, 2**16]),
    )
    optimizer = Adam(params)
    env = HandoverEnv(scenario)
    rngs = [np.random.default_rng([seed, i, 1]) for i in range(actors)]
    shape = (scenario.horizon, scenario.num_ues, scenario.num_planes)
    per_batch = math.ceil(cfg.batch_size / scenario.horizon)
    published = params.copy()
    curve = []
    for start in range(0, episodes, per_batch):
        batch = range(start, min(start + per_batch, episodes))
        noise = np.stack([rngs[d % actors].gumbel(size=shape) for d in batch])
        seeds = [(seed ^ (d % actors), d // actors) for d in batch]
        segments, records = rollout_segment(env, published, noise, seeds, segment_blocks(env, noise))
        curve += records
        if len(batch) == per_batch:
            previous = params.copy()
            _, grads = reference_learner_update(params, segments, cfg)
            reference_adam_step(optimizer, params, grads, cfg.learning_rate)
            published = previous if cfg.vtrace_enabled else params.copy()
    return params, curve


@pytest.mark.parametrize("vtrace_enabled", [True, False])
@pytest.mark.parametrize("actors", [1, 3])
@pytest.mark.parametrize(
    "episodes",
    [
        0,
        4,  # fewer than one batch of 6
        30,  # five batches: the last pass holds one
        32,  # a partial batch rolled out beside a full one
        26,  # a partial batch alone in the last pass
    ],
)
def test_pipelined_train_matches_serial_reference(vtrace_enabled, actors, episodes):
    scenario = tiny_scenario()
    # Batches of six episodes, and of one (batch_size <= horizon), so the
    # stacked decision also runs one row per group.
    for batch_size in (30, 5):
        cfg = tiny_training(
            vtrace_enabled=vtrace_enabled, actors_count=actors, batch_size=batch_size
        )
        params, curve = train(scenario, cfg, episodes=episodes, seed=5)
        ref_params, ref_curve = serial_train(scenario, cfg, episodes, actors, seed=5)
        for name in net.TENSOR_NAMES:
            assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes(), name
        assert curve == ref_curve


def test_published_snapshot_is_apart_from_the_learners_set():
    # With V-trace a run whose first pass holds one batch still keeps two
    # parameter sets: the trailing partial pass acts under the parameters
    # from before the update, while the learner's set moves on.  At this
    # learning rate the update changes decisions, so a published snapshot
    # that aliased the learner's set would give another curve.
    scenario = tiny_scenario()
    cfg = tiny_training(batch_size=10 * scenario.horizon, learning_rate=0.5)
    params, curve = train(scenario, cfg, episodes=15, seed=5)
    ref_params, ref_curve = serial_train(scenario, cfg, 15, 1, seed=5)
    for name in net.TENSOR_NAMES:
        assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes(), name
    assert curve == ref_curve


@pytest.mark.parametrize("vtrace_enabled", [True, False], ids=["vtrace", "no_vtrace"])
@pytest.mark.parametrize("hidden", [(1, 1), (16, 16)])
def test_repeated_train_calls_match_the_reference_learner(vtrace_enabled, hidden):
    # Each train() call keeps its learner buffers for its own run only:
    # every call after the first in this process still gives the reference
    # bits, at batches of six episodes and of one (batch_size <= horizon).
    scenario = tiny_scenario()
    for batch_size in (30, 5):
        cfg = tiny_training(vtrace_enabled=vtrace_enabled, batch_size=batch_size, hidden=hidden)
        for seed in (9, 10):
            params, curve = train(scenario, cfg, episodes=20, seed=seed)
            ref_params, ref_curve = serial_train(scenario, cfg, 20, 1, seed=seed)
            for name in net.TENSOR_NAMES:
                assert getattr(params, name).tobytes() == getattr(ref_params, name).tobytes(), name
            assert curve == ref_curve


def test_learner_updates_allocate_no_new_arrays(monkeypatch):
    # train() allocates its learner buffers once, so past the first update
    # an update's traced memory rises by less than one activation block.
    scenario = scenario_for_case("case1")
    rises = []
    inner = training.loss_and_gradient

    def traced(*args):
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = inner(*args)
        rises.append(tracemalloc.get_traced_memory()[1] - held)
        return result

    monkeypatch.setattr(training, "loss_and_gradient", traced)
    tracemalloc.start()
    try:
        train(scenario, DESK_TRAINING, episodes=60, seed=0)
    finally:
        tracemalloc.stop()
    rows = DESK_TRAINING.batch_episodes(scenario.horizon) * scenario.horizon
    block = rows * max(DESK_TRAINING.hidden) * np.dtype(float).itemsize  # 200 KiB
    assert len(rises) == 6
    assert max(rises[1:]) < block, rises


def test_rollout_passes_allocate_no_new_blocks(monkeypatch):
    # train() allocates its pass blocks once, so past the first pass a
    # pass's traced memory, from its first call (taking the stack's groups
    # it decides under) to the end of its rollout, rises by less than one
    # (E, N, J, K) noise block beyond the outcome columns it records.  At
    # case1's ratios and J = 30 the rest (the head masks and small per-slot
    # arrays) is about half a block.
    scenario = dataclasses.replace(
        scenario_for_case("case1"), num_ues=30, rb_per_target=(15, 15), num_preambles=150
    )
    held, rises, recorded = [], [], []
    first, rollout, play = net.StackedPolicy.first, training.rollout_segment, training.play

    def stacked(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return first(*args, **kwargs)

    def played(*args, **kwargs):
        columns, finals = play(*args, **kwargs)
        recorded.append(sum(column.nbytes for column in columns.values()))
        return columns, finals

    def traced(*args, **kwargs):
        result = rollout(*args, **kwargs)
        rises.append(tracemalloc.get_traced_memory()[1] - held[-1] - recorded[-1])
        return result

    monkeypatch.setattr(net.StackedPolicy, "first", stacked)
    monkeypatch.setattr(training, "play", played)
    monkeypatch.setattr(training, "rollout_segment", traced)
    tracemalloc.start()
    try:
        train(scenario, DESK_TRAINING, episodes=60, seed=0)
    finally:
        tracemalloc.stop()
    episodes = (1 + DESK_TRAINING.lag) * DESK_TRAINING.batch_episodes(scenario.horizon)
    cells = episodes * scenario.horizon * scenario.num_ues * scenario.num_planes
    block = cells * np.dtype(float).itemsize  # 281 KiB
    assert len(rises) == 3
    assert max(rises[1:]) < block, rises


# The second pass's traced peak in the run below, measured when the learner
# kept its parameters in a set of its own beside the stack, and its heads'
# probabilities, logit gradient and action copy in arrays of their own
# (Python 3.11, numpy 2.4).
SEPARATE_LEARNER_ARRAYS_PEAK = 5_566_548


def test_rollout_passes_share_the_learners_arrays(monkeypatch):
    # The learner's parameters live in the pass's stack and its (rows, J, K)
    # head buffers in the spent noise block, so a later pass's traced peak,
    # from its first call to the next pass's, sits at least one parameter
    # set and one such block below the peak with separate arrays.  The run
    # is test_rollout_passes_allocate_no_new_blocks' (J = 30, V-trace, two
    # batches a pass, where the block hosts both head buffers).
    scenario = dataclasses.replace(
        scenario_for_case("case1"), num_ues=30, rb_per_target=(15, 15), num_preambles=150
    )
    peaks, first = [], net.StackedPolicy.first

    def marked(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return first(*args, **kwargs)

    monkeypatch.setattr(net.StackedPolicy, "first", marked)
    tracemalloc.start()
    try:
        params, _ = train(scenario, DESK_TRAINING, episodes=60, seed=0)
    finally:
        tracemalloc.stop()
    rows = DESK_TRAINING.batch_episodes(scenario.horizon) * scenario.horizon
    block = rows * scenario.num_ues * scenario.num_planes * np.dtype(float).itemsize  # 144 KB
    parameter_set = sum(tensor.nbytes for tensor in params.tensors().values())  # 351 KB
    assert len(peaks) == 3
    assert peaks[2] <= SEPARATE_LEARNER_ARRAYS_PEAK - parameter_set - block, peaks


def learner_arrays(buffers):
    """Every array of a :class:`LearnerBuffers` set, its trunk's included."""
    for value in vars(buffers).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, net.TrunkBuffers):
            yield from learner_arrays(value)
        elif isinstance(value, tuple):
            yield from value
        elif isinstance(value, dict):
            yield from value.values()


@pytest.mark.parametrize("vtrace_enabled", [True, False], ids=["vtrace", "no_vtrace"])
def test_learner_reads_the_pass_observations_in_place(vtrace_enabled, monkeypatch):
    # A learner batch's observation rows are one run of the pass's
    # (E, N, obs_dim) block, so the learner's forward pass (the one given
    # buffers; decisions run through net.forward without) and the trunk the
    # backward pass reads view the block, and the learner's set holds no
    # (rows, obs_dim) copy.  With V-trace a pass holds two batches, each
    # its own run of the block.
    scenario, cfg = tiny_scenario(), tiny_training(vtrace_enabled=vtrace_enabled)
    rows, obs_dim = cfg.batch_size, observation_size(scenario)
    assert obs_dim not in cfg.hidden  # so no activation is (rows, obs_dim)
    blocks, learners, forwards, backwards = [], [], [], []
    allocate_blocks, allocate_learner = training.PassBlocks.allocate, training.LearnerBuffers.allocate
    forward_batch, backward_trunk = net.forward_batch, net.backward_trunk

    def kept_blocks(*args, **kwargs):
        blocks.append(allocate_blocks(*args, **kwargs))
        return blocks[-1]

    def kept_learner(*args, **kwargs):
        learners.append(allocate_learner(*args, **kwargs))
        assert learners[-1].trunk.inputs is None
        assert all(array.shape != (rows, obs_dim) for array in learner_arrays(learners[-1]))
        return learners[-1]

    def forward(params, obs, *args, out=None, **kwargs):
        if out is not None:
            forwards.append(obs)
        return forward_batch(params, obs, *args, out=out, **kwargs)

    def backward(params, trunk, *args):
        backwards.append(trunk.inputs)
        return backward_trunk(params, trunk, *args)

    monkeypatch.setattr(training.PassBlocks, "allocate", kept_blocks)
    monkeypatch.setattr(training.LearnerBuffers, "allocate", kept_learner)
    monkeypatch.setattr(net, "forward_batch", forward)
    monkeypatch.setattr(net, "backward_trunk", backward)
    train(scenario, cfg, episodes=30, seed=2)
    assert len(blocks) == len(learners) == 1 and len(forwards) == len(backwards) == 5
    block = blocks[0].observations
    assert block.shape[1:] == (scenario.horizon, obs_dim)
    runs = set()
    for obs, inputs in zip(forwards, backwards):
        assert inputs is obs and obs.shape == (rows, obs_dim)
        assert np.shares_memory(obs, block)
        runs.add((obs.ctypes.data - block.ctypes.data) // obs.nbytes)
    assert runs == ({0, 1} if vtrace_enabled else {0})


@pytest.mark.parametrize("vtrace_enabled", [True, False], ids=["vtrace", "no_vtrace"])
@pytest.mark.parametrize("blocks", [(3, 3), (1, 1)], ids=["settles", "never_settles"])
def test_pass_blocks_are_written_before_they_are_read(vtrace_enabled, blocks, monkeypatch, tmp_path):
    # A run whose kept pass blocks start as NaN writes the same curve and
    # checkpoint, so no pass reads a cell of them before writing it.  Six
    # blocks in all settle before the horizon and two never do; 32 episodes
    # in batches of six end on a partial batch.
    scenario = dataclasses.replace(tiny_scenario(), horizon=8, rb_per_target=blocks)
    cfg = tiny_training(vtrace_enabled=vtrace_enabled, batch_size=48, actors_count=3)
    allocate = training.PassBlocks.allocate

    def poisoned(*args, **kwargs):
        kept = allocate(*args, **kwargs)
        stacked = [getattr(kept.stack, name) for name in net.TENSOR_NAMES]
        for array in (kept.noise, kept.observations, kept.log_probs, *stacked):
            array.fill(np.nan)
        return kept

    written = []
    for run in ("plain", "poisoned"):
        if run == "poisoned":
            monkeypatch.setattr(training.PassBlocks, "allocate", poisoned)
        params, curve = train(scenario, cfg, episodes=32, seed=6)
        write_curve_csv(tmp_path / f"{run}.csv", curve)
        save_checkpoint(params, tmp_path / f"{run}.npz")
        written.append([(tmp_path / f"{run}.{suffix}").read_bytes() for suffix in ("csv", "npz")])
    assert written[0] == written[1]


def test_idle_actors_build_no_generator():
    # Only the actors that act build a generator, so a run with 10**12
    # actors returns at once; each of its episodes has an actor of its own,
    # as with one actor per episode, and the runs match bit for bit.
    scenario = tiny_scenario()
    for vtrace_enabled in (True, False):
        (params, curve), (want, want_curve) = (
            train(scenario, tiny_training(actors_count=actors, vtrace_enabled=vtrace_enabled), 7, seed=4)
            for actors in (10**12, 7)
        )
        for name in net.TENSOR_NAMES:
            assert getattr(params, name).tobytes() == getattr(want, name).tobytes(), name
        assert curve == want_curve


@pytest.mark.parametrize("vtrace_enabled", [True, False])
def test_rollout_decides_once_per_slot(vtrace_enabled, monkeypatch):
    scenario = tiny_scenario()
    events = []

    def counted(*args, **kwargs):
        events.append(args[0])
        return dho_decide(*args, **kwargs)

    def reset(self, *args, inner=HandoverEnv.reset, **kwargs):
        events.append("reset")
        return inner(self, *args, **kwargs)

    def retire(self, settled, *args, inner=HandoverEnv.retire, **kwargs):
        # A pass ends only as a whole: it retires every episode at once.
        assert settled.all()
        events.append(("retire", self.state.slot))
        return inner(self, settled, *args, **kwargs)

    monkeypatch.setattr(training, "dho_decide", counted)
    monkeypatch.setattr(HandoverEnv, "reset", reset)
    monkeypatch.setattr(HandoverEnv, "retire", retire)
    # 30 episodes in batches of six: passes of two batches with V-trace (the
    # last holds one), and of one without.
    train(scenario, tiny_training(vtrace_enabled=vtrace_enabled), episodes=30, seed=1)
    passes = []
    for event in events:
        if event == "reset":
            passes.append([])
        else:
            passes[-1].append(event)
    assert len(passes) == (3 if vtrace_enabled else 5)
    settled = 0
    for rollout in passes:
        # One decision per slot until every terminal has access, then none.
        *decisions, last = rollout
        if isinstance(last, tuple):
            assert last == ("retire", len(decisions)) and len(decisions) < scenario.horizon
            settled += 1
        else:
            assert len(rollout) == scenario.horizon
        if vtrace_enabled:
            assert all(isinstance(policy, net.StackedPolicy) for policy in decisions)
    assert settled  # some pass settles before its horizon


def stepped_rollout(env, policy, noise, env_seeds):
    """The reference rollout: it decides and steps every slot up to the horizon."""
    cfg = env.config
    episodes, length, j = len(env_seeds), cfg.horizon, cfg.num_ues
    observations = np.empty((episodes, length, observation_size(cfg)))
    actions = np.empty((episodes, length, j), dtype=np.int64)
    logits = np.empty((episodes, length, j, cfg.num_planes))
    pinned = np.empty((episodes, length, j), dtype=bool)
    rewards = np.empty((episodes, length))
    obs = env.reset(episodes=env_seeds)
    columns = OutcomeColumns(cfg, episodes)
    for n in range(length):
        observations[:, n] = obs
        pinned[:, n] = env.state.accessed
        actions[:, n], logits[:, n] = dho_decide(policy, obs, noise[:, n], "sample", pinned[:, n])
        obs, outcome = env.step(actions[:, n])
        rewards[:, n] = outcome.reward
        columns.append(outcome)
    segment = TrajectorySegment(
        observations=observations,
        actions=actions,
        behavior_logprobs=dho_log_probs(logits, actions, pinned),
        rewards=rewards,
        masks=(~pinned).astype(float),
        bootstrap_value=0.0,
    )
    records = [episode_metrics(EpisodeOutcomes(columns, e), env.state.episode(e)) for e in range(episodes)]
    return segment, records


def record_bits(records):
    return np.array([dataclasses.astuple(r) for r in records]).tobytes()


@pytest.mark.parametrize("mask", ["full_local", "centralized"])
@pytest.mark.parametrize("vtrace_enabled", [True, False], ids=["vtrace", "no_vtrace"])
@pytest.mark.parametrize(
    "blocks, settles", [((3, 3), True), ((1, 1), False)], ids=["settles", "never_settles"]
)
def test_rollout_matches_the_slot_by_slot_reference(mask, vtrace_enabled, blocks, settles, monkeypatch):
    # Three terminals and two blocks in all never settle; six blocks do,
    # before the horizon.
    scenario = dataclasses.replace(
        tiny_scenario(), horizon=8, rb_per_target=blocks, features=ABLATION_MASKS[mask]
    )
    shape = (scenario.horizon, scenario.num_ues, scenario.num_planes)
    noise = np.random.default_rng(11).gumbel(size=(6,) + shape)
    seeds = [(4, e) for e in range(6)]
    policies = [
        net.init_params(observation_size(scenario), 3, 3, hidden=(8, 8), rng=np.random.default_rng(s))
        for s in (5, 6)
    ]
    # With V-trace a pass decides under two snapshots, without under one.
    policy = net.stack_params(policies if vtrace_enabled else policies[:1])
    settled = []

    def retire(self, rows, *args, inner=HandoverEnv.retire, **kwargs):
        # A pass ends only as a whole: it retires every episode at once.
        assert rows.all()
        settled.append(self.state.slot)
        return inner(self, rows, *args, **kwargs)

    monkeypatch.setattr(HandoverEnv, "retire", retire)
    # The rollout uses its noise up, and the reference reads the same noise.
    env = HandoverEnv(scenario)
    segment, records = rollout_segment(env, policy, noise.copy(), seeds, segment_blocks(env, noise))
    want, want_records = stepped_rollout(HandoverEnv(scenario), policy, noise, seeds)
    assert len(settled) == (1 if settles else 0)
    for field in ("observations", "actions", "behavior_logprobs", "rewards", "masks"):
        got, expected = getattr(segment, field), getattr(want, field)
        assert got.dtype == expected.dtype and got.shape == expected.shape, field
        assert got.tobytes() == expected.tobytes(), field
    assert segment.bootstrap_value == want.bootstrap_value
    assert record_bits(records) == record_bits(want_records)


def test_rollout_groups_act_under_their_own_parameters():
    scenario = tiny_scenario()
    env = HandoverEnv(scenario)
    shape = (scenario.horizon, scenario.num_ues, scenario.num_planes)
    noise = np.random.default_rng(0).gumbel(size=(5,) + shape)
    seeds = [(0, e) for e in range(5)]
    a, b = (
        net.init_params(observation_size(scenario), 3, 3, hidden=(8, 8), rng=np.random.default_rng(s))
        for s in (1, 2)
    )
    # A stack of equal groups decides in one call, with each set's bits.
    # A rollout uses its noise up, and the groups apart read the same noise.
    stacked, _ = rollout_segment(
        env, net.stack_params([a, b]), noise[1:].copy(), seeds[1:], segment_blocks(env, noise[1:])
    )
    apart = [
        rollout_segment(env, a, noise[1:3], seeds[1:3], segment_blocks(env, noise[1:3]))[0],
        rollout_segment(env, b, noise[3:], seeds[3:], segment_blocks(env, noise[3:]))[0],
    ]
    for field in ("observations", "actions", "behavior_logprobs", "rewards", "masks"):
        want = np.concatenate([getattr(segment, field) for segment in apart])
        assert getattr(stacked, field).tobytes() == want.tobytes(), field


def test_rollout_pinned_heads_report_action_zero_with_log_prob_zero():
    scenario = tiny_scenario()
    env = HandoverEnv(scenario)
    shape = (scenario.horizon, scenario.num_ues, scenario.num_planes)
    noise = np.random.default_rng(6).gumbel(size=(8,) + shape)
    policies = [
        net.init_params(observation_size(scenario), 3, 3, hidden=(8, 8), rng=np.random.default_rng(s))
        for s in (3, 4)
    ]
    seeds = [(2, e) for e in range(8)]
    segments, _ = rollout_segment(env, net.stack_params(policies), noise, seeds, segment_blocks(env, noise))
    for g, policy in enumerate(policies):
        for segment in segments[4 * g : 4 * (g + 1)]:
            pinned = segment.masks == 0.0
            assert pinned.any() and not pinned.all()
            assert not segment.actions[pinned].any()
            assert not segment.behavior_logprobs[pinned].any()
            logits = net.forward(policy, segment.observations)
            free = net.head_log_probs(logits, segment.actions)[~pinned]
            assert np.allclose(segment.behavior_logprobs[~pinned], free, rtol=0.0, atol=1e-12)


def test_curve_csv_schema(tmp_path):
    _, curve = train(tiny_scenario(), tiny_training(), episodes=4, seed=2)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,mean_return,sum_delay,sum_collision"
    assert len(lines) == 5


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    params = net.init_params(41, 10, 3, rng=np.random.default_rng(9))
    path = tmp_path / "ck.npz"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    obs = np.random.default_rng(1).uniform(0, 1, (1, 41))
    logits_a, values_a = net.forward_batch(params, obs)
    logits_b, values_b = net.forward_batch(loaded, obs)
    assert np.array_equal(logits_a, logits_b) and np.array_equal(values_a, values_b)
    for name in net.TENSOR_NAMES:
        assert np.array_equal(getattr(params, name), getattr(loaded, name))


def test_checkpoint_scenario_mismatch(tmp_path):
    params = net.init_params(41, 10, 3, rng=np.random.default_rng(9))
    path = tmp_path / "ck.npz"
    save_checkpoint(params, path)
    wrong_j = ScenarioConfig(num_ues=9, rb_per_target=(9, 9))
    with pytest.raises(CheckpointError):
        load_checkpoint(path, [wrong_j])
    load_checkpoint(path, [ScenarioConfig()])  # matching scenario passes


def test_checkpoint_rejects_foreign_files(tmp_path):
    def meta(value):
        return np.frombuffer(json.dumps(value).encode(), dtype=np.uint8)

    keys = {"version": 1, "obs_dim": 5, "num_ues": 2, "num_actions": 3, "hidden": [4, 4]}
    foreign = [
        dict(stuff=np.arange(3)),
        dict(meta=meta([1])),
        dict(meta=meta({"version": 1})),  # no shapes
        dict(meta=meta(keys), w1=np.zeros((5, 4))),  # one tensor of eight
    ]
    for g, arrays in enumerate(foreign):
        path = tmp_path / f"junk{g}.npz"
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_zero_checkpoint_reproduces_uniform_frequencies(tmp_path):
    params = net.zero_params(5, 1, 3, hidden=(4, 4))
    path = tmp_path / "zero.npz"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    rng = np.random.default_rng(0)
    counts = np.zeros(3)
    for _ in range(9000):
        a, _ = dho_decide(loaded, np.zeros(5), rng.gumbel(size=(1, 3)))
        counts[a[0]] += 1
    assert np.all(np.abs(counts / 9000 - 1 / 3) < 0.02)
