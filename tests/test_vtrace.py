import numpy as np
import pytest

from leoho import net
from leoho.vtrace import TrajectorySegment, vtrace_from_values, vtrace_targets


def direct_double_sum(rewards, values, bootstrap, log_ratios, gamma, rho_bar, c_bar):
    """Literal evaluation of the k-step target definition, O(L^2)."""
    ratios = np.exp(log_ratios)
    rho = np.minimum(rho_bar, ratios)
    c = np.minimum(c_bar, ratios)
    values_ext = np.append(values, bootstrap)
    deltas = rho * (rewards + gamma * values_ext[1:] - values_ext[:-1])
    length = len(rewards)
    targets = np.empty(length)
    for n in range(length):
        acc = values_ext[n]
        for m in range(n, length):
            weight = gamma ** (m - n) * np.prod(c[n:m])
            acc += weight * deltas[m]
        targets[n] = acc
    v_next = np.append(targets[1:], bootstrap)
    pg_adv = rho * (rewards + gamma * v_next - values_ext[:-1])
    return targets, pg_adv


def random_inputs(rng, length=5):
    rewards = rng.normal(size=length)
    values = rng.normal(size=length)
    bootstrap = float(rng.normal())
    log_ratios = rng.normal(scale=0.7, size=length)
    return rewards, values, bootstrap, log_ratios


def test_recursion_matches_direct_double_sum():
    rng = np.random.default_rng(0)
    for _ in range(100):
        rewards, values, bootstrap, log_ratios = random_inputs(rng)
        gamma = rng.uniform(0.85, 0.99)
        rho_bar = rng.uniform(0.5, 2.0)
        c_bar = rng.uniform(0.2, rho_bar)
        fast, fast_adv, _ = vtrace_from_values(
            rewards, values, bootstrap, log_ratios, gamma, rho_bar, c_bar
        )
        slow, slow_adv = direct_double_sum(
            rewards, values, bootstrap, log_ratios, gamma, rho_bar, c_bar
        )
        assert np.abs(fast - slow).max() < 1e-10
        assert np.abs(fast_adv - slow_adv).max() < 1e-10


def test_on_policy_reduces_to_n_step_returns():
    rng = np.random.default_rng(1)
    for _ in range(20):
        rewards, values, bootstrap, _ = random_inputs(rng, length=6)
        gamma = 0.95
        targets, _, rho = vtrace_from_values(
            rewards, values, bootstrap, np.zeros(6), gamma, 1.0, 1.0
        )
        assert np.array_equal(rho, np.ones(6))
        # v[n] = sum_m gamma^(m-n) r[m] + gamma^(L-n) * bootstrap, exactly.
        for n in range(6):
            n_step = sum(gamma ** (m - n) * rewards[m] for m in range(n, 6))
            n_step += gamma ** (6 - n) * bootstrap
            assert targets[n] == pytest.approx(n_step, abs=1e-12)


def test_zero_truncation_collapses_to_value_function():
    rng = np.random.default_rng(2)
    rewards, values, bootstrap, log_ratios = random_inputs(rng)
    targets, pg_adv, _ = vtrace_from_values(
        rewards, values, bootstrap, log_ratios, 0.9, 0.0, 0.0
    )
    assert np.array_equal(targets, values)
    assert np.array_equal(pg_adv, np.zeros(5))


def test_truncation_never_amplifies_weights():
    rng = np.random.default_rng(3)
    rewards, values, bootstrap, log_ratios = random_inputs(rng)
    _, _, rho_truncated = vtrace_from_values(
        rewards, values, bootstrap, log_ratios, 0.9, 1.0, 1.0
    )
    ratios = np.exp(log_ratios)
    assert np.all(rho_truncated <= ratios + 1e-15)
    assert np.all(rho_truncated <= 1.0 + 1e-15)


def test_untruncated_equals_fully_weighted_target():
    rng = np.random.default_rng(4)
    rewards, values, bootstrap, log_ratios = random_inputs(rng)
    inf_t, _, rho = vtrace_from_values(
        rewards, values, bootstrap, log_ratios, 0.9, np.inf, np.inf
    )
    assert np.allclose(rho, np.exp(log_ratios))
    slow, _ = direct_double_sum(rewards, values, bootstrap, log_ratios, 0.9, np.inf, np.inf)
    assert np.abs(inf_t - slow).max() < 1e-10


def test_non_finite_ratio_rejected():
    with pytest.raises(ValueError):
        vtrace_from_values(np.zeros(3), np.zeros(3), 0.0, np.array([0.0, 1e4, 0.0]), 0.9)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        vtrace_from_values(np.zeros(3), np.zeros(4), 0.0, np.zeros(3), 0.9)


def make_segment(rng, params, length=5):
    obs_dim, j = params.obs_dim, params.num_ues
    observations = rng.uniform(0, 1, size=(length, obs_dim))
    actions = rng.integers(0, params.num_actions, size=(length, j))
    masks = (rng.uniform(size=(length, j)) > 0.2).astype(float)
    behavior = net.init_params(obs_dim, j, params.num_actions, hidden=(8, 8), rng=rng)
    logits, _ = net.forward_batch(behavior, observations)
    logprobs = net.head_log_probs(logits, actions) * masks
    rewards = rng.normal(size=length)
    return TrajectorySegment(
        observations=observations,
        actions=actions,
        behavior_logprobs=logprobs,
        rewards=rewards,
        masks=masks,
        bootstrap_value=float(rng.normal()),
    )


def test_segment_validation():
    with pytest.raises(ValueError):
        TrajectorySegment(
            observations=np.zeros((6, 3)),  # needs 5 rows for 5 steps, no final state
            actions=np.zeros((5, 2), int),
            behavior_logprobs=np.zeros((5, 2)),
            rewards=np.zeros(5),
            masks=np.ones((5, 2)),
        )
    with pytest.raises(ValueError):
        TrajectorySegment(
            observations=np.zeros((5, 3)),
            actions=np.zeros((5, 2), int),
            behavior_logprobs=np.full((5, 2), np.nan),
            rewards=np.zeros(5),
            masks=np.ones((5, 2)),
        )


def test_segment_stack_on_a_leading_episode_axis():
    episodes, length = 3, 5

    def stack(observation_rows=length, action_episodes=episodes):
        return TrajectorySegment(
            observations=np.zeros((episodes, observation_rows, 4)),
            actions=np.zeros((action_episodes, length, 2), int),
            behavior_logprobs=np.zeros((episodes, length, 2)),
            rewards=np.zeros((episodes, length)),
            masks=np.ones((episodes, length, 2)),
        )

    with pytest.raises(ValueError):
        stack(observation_rows=length + 1)  # a final state
    with pytest.raises(ValueError):
        stack(action_episodes=episodes - 1)
    segments = stack()
    segments[1].rewards[2] = 7.0
    segments[1:][0].masks[0, 1] = 0.0
    assert segments.rewards[1, 2] == 7.0 and segments.masks[1, 0, 1] == 0.0
    assert [len(segment) for segment in segments] == [length] * episodes
    assert len(segments[:2]) == 2


def policy_pass(params, segment):
    """The current policy's values and per-head log pi of the recorded actions."""
    logits, values = net.forward_batch(params, segment.observations)
    return values, net.head_log_probs(logits, segment.actions)


def test_vtrace_targets_composes_network_and_recursion():
    rng = np.random.default_rng(5)
    params = net.init_params(4, 2, 3, hidden=(8, 8), rng=rng)
    segment = make_segment(rng, params)
    values, target_logp = policy_pass(params, segment)
    targets, pg_adv = vtrace_targets(segment, values, target_logp, gamma=0.9)
    # The joint log-ratio, head by head, over the heads that chose.
    log_ratios = np.zeros(len(segment))
    for n, j in zip(*np.nonzero(segment.masks)):
        log_ratios[n] += target_logp[n, j] - segment.behavior_logprobs[n, j]
    expected, expected_adv, _ = vtrace_from_values(
        segment.rewards, values, segment.bootstrap_value, log_ratios, 0.9, 1.0, 1.0
    )
    assert np.array_equal(targets, expected)
    assert np.array_equal(pg_adv, expected_adv)


def test_vtrace_disabled_forces_unit_ratios():
    rng = np.random.default_rng(6)
    params = net.init_params(4, 2, 3, hidden=(8, 8), rng=rng)
    segment = make_segment(rng, params)
    values, target_logp = policy_pass(params, segment)
    targets, _ = vtrace_targets(segment, values, target_logp, gamma=0.9, vtrace_enabled=False)
    expected, _, _ = vtrace_from_values(
        segment.rewards, values, segment.bootstrap_value, np.zeros(5), 0.9, 1.0, 1.0
    )
    assert np.array_equal(targets, expected)


def test_masked_heads_do_not_contribute_to_ratios():
    rng = np.random.default_rng(7)
    params = net.init_params(4, 3, 3, hidden=(8, 8), rng=rng)
    segment = make_segment(rng, params, length=4)
    segment.masks[:, 1] = 0.0
    values, target_logp = policy_pass(params, segment)
    bumped = segment.behavior_logprobs.copy()
    bumped[:, 1] += 100.0  # garbage on a masked head must be ignored
    other = TrajectorySegment(
        observations=segment.observations,
        actions=segment.actions,
        behavior_logprobs=bumped,
        rewards=segment.rewards,
        masks=segment.masks,
        bootstrap_value=segment.bootstrap_value,
    )
    got = vtrace_targets(other, values, target_logp, gamma=0.9)
    for a, b in zip(vtrace_targets(segment, values, target_logp, gamma=0.9), got):
        assert np.array_equal(a, b)
