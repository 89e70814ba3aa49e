from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leoho import agents as agents_module, link, net
from leoho.agents import (
    conventional_decide,
    dho_decide,
    dho_log_probs,
    make_agent,
    random_decide,
)
from leoho.env import (
    EpisodeOutcomes,
    FeatureMask,
    HandoverEnv,
    OutcomeColumns,
    ScenarioConfig,
    episode_metrics,
    observation_size,
)


def measurements_from(l3_rows) -> link.MeasurementState:
    arr = np.array(l3_rows, dtype=float)
    return link.MeasurementState.initialise(arr, beta_l3=0.5)


def fresh_streak(j, targets=2):
    return np.zeros((j, targets), dtype=np.int64)


# --- conventional -----------------------------------------------------------


def test_conventional_waits_when_no_target_clears_offset():
    ms = measurements_from([[-100.0, -99.5, -101.0]] * 3)
    actions, _ = conventional_decide(ms, np.zeros(3, bool), 1.0, fresh_streak(3))
    assert actions.tolist() == [0, 0, 0]


def test_conventional_picks_strongest_eligible_target():
    ms = measurements_from([[-100.0, -95.0, -97.0]])
    actions, _ = conventional_decide(ms, np.zeros(1, bool), 1.0, fresh_streak(1))
    assert actions.tolist() == [1]


def test_conventional_tie_breaks_to_lowest_plane():
    ms = measurements_from([[-100.0, -95.0, -95.0]])
    actions, _ = conventional_decide(ms, np.zeros(1, bool), 1.0, fresh_streak(1))
    assert actions.tolist() == [1]


def test_conventional_masks_accessed_terminals():
    ms = measurements_from([[-100.0, -90.0, -97.0]] * 2)
    actions, _ = conventional_decide(ms, np.array([True, False]), 1.0, fresh_streak(2))
    assert actions.tolist() == [0, 1]


def test_conventional_requires_consecutive_slots():
    ms = measurements_from([[-100.0, -90.0, -120.0]])
    streak = fresh_streak(1)
    actions, streak = conventional_decide(ms, np.zeros(1, bool), 1.0, streak, trigger_slots=2)
    assert actions.tolist() == [0]  # one slot is not enough yet
    actions, streak = conventional_decide(ms, np.zeros(1, bool), 1.0, streak, trigger_slots=2)
    assert actions.tolist() == [1]
    # A miss resets the counter.
    weak = measurements_from([[-100.0, -100.5, -120.0]])
    actions, streak = conventional_decide(weak, np.zeros(1, bool), 1.0, streak, trigger_slots=2)
    assert streak[0, 0] == 0


def test_conventional_invariant_to_common_measurement_shift():
    base = np.array([[-100.0, -95.0, -99.0], [-90.0, -96.0, -85.0]])
    for shift in (0.0, 17.5, -33.0):
        ms = measurements_from(base + shift)
        actions, _ = conventional_decide(ms, np.zeros(2, bool), 1.0, fresh_streak(2))
        assert actions.tolist() == [1, 2]


def test_conventional_compares_streaks_within_int64(monkeypatch):
    # A streak never passes the horizon, so a longer trigger is compared as
    # horizon + 1, a count int64 holds on every numpy.
    seen = []

    def record(measurements, accessed, offset_db, streak, trigger_slots):
        seen.append(trigger_slots)
        return conventional_decide(measurements, accessed, offset_db, streak, trigger_slots)

    monkeypatch.setattr(agents_module, "conventional_decide", record)
    for trigger, expected in ((10**30, 6), (2**63, 6), (6, 6), (5, 5), (1, 1)):
        env = HandoverEnv(ScenarioConfig(num_ues=3, horizon=5, a3_trigger_slots=trigger))
        agent = make_agent("conventional")
        obs = env.reset(episodes=[1, 2])
        agent.begin_episode(env, None)
        agent.act(env, obs)
        assert seen.pop() == expected


def argmax_conventional_decide(measurements, accessed, offset_db, streak, trigger_slots=1):
    """Reference: A3 decisions reduced with ``any`` and ``argmax`` over (..., J, K-1) tensors."""
    flags = measurements.a3_flags(offset_db)
    streak = np.where(flags, streak + 1, 0)
    eligible = streak >= trigger_slots
    any_eligible = eligible.any(axis=-1) & ~accessed
    scores = np.where(eligible, measurements.l3_dbm[..., 1:], -np.inf)
    actions = np.where(any_eligible, scores.argmax(axis=-1) + 1, 0)
    return actions, streak


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    num_ues=st.integers(1, 12),
    planes=st.integers(2, 5),
    trigger=st.integers(1, 3),
    offset_db=st.sampled_from([0.0, 0.5, 1.0]),
    accessed_rate=st.sampled_from([0.0, 0.3, 1.0]),
)
def test_conventional_matches_argmax_reference(seed, lead, num_ues, planes, trigger, offset_db, accessed_rate):
    # Measurements on a half-dB grid, so targets often tie with each other
    # and with the serving plane plus the offset.  Three slots carry the
    # streaks from one decision to the next.
    rng = np.random.default_rng(seed)
    shape = lead + (num_ues,)
    streak = want_streak = rng.integers(0, 4, size=shape + (planes - 1,))
    for _ in range(3):
        ms = measurements_from(-100.0 + 0.5 * rng.integers(-4, 5, size=shape + (planes,)))
        accessed = rng.random(shape) < accessed_rate
        got = conventional_decide(ms, accessed, offset_db, streak, trigger)
        want = argmax_conventional_decide(ms, accessed, offset_db, want_streak, trigger)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()
        streak, want_streak = got[1], want[1]


# --- random -----------------------------------------------------------------


def test_random_uniform_frequencies():
    rng = np.random.default_rng(3)
    draws = 100_000
    accessed = np.zeros((draws, 1), bool)
    actions = random_decide(rng.integers(0, 3, size=accessed.shape), accessed)
    counts = np.bincount(actions[:, 0], minlength=3)
    p_hat = counts / draws
    sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
    assert np.all(np.abs(p_hat - 1 / 3) < 4 * sigma)


def test_random_masks_accessed():
    rng = np.random.default_rng(0)
    actions = random_decide(rng.integers(0, 3, size=10), np.ones(10, bool))
    assert not actions.any()


def test_random_deterministic_under_seed():
    a = random_decide(np.random.default_rng(42).integers(0, 3, size=10), np.zeros(10, bool))
    b = random_decide(np.random.default_rng(42).integers(0, 3, size=10), np.zeros(10, bool))
    assert np.array_equal(a, b)


# --- learned policy -----------------------------------------------------------


def test_dho_zero_net_samples_uniformly():
    params = net.zero_params(obs_dim=4, num_ues=1, num_actions=3, hidden=(8, 8))
    rng = np.random.default_rng(1)
    draws = 30_000
    obs = np.zeros((draws, 4))
    a, _ = dho_decide(params, obs, rng.gumbel(size=(draws, 1, 3)))
    counts = np.bincount(a[:, 0], minlength=3)
    sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
    assert np.all(np.abs(counts / draws - 1 / 3) < 4 * sigma)


def test_dho_greedy_is_deterministic():
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=np.random.default_rng(0))
    obs = np.linspace(0, 1, 5)
    a1, logits1 = dho_decide(params, obs, mode="greedy")
    a2, logits2 = dho_decide(params, obs, mode="greedy")
    assert np.array_equal(a1, a2) and np.array_equal(logits1, logits2)
    assert np.array_equal(a1, logits1.argmax(axis=-1))


def test_dho_joint_log_prob_enumeration():
    # With 2 heads of 3 actions the 9 joint probabilities must sum to one.
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=np.random.default_rng(4))
    obs = np.array([0.1, 0.9, 0.4, 0.2, 0.7])
    logits = net.forward(params, obs)
    total = 0.0
    for a0 in range(3):
        for a1 in range(3):
            lp = net.head_log_probs(logits, np.array([a0, a1]))
            total += np.exp(lp.sum())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_dho_per_head_probabilities_normalise():
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=np.random.default_rng(4))
    logits = net.forward(params, np.zeros(5))
    probs = net.softmax_and_log_softmax(logits)[0]
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_dho_masks_accessed_and_zeroes_their_logprob():
    params = net.init_params(5, 3, 3, hidden=(8, 8), rng=np.random.default_rng(2))
    accessed = np.array([True, False, True])
    noise = np.random.default_rng(0).gumbel(size=(3, 3))
    actions, logits = dho_decide(params, np.zeros(5), noise, accessed=accessed)
    assert actions[0] == 0 and actions[2] == 0
    lp = dho_log_probs(logits, actions, accessed)
    assert lp[0] == 0.0 and lp[2] == 0.0
    assert lp[1] < 0.0
    assert lp[1] == net.head_log_probs(logits, actions)[1]


def test_dho_requires_rng_for_sampling():
    params = net.zero_params(4, 1, 3, hidden=(4, 4))
    with pytest.raises(ValueError):
        dho_decide(params, np.zeros(4), mode="sample")


# --- shared interface ----------------------------------------------------------


def test_no_agent_requests_for_accessed_terminals():
    cfg = ScenarioConfig(num_ues=6, rb_per_target=(6, 6), num_preambles=30)
    env = HandoverEnv(cfg)
    params = net.zero_params(1 + 6 + 18, 6, 3, hidden=(8, 8))
    agents = [
        make_agent("conventional"),
        make_agent("random"),
        make_agent("dho", params=params, mode="sample"),
    ]
    pinned = np.array([0, 2, 4])
    for agent in agents:
        obs = env.reset(episodes=[11])
        agent.begin_episode(env, [np.random.default_rng(5)])
        env.state.accessed[:, pinned] = True
        obs = env.observe()
        for _ in range(3):
            actions = agent.act(env, obs)
            assert not actions[:, pinned].any()
            obs, _ = env.step(actions)
            env.state.accessed[:, pinned] = True


STATE_FIELDS = ("slot", "accessed", "rb_remaining", "prev_action", "ue_positions")


@pytest.mark.parametrize(
    "kind, mode", [("conventional", "greedy"), ("random", "greedy"), ("dho", "greedy"), ("dho", "sample")]
)
def test_reset_seed_is_a_chunk_of_one(kind, mode):
    # reset(seed) starts the chunk reset(episodes=[seed]) starts, so a whole
    # episode under each agent gives the same observations, states, outcome
    # columns and metrics, byte for byte.  The A3 flags put the measurement
    # fold in every observation.
    cfg = ScenarioConfig(
        num_ues=6, rb_per_target=(2, 2), num_preambles=4, horizon=5,
        features=FeatureMask(a3_centralized=True),
    )
    params = net.init_params(observation_size(cfg), 6, 3, hidden=(8, 8), rng=np.random.default_rng(3))
    runs = []
    for start in (lambda env: env.reset(8), lambda env: env.reset(episodes=[8])):
        env = HandoverEnv(cfg)
        agent = make_agent(kind, params=params, mode=mode)
        obs = start(env)
        agent.begin_episode(env, [np.random.default_rng(5)])
        arrays, columns = [obs], OutcomeColumns(cfg, 1)
        for _ in range(cfg.horizon):
            obs, outcome = env.step(agent.act(env, obs))
            columns.append(outcome)
            arrays += [obs] + [np.copy(getattr(env.state, name)) for name in STATE_FIELDS]
        arrays += columns.values()
        runs.append((arrays, episode_metrics(EpisodeOutcomes(columns, 0), env.state.episode(0))))
    (seeded, seeded_metrics), (chunk, chunk_metrics) = runs
    assert len(seeded) == len(chunk)
    for got, want in zip(seeded, chunk):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert [v.hex() for v in astuple(seeded_metrics)] == [v.hex() for v in astuple(chunk_metrics)]
    assert chunk[0].shape == (1, observation_size(cfg))


def test_make_agent_validation():
    with pytest.raises(ValueError):
        make_agent("dho")
    with pytest.raises(ValueError):
        make_agent("nonsense")
