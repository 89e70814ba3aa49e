
import csv
import dataclasses
import functools
import math
import operator
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from leoho import env as env_module, experiments, link, net, orbital, rng as rng_module, training
from leoho.agents import RandomAgent
from leoho.env import (
    INT64_MAX,
    MAX_CHUNK_CELLS,
    ConfigError,
    EpisodeOutcomes,
    FeatureMask,
    HandoverEnv,
    MetricsRecord,
    OutcomeColumns,
    ScenarioConfig,
    StepOutcome,
    admission,
    batch_episodes,
    episode_metrics,
    observation_size,
    rach,
)
from leoho.experiments import trace_header, write_trace_csv


def small_config(**kw) -> ScenarioConfig:
    defaults = dict(num_ues=10, num_planes=3, rb_per_target=(10, 10), num_preambles=50)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def episode_columns(config: ScenarioConfig, outcomes) -> OutcomeColumns:
    """The columns of a chunk's slot outcomes, stacked as a loop collects them."""
    columns = OutcomeColumns(config, len(outcomes[0].reward))
    for outcome in outcomes:
        columns.append(outcome)
    return columns


def episode_view(config: ScenarioConfig, outcomes) -> EpisodeOutcomes:
    """The view of one episode's slot outcomes."""
    return EpisodeOutcomes(episode_columns(config, outcomes), 0)


# --- configuration -------------------------------------------------------


def test_config_errors_carry_field_names():
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(num_ues=0)
    assert err.value.field == "num_ues"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(rb_per_target=(1,))
    assert err.value.field == "rb_per_target"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(num_preambles=0)
    assert err.value.field == "num_preambles"
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(nu=-0.5)
    assert err.value.field == "nu"
    for name in ("altitude_m", "area_m", "slot_s"):
        for value in (0.0, -1.0):
            with pytest.raises(ConfigError) as err:
                ScenarioConfig(**{name: value})
            assert err.value.field == name
    for period in (0.2, 0.6, 0.0):  # slot_s = 0.3 is no positive multiple of these
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(measurement_period_s=period)
        assert err.value.field == "measurement_period_s"
    for order in (-8.0, float("nan"), float("inf")):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(iir_order=order)
        assert err.value.field == "iir_order"
    for positions in ("abcdefghij", [[0.0, 0.0]] * 9, [[0.0]] * 10, [[0.0, float("nan")]] * 10):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(ue_positions=positions)
        assert err.value.field == "ue_positions"


@pytest.mark.parametrize(
    "changes, field",
    [
        (dict(num_ues=10**9), "scenario"),
        (dict(num_planes=10**9, rb_per_target=(1,)), "scenario"),
        (dict(num_planes=10**9, rb_per_target=1), "scenario"),
        (dict(rb_per_target=(10, 10**30)), "rb_per_target"),
        (dict(rb_per_target=10**30), "rb_per_target"),
        (dict(num_preambles=10**30), "scenario"),
        (dict(num_preambles=MAX_CHUNK_CELLS // 3), "scenario"),
        (dict(horizon=10**9), "scenario"),
        (dict(slot_s=1e30), "scenario"),
        # One slot's M x 3 coordinate differences alone pass the bound.
        (
            dict(num_ues=1, num_planes=2, rb_per_target=1, horizon=1, slot_s=2.0**23, measurement_period_s=1.0),
            "scenario",
        ),
        (dict(slot_s=1e300, measurement_period_s=1e-300), "measurement_period_s"),
        (dict(horizon=MAX_CHUNK_CELLS // 30 + 1), "scenario"),
    ],
)
def test_counts_the_engine_cannot_hold_are_config_errors(changes, field):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig(**changes)
    assert err.value.field == field


def test_largest_counts_the_engine_holds_are_valid():
    ScenarioConfig(rb_per_target=(INT64_MAX, 0), num_preambles=MAX_CHUNK_CELLS // 3 - 1)
    # J * K past the learned policy's bound: the baseline agents need no policy.
    ScenarioConfig(num_ues=2**15, num_planes=3, rb_per_target=(1, 1), horizon=60)
    # The longest horizon at J = 10, K = 3 and M = 2: its Gumbel noise fills the bound.
    assert ScenarioConfig(horizon=MAX_CHUNK_CELLS // 30).episode_cells == MAX_CHUNK_CELLS - 2


def test_one_budget_means_every_target():
    assert ScenarioConfig(num_planes=4, rb_per_target=7).rb_per_target == (7, 7, 7)
    assert ScenarioConfig(num_planes=4, rb_per_target=7) == ScenarioConfig(
        num_planes=4, rb_per_target=(7, 7, 7)
    )


@pytest.mark.parametrize("j, episodes", [(1, 256), (10, 256), (30, 213), (100, 64), (300, 21)])
def test_chunks_bound_their_terminals_and_their_episodes(j, episodes):
    # E * J per-terminal cells and E per-episode rows and objects.
    expected = min(env_module.BATCH_EPISODES, env_module.BATCH_TERMINALS // j)
    assert batch_episodes(ScenarioConfig(num_ues=j)) == expected == episodes


def test_chunks_shrink_to_fit_their_largest_block():
    # 30 * 10^4 cells of Gumbel noise an episode bind before BATCH_EPISODES.
    assert ScenarioConfig(horizon=10**4).episode_cells == 30 * 10**4
    assert batch_episodes(ScenarioConfig(horizon=10**4)) == MAX_CHUNK_CELLS // (30 * 10**4) == 111
    # 3 * (10^7 + 1) RACH bins an episode, and a J past BATCH_TERMINALS.
    assert batch_episodes(ScenarioConfig(num_preambles=10**7)) == 1
    assert batch_episodes(ScenarioConfig(num_ues=2**15, horizon=60)) == 1


def test_a_chunks_largest_block_fits_the_cell_bound(monkeypatch):
    # M = 4 samples a slot over 200 slots: an episode's (N, J, K) Gumbel
    # noise, 2400 cells, is its largest block, so a chunk of 13 episodes
    # holds 31200 of the 2^15 cells, and no measurement sample adds to it.
    bound = 2**15
    monkeypatch.setattr(env_module, "MAX_CHUNK_CELLS", bound)
    config = small_config(num_ues=4, horizon=200, measurement_period_s=0.075)
    assert config.samples_per_slot == 4 and config.episode_cells == 200 * 4 * 3
    assert batch_episodes(config) == 13
    largest = []  # bytes of the largest numpy block alive at each look

    def look():
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        )
        largest.append(max(trace.size for trace in snapshot.traces))

    def looking(inner):
        def call(*args, **kwargs):
            result = inner(*args, **kwargs)
            if len(largest) < 40:  # the chunk's first slots
                look()
            return result

        return call

    # After each slot's outcome, and inside each measurement fold.
    monkeypatch.setattr(OutcomeColumns, "append", looking(OutcomeColumns.append))
    monkeypatch.setattr(link, "rsrp_dbm", looking(link.rsrp_dbm))
    params = net.zero_params(observation_size(config), 4, 3, hidden=(8, 8))
    tracemalloc.start()
    try:
        experiments.evaluate(config, "dho", 13, master_seed=0, params=params, eval_mode="sample")
        noise = max(largest)
        largest.clear()
        experiments.evaluate(config, "conventional", 13, master_seed=0)
        fold = max(largest)
    finally:
        tracemalloc.stop()
    assert noise == 13 * 200 * 4 * 3 * 8 <= bound * 8
    assert fold <= bound * 8


# --- reset ----------------------------------------------------------------


def test_reset_is_deterministic():
    env_a, env_b = HandoverEnv(small_config()), HandoverEnv(small_config())
    obs_a, obs_b = env_a.reset(123), env_b.reset(123)
    assert np.array_equal(obs_a, obs_b)
    assert np.array_equal(env_a.state.ue_positions, env_b.state.ue_positions)
    assert np.array_equal(env_a.state.rb_remaining, env_b.state.rb_remaining)
    ma, mb = env_a.measurements(), env_b.measurements()
    assert np.array_equal(ma.l3_dbm, mb.l3_dbm)
    # With no key, an episode starts from key 0.
    env_a.reset()
    env_b.reset(0)
    assert np.array_equal(env_a.state.ue_positions, env_b.state.ue_positions)


def test_reset_places_ues_inside_area():
    env = HandoverEnv(small_config(area_m=1000.0))
    env.reset(5)
    pos = env.state.ue_positions
    assert pos.shape == (1, 10, 3)
    assert (pos[..., :2] >= 0).all() and (pos[..., :2] <= 1000.0).all()
    assert (pos[..., 2] == 0).all()


def test_explicit_ue_positions():
    coords = tuple((float(i), float(2 * i)) for i in range(10))
    env = HandoverEnv(small_config(ue_positions=coords))
    env.reset(0)
    assert np.allclose(env.state.ue_positions[0, :, 0], [c[0] for c in coords])


def test_initial_observation_contents():
    env = HandoverEnv(small_config())
    obs = env.reset(0)
    assert obs.shape == (1, 41)
    assert obs[0, 0] == 0.0  # time index n/N
    assert np.array_equal(obs[0, 1:11], np.zeros(10))  # nothing accessed
    onehot = obs[0, 11:].reshape(10, 3)
    assert np.array_equal(onehot[:, 0], np.ones(10))  # previous action all-zero


# --- random streams ---------------------------------------------------------


def test_reset_streams_are_default_rng_streams():
    # reset draws each episode's blocks from default_rng(key), and the
    # measurement shadowing comes from default_rng(key + (0x4D53,)): the
    # first sample's (J, K) normals, then M (J, K) blocks per folded slot.
    cfg = small_config(horizon=4, measurement_period_s=0.1)
    m, shape = cfg.samples_per_slot, (cfg.num_ues, cfg.num_planes)
    keys = [7, (7, 2), (2**40, 3, 9, 1, 5)]
    env = HandoverEnv(cfg)
    env.reset(episodes=keys)
    first = env.measurements().l1_dbm.copy()
    env.step(np.zeros((len(keys), cfg.num_ues), dtype=np.int64))
    last = env.measurements().l1_dbm
    # The satellites at the first sample and at the last sample of slot 1.
    satellites = [
        env._init_positions,
        orbital.propagate(env._init_positions, env._velocities, m * cfg.measurement_period_s),
    ]
    for e, key in enumerate(keys):
        rng = np.random.default_rng(key)
        positions = rng.uniform(0.0, cfg.area_m, size=(cfg.num_ues, 2))
        assert np.array_equal(env.state.ue_positions[e, :, :2], positions)
        assert np.array_equal(env._keys[e], rng.random((cfg.horizon, cfg.num_ues)))
        preambles = rng.integers(1, cfg.num_preambles + 1, size=(cfg.horizon, cfg.num_ues))
        assert np.array_equal(env._preambles[e], preambles)
        stream = np.random.default_rng(rng_module.seed_key(key) + (env_module.MEASUREMENT_STREAM,))
        normals = stream.standard_normal((1 + m,) + shape)
        for got, sats, draw in zip((first, last), satellites, (normals[0], normals[m])):
            path = link.rsrp_dbm(orbital.nearest_distances_km(sats, env.state.ue_positions[e]))
            assert got[e].tobytes() == (path + cfg.shadowing_sigma_db * draw).tobytes()


def reference_draws(cfg: ScenarioConfig, seeds: list[int]):
    """Reference: reset's and the random agent's blocks as numpy's own per-episode calls.

    Returns (E, J, 3) positions, (E, N, J) admission keys and preambles, and
    the (E, N, J) random actions of the agent generators ``[seed, 101]``.
    """
    e, j, n = len(seeds), cfg.num_ues, cfg.horizon
    ue_pos = np.zeros((e, j, 3))
    keys = np.empty((e, n, j))
    preambles = np.empty((e, n, j), dtype=np.int64)
    for i, rng in enumerate(rng_module.episode_generators(seeds)):
        if cfg.ue_positions is None:
            ue_pos[i, :, :2] = rng.uniform(0.0, cfg.area_m, size=(j, 2))
        rng.random(out=keys[i])
        preambles[i] = rng.integers(1, cfg.num_preambles + 1, size=(n, j))
    if cfg.ue_positions is not None:
        explicit = np.asarray(cfg.ue_positions, dtype=float)
        ue_pos[..., : explicit.shape[1]] = explicit
    agent_streams = rng_module.episode_generators([seed, 101] for seed in seeds)
    actions = np.stack([rng.integers(0, cfg.num_planes, size=(n, j)) for rng in agent_streams])
    return ue_pos, keys, preambles, actions


@pytest.mark.parametrize("batched", [True, False])
@pytest.mark.parametrize("positions", [False, True])
@pytest.mark.parametrize("preambles", [50, 2**23 + 1])
def test_reset_and_random_agent_draws_match_numpy_calls(batched, positions, preambles):
    # At P = 2**23 + 1, 15 of the 40 episodes' preamble rows, episode 42's
    # among them, hold a value numpy redraws, with or without positions.
    cfg = small_config(
        num_preambles=preambles,
        ue_positions=tuple((3.0 * i, 500.0 - i) for i in range(10)) if positions else None,
    )
    seeds = list(range(40, 80)) if batched else [42]
    env = HandoverEnv(cfg)
    if batched:
        env.reset(episodes=seeds)
    else:
        env.reset(seeds[0])
    agent = RandomAgent()
    agent.begin_episode(env, rng_module.episode_generators([seed, 101] for seed in seeds))
    want = reference_draws(cfg, seeds)
    got = (env.state.ue_positions, env._keys, env._preambles, agent._draws)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


# --- observation encoding --------------------------------------------------


def test_observation_size_accounting():
    cfg = small_config()
    assert observation_size(cfg) == 1 + 10 + 10 * 3
    no_prev = dataclasses.replace(cfg, features=FeatureMask(prev_action=False))
    assert observation_size(no_prev) == observation_size(cfg) - 10 * 3
    central = dataclasses.replace(cfg, features=FeatureMask(a3_centralized=True))
    assert observation_size(central) == observation_size(cfg) + 10 * 2


def a3_event(m_l3_serving: float, m_l3_target: float, offset_db: float) -> bool:
    """A3 entering condition: target exceeds serving by strictly more than the offset."""
    return m_l3_target > m_l3_serving + offset_db


def test_centralized_observation_matches_a3_evaluation():
    cfg = small_config(features=FeatureMask(a3_centralized=True))
    env = HandoverEnv(cfg)
    obs = env.reset(3)
    for _ in range(4):
        obs, _ = env.step(np.zeros((1, 10), dtype=int))
    measurements = env.measurements()
    expected = np.array(
        [
            [
                a3_event(measurements.l3_dbm[0, j, 0], measurements.l3_dbm[0, j, k], cfg.a3_offset_db)
                for k in (1, 2)
            ]
            for j in range(10)
        ]
    )
    flags = obs[0, 41:].reshape(10, 2).astype(bool)
    assert np.array_equal(flags, expected)


def compared_observation(env: HandoverEnv) -> np.ndarray:
    """Reference: the observation with its one-hot block cast from an (..., J, K) comparison."""
    state, config = env.state, env.config
    f = config.features
    j, k = config.num_ues, config.num_planes
    lead = state.accessed.shape[:-1]
    out = np.zeros(lead + (observation_size(config),))
    pos = 0
    if f.time_index:
        out[..., 0] = state.slot / config.horizon
        pos = 1
    if f.accessed_vector:
        out[..., pos : pos + j] = state.accessed
        pos += j
    if f.prev_action:
        block = out[..., pos : pos + j * k].reshape(lead + (j, k))
        block[...] = state.prev_action[..., None] == np.arange(k)
        pos += j * k
    if f.a3_centralized:
        flags = env.measurements().a3_flags(config.a3_offset_db)
        out[..., pos : pos + j * (k - 1)] = flags.reshape(lead + (j * (k - 1),))
    return out


@pytest.mark.parametrize("mask", sorted(experiments.ABLATION_MASKS))
@pytest.mark.parametrize("batched", [False, True])
def test_observe_matches_compared_reference(mask, batched):
    cfg = small_config(
        num_planes=4, rb_per_target=(2, 3, 2), horizon=6, features=experiments.ABLATION_MASKS[mask]
    )
    env = HandoverEnv(cfg)
    obs = env.reset(episodes=[4, 5, 6]) if batched else env.reset(4)
    shape = (cfg.horizon,) + env.state.accessed.shape
    actions = np.random.default_rng(2).integers(0, cfg.num_planes, shape)
    for n in range(cfg.horizon + 1):
        want = compared_observation(env)
        assert (obs.dtype, obs.shape) == (want.dtype, want.shape)
        assert obs.tobytes() == want.tobytes()
        if n < cfg.horizon:
            obs, _ = env.step(actions[n])


# --- admission oracle -------------------------------------------------------


def test_admission_no_requesters():
    keys = np.random.default_rng(0).random(10)
    command, coll, c_r = admission(np.zeros(10, int), np.array([5, 5]), 10, keys)
    assert not command.any() and not coll.any() and not c_r.any()


def test_admission_boundary_all_granted():
    requested = np.array([1] * 5 + [0] * 5)
    keys = np.random.default_rng(0).random(requested.shape)
    command, coll, c_r = admission(requested, np.array([5, 5]), 10, keys)
    assert (command[:5] == 1).all() and not coll.any()
    assert c_r.tolist() == [0.0, 0.0]


def test_admission_oversubscribed_rate_and_count():
    requested = np.array([1] * 7 + [0] * 3)
    keys = np.random.default_rng(1).random(requested.shape)
    command, coll, c_r = admission(requested, np.array([4, 4]), 10, keys)
    assert (command == 1).sum() == 4
    assert coll.sum() == 3
    assert c_r[0] == pytest.approx(0.3)


def test_admission_uniform_selection_frequency():
    # 7 requesters, 4 blocks: every requester is granted with chance 4/7.
    trials = 100_000
    rng = np.random.default_rng(7)
    requested = np.tile([1] * 7 + [0] * 3, (trials, 1))
    blocks = np.tile([4, 4], (trials, 1))
    command, _, _ = admission(requested, blocks, 10, rng.random(requested.shape))
    grants = (command == 1).sum(axis=0)
    p_hat = grants[:7] / trials
    sigma = np.sqrt((4 / 7) * (3 / 7) / trials)
    assert np.all(np.abs(p_hat - 4 / 7) < 4 * sigma)


def test_admission_zero_blocks_refuses_everyone():
    requested = np.array([2] * 6 + [0] * 4)
    keys = np.random.default_rng(0).random(requested.shape)
    command, coll, c_r = admission(requested, np.array([3, 0]), 10, keys)
    assert not command.any()
    assert coll[:6].all()
    assert c_r[1] == pytest.approx(0.6)


def one_hot_admission(requested, rb_remaining, num_ues, keys):
    """Reference: admission ranked on (..., J, K-1) one-hot requester tensors."""
    requested = np.asarray(requested)
    rb_remaining = np.asarray(rb_remaining)
    wants = requested[..., None] == np.arange(1, rb_remaining.shape[-1] + 1)  # (..., J, K-1)
    excess = wants.sum(axis=-2) - rb_remaining
    oversubscribed = excess > 0
    if not oversubscribed.any():
        return requested.copy(), np.zeros(requested.shape, dtype=bool), np.zeros(excess.shape)
    j = requested.shape[-1]
    order = keys.argsort(axis=-1)
    order += np.arange(0, requested.size, j).reshape(requested.shape[:-1] + (1,))
    order = order.ravel()
    wants_sorted = wants.reshape(-1, wants.shape[-1])[order].reshape(wants.shape)
    rank = wants_sorted.cumsum(axis=-2)
    granted = np.empty(requested.size, dtype=bool)
    granted[order] = (wants_sorted & (rank <= rb_remaining[..., None, :])).any(axis=-1).ravel()
    granted = granted.reshape(requested.shape)
    command = np.where(granted, requested, 0)
    rb_collision = (requested > 0) & (command == 0)
    return command, rb_collision, np.maximum(excess, 0) / num_ues


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lead=st.lists(st.integers(1, 4), max_size=2).map(tuple),
    num_ues=st.integers(1, 120),
    targets=st.integers(1, 4),
    request_rate=st.sampled_from([0.0, 0.3, 0.9]),
    unbounded=st.booleans(),
)
@example(seed=0, lead=(), num_ues=120, targets=4, request_rate=0.9, unbounded=False)
@example(seed=1, lead=(3, 2), num_ues=7, targets=1, request_rate=0.0, unbounded=True)
# Every oversubscribed target (three of them) has no block left.
@example(seed=1, lead=(3, 2), num_ues=5, targets=2, request_rate=0.9, unbounded=False)
# Two settled rows, three with a partly contended target and one uncontended.
@example(seed=3, lead=(6,), num_ues=12, targets=2, request_rate=0.9, unbounded=False)
# One row with no episode axis: five requesters for each target's three blocks.
@example(seed=0, lead=(), num_ues=12, targets=2, request_rate=0.9, unbounded=False)
def test_admission_matches_one_hot_reference(seed, lead, num_ues, targets, request_rate, unbounded):
    rng = np.random.default_rng(seed)
    shape = lead + (num_ues,)
    requested = np.where(rng.random(shape) < request_rate, rng.integers(1, targets + 1, shape), 0)
    requested[rng.random(lead) < 0.25] = 0  # rows with no requester
    rb = rng.integers(0, num_ues // 2 + 2, size=lead + (targets,))  # zero-block targets too
    if unbounded:
        rb[rng.random(rb.shape) < 0.5] = INT64_MAX
    keys = rng.random(shape)
    got = admission(requested, rb, num_ues, keys)
    want = one_hot_admission(requested, rb, num_ues, keys)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


# --- random access oracle ----------------------------------------------------


def test_rach_single_ue_never_collides():
    command = np.array([1] + [0] * 9)
    preamble, coll, c_p = rach(command, 1, 10, np.random.default_rng(0).integers(1, 2, size=10), 2)
    assert preamble[0] == 1 and not coll.any() and c_p == 0.0


def test_rach_pigeonhole_collision():
    command = np.array([1, 1] + [0] * 8)
    preamble, coll, c_p = rach(command, 1, 10, np.random.default_rng(0).integers(1, 2, size=10), 2)
    assert coll[:2].all()
    assert c_p == pytest.approx(0.2)


def test_rach_different_targets_do_not_collide():
    command = np.array([1, 2] + [0] * 8)
    _, coll, c_p = rach(command, 1, 10, np.random.default_rng(0).integers(1, 2, size=10), 2)
    assert not coll.any() and c_p == 0.0


def test_rach_collision_rate_matches_birthday_formula():
    # E[C_P] = (m/J) * (1 - (1 - 1/P)^(m-1)) for m terminals on one target.
    rng = np.random.default_rng(11)
    trials = 20_000
    for m, p in ((2, 1), (5, 8), (10, 50)):
        command = np.tile([1] * m + [0] * (10 - m), (trials, 1))
        _, _, rates = rach(command, p, 10, rng.integers(1, p + 1, size=command.shape), 2)
        expected = (m / 10) * (1 - (1 - 1 / p) ** (m - 1))
        sem = rates.std() / np.sqrt(trials)
        assert abs(rates.mean() - expected) < max(4 * sem, 1e-12)


def binned_rach(command, num_preambles, num_ues, preambles, num_targets):
    """Reference: random access binning every slot, commanded or not."""
    command = np.asarray(command)
    commanded = command > 0
    preamble = np.where(commanded, preambles, 0)
    stride = (num_targets + 1) * (num_preambles + 1)
    codes = command * (num_preambles + 1) + preamble
    codes += np.arange(0, command.size // command.shape[-1] * stride, stride).reshape(
        command.shape[:-1] + (1,)
    )
    prach_collision = commanded & (np.bincount(codes.ravel())[codes] > 1)
    return preamble, prach_collision, prach_collision.sum(axis=-1) / num_ues


@pytest.mark.parametrize("lead", [(), (4,), (3, 2)])
@pytest.mark.parametrize("commanded", [False, True])
def test_rach_matches_binned_reference(lead, commanded):
    rng = np.random.default_rng(len(lead))
    shape = lead + (30,)
    command = rng.integers(0, 3, shape) * commanded
    signatures = rng.integers(1, 5, lead + (3, 30))[..., 1, :]  # a slot of a block, as step passes
    got = rach(command, 4, 30, signatures, 2)
    want = binned_rach(command, 4, 30, signatures, 2)
    assert got[1].any() == commanded  # four signatures for ~10 terminals per target
    for g, w in zip(got, want):
        assert (type(g), g.dtype, g.shape) == (type(w), w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


# --- batched kernels against a per-episode oracle ------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    episodes=st.integers(1, 5),
    num_ues=st.integers(1, 12),
    targets=st.integers(1, 3),
    preambles=st.integers(1, 6),
)
def test_batched_kernels_match_per_episode_oracle(seed, episodes, num_ues, targets, preambles):
    rng = np.random.default_rng(seed)
    requested = rng.integers(0, targets + 1, size=(episodes, num_ues))
    rb = rng.integers(0, num_ues + 1, size=(episodes, targets))
    keys = rng.random((episodes, num_ues))
    signatures = rng.integers(1, preambles + 1, size=(episodes, num_ues))
    command, refused, c_r = admission(requested, rb, num_ues, keys)
    preamble, collided, c_p = rach(command, preambles, num_ues, signatures, targets)

    for e in range(episodes):
        assert not command[e][requested[e] == 0].any() and not refused[e][requested[e] == 0].any()
        for k in range(1, targets + 1):
            requesters = np.flatnonzero(requested[e] == k)
            granted = requesters[command[e, requesters] == k]
            lost = requesters[refused[e, requesters]]
            blocks = rb[e, k - 1]
            assert len(granted) <= blocks
            assert len(lost) == max(0, len(requesters) - blocks)
            assert sorted(np.concatenate([granted, lost]).tolist()) == requesters.tolist()
            lowest_keys = requesters[np.argsort(keys[e, requesters])][: min(blocks, len(requesters))]
            assert set(granted.tolist()) == set(lowest_keys.tolist())
            assert c_r[e, k - 1] == pytest.approx(len(lost) / num_ues)
        for i in range(num_ues):
            assert preamble[e, i] == (signatures[e, i] if command[e, i] else 0)
            shares = command[e, i] > 0 and any(
                command[e, m] == command[e, i] and signatures[e, m] == signatures[e, i]
                for m in range(num_ues)
                if m != i
            )
            assert collided[e, i] == shares
        assert c_p[e] == pytest.approx(collided[e].sum() / num_ues)


# --- step semantics ----------------------------------------------------------


def test_step_all_accessed_is_quiet():
    env = HandoverEnv(small_config())
    env.reset(0)
    env.state.accessed[:] = True
    _, out = env.step(np.full((1, 10), 2))
    assert out.d == 0.0 and out.c_total == 0.0 and out.reward == 0.0
    assert not out.requested.any() and not out.command.any()


def test_step_all_waiting():
    env = HandoverEnv(small_config())
    env.reset(0)
    _, out = env.step(np.zeros((1, 10), dtype=int))
    assert out.d == 1.0 and out.c_total == 0.0 and out.reward == -1.0


def test_step_insufficient_blocks_rate():
    env = HandoverEnv(small_config())
    env.reset(0)
    env.state.rb_remaining[0, 0] = 3
    _, out = env.step(np.ones((1, 10), dtype=int))
    assert out.c_r_per_target[0, 0] == pytest.approx(0.7)
    assert (out.command == 1).sum() == 3


def test_everyone_accesses_first_slot_scores_zero_delay():
    # Delay counts terminals still unaccessed after the slot's completions.
    env = HandoverEnv(small_config(num_preambles=10**6))
    env.reset(1)
    _, out = env.step(np.ones((1, 10), dtype=int))
    assert out.newly_accessed.all()
    assert out.d == 0.0
    outcomes = [out]
    for _ in range(19):
        _, o = env.step(np.zeros((1, 10), dtype=int))
        outcomes.append(o)
    m = episode_metrics(episode_view(env.config, outcomes), env.state.episode(0))
    assert m.sum_delay == 0.0
    assert m.ho_success == 1.0


def test_never_accessing_scores_full_delay():
    env = HandoverEnv(small_config())
    env.reset(0)
    outcomes = [env.step(np.zeros((1, 10), dtype=int))[1] for _ in range(20)]
    m = episode_metrics(episode_view(env.config, outcomes), env.state.episode(0))
    assert m.sum_delay == 20.0
    assert m.ho_success == 0.0
    assert m.episode_return == -20.0


def test_return_identity_with_delay_weight():
    cfg = small_config(nu=2.5, rb_per_target=(3, 3), num_preambles=4)
    env = HandoverEnv(cfg)
    rng = np.random.default_rng(0)
    env.reset(9)
    outcomes = [env.step(rng.integers(0, 3, (1, 10)))[1] for _ in range(20)]
    m = episode_metrics(episode_view(cfg, outcomes), env.state.episode(0))
    assert m.episode_return == pytest.approx(-cfg.nu * m.sum_delay - m.sum_collision, abs=1e-12)


@pytest.mark.parametrize("batched", [False, True])
def test_settle_gives_what_stepping_action_zero_gives(batched):
    # Retiring every episode at once ends the chunk as a whole, and fills
    # the observations of its remaining slots, while their outcomes are
    # those fresh columns hold.  The A3 flags put the measurement fold in
    # every observation, and a settled slot's reward is step's -0.0 at
    # nu = 0 as at nu = 5.
    for nu in (0.0, 5.0):
        cfg = small_config(horizon=12, nu=nu, features=FeatureMask(a3_centralized=True))
        stepped, settled = HandoverEnv(cfg), HandoverEnv(cfg)
        columns = {}
        for env in (stepped, settled):
            if batched:
                env.reset(episodes=[3, 4])
            else:
                env.reset(3)
            columns[env] = OutcomeColumns(cfg, len(env.state.accessed))
        everyone = np.ones(len(settled.state.accessed), dtype=bool)
        with pytest.raises(ValueError, match="every terminal"):
            settled.retire(everyone)
        while not settled.state.accessed.all():  # request plane 1 until everyone has access
            actions = np.where(settled.state.accessed, 0, 1)
            for env in (stepped, settled):
                columns[env].append(env.step(actions)[1])
        slot = settled.state.slot
        assert 0 < slot < cfg.horizon - 1
        want = np.empty((len(everyone), cfg.horizon - slot, observation_size(cfg)))
        for i in range(cfg.horizon - slot):
            want[:, i], outcome = stepped.step(np.zeros_like(actions))
            columns[stepped].append(outcome)
        with pytest.raises(ValueError, match="slots left"):
            settled.retire(everyone, np.empty((len(everyone), 1, want.shape[-1])))
        observations = np.empty_like(want)
        if batched:
            with pytest.raises(ValueError, match="every episode's"):
                settled.retire(np.array([True, False]), observations)
        final = settled.retire(everyone, observations)
        assert observations.tobytes() == want.tobytes()
        for name, column in columns[stepped].items():
            assert columns[settled][name].tobytes() == column.tobytes(), (nu, name)
        assert np.signbit(columns[settled]["reward"][..., slot:]).all()
        for state in (final, settled.state):
            for name in ("slot", "accessed", "rb_remaining", "prev_action"):
                assert np.array_equal(getattr(state, name), getattr(stepped.state, name)), name
        with pytest.raises(RuntimeError):
            settled.step(np.zeros_like(actions))


def test_retired_episodes_leave_the_others_as_they_were():
    # The A3 flags put the measurement fold, and so the shadowing streams,
    # in every observation.  Episodes retire as they settle, at different
    # slots since three terminals share two signatures; the live rows step
    # on exactly as the same rows of an env that steps them all.
    cfg = small_config(
        horizon=12, num_ues=3, rb_per_target=(3, 3), num_preambles=2,
        features=FeatureMask(a3_centralized=True),
    )
    keys = list(range(20, 28))
    stepped, retiring = HandoverEnv(cfg), HandoverEnv(cfg)
    stepped.reset(episodes=keys)
    retiring.reset(episodes=keys)
    with pytest.raises(ValueError, match="every terminal"):
        retiring.retire(np.ones(len(keys), dtype=bool))
    live = np.arange(len(keys))
    retired_after = set()
    while stepped.state.slot < cfg.horizon and live.size:
        actions = np.where(stepped.state.accessed, 0, 1)
        obs, want = stepped.step(actions)
        got_obs, got = retiring.step(actions[live])
        assert got_obs.tobytes() == obs[live].tobytes()
        for name in ("requested", "command", "preamble", "newly_accessed", "reward"):
            assert getattr(got, name).tobytes() == getattr(want, name)[live].tobytes(), name
        settled = got.d == 0
        if settled.any() and retiring.state.slot < cfg.horizon:
            final = retiring.retire(settled)
            assert final.slot == cfg.horizon and not final.prev_action.any()
            assert np.array_equal(final.rb_remaining, stepped.state.rb_remaining[live[settled]])
            retired_after.add(stepped.state.slot)
            live = live[~settled]
    assert len(retired_after) > 1
    with pytest.raises(RuntimeError, match="reset"):
        HandoverEnv(cfg).retire(np.array([False]))


def test_step_rejects_bad_actions_and_finished_episode():
    env = HandoverEnv(small_config(horizon=2))
    env.reset(0)
    with pytest.raises(ValueError):
        env.step(np.zeros((1, 9), dtype=int))
    with pytest.raises(ValueError):
        env.step(np.full((1, 10), 3))
    env.step(np.zeros((1, 10), dtype=int))
    env.step(np.zeros((1, 10), dtype=int))
    with pytest.raises(RuntimeError):
        env.step(np.zeros((1, 10), dtype=int))


CASE1 = dict(num_ues=10, rb_per_target=(10, 10), num_preambles=50)
J100_SCARCE = dict(num_ues=100, rb_per_target=(30, 30), num_preambles=80)


@pytest.mark.parametrize("scenario", [CASE1, J100_SCARCE], ids=["case1", "J100-scarce"])
def test_batched_views_equal_single_episode_records(scenario):
    cfg = small_config(**scenario)
    seeds = [0, 7, 123, 90_001]
    rng = np.random.default_rng(31)
    actions = rng.integers(0, cfg.num_planes, size=(len(seeds), cfg.horizon, cfg.num_ues))
    env = HandoverEnv(cfg)
    env.reset(episodes=seeds)
    slots = []
    for n in range(cfg.horizon):
        _, outcome = env.step(actions[:, n])
        assert outcome.command.shape == (len(seeds), cfg.num_ues)
        assert outcome.c_r_per_target.shape == (len(seeds), cfg.num_targets)
        assert outcome.reward.shape == (len(seeds),)
        slots.append(outcome)
    columns = episode_columns(cfg, slots)
    for e, seed in enumerate(seeds):
        alone = HandoverEnv(cfg)
        alone.reset(seed)
        stepped = [alone.step(actions[e, n][None])[1] for n in range(cfg.horizon)]
        records = list(episode_view(cfg, stepped))
        view = EpisodeOutcomes(columns, e)
        assert len(view) == cfg.horizon
        for got, want in zip(view, records):
            for f in dataclasses.fields(StepOutcome):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert type(a) is type(b), f.name
                assert np.array_equal(a, b) and np.asarray(a).dtype == np.asarray(b).dtype, f.name
        assert view[-1].slot == cfg.horizon and [view[n].slot for n in (2, 3)] == [3, 4]
        # Slot order, folded left to right from 0.0 as the sums are defined.
        oracle = MetricsRecord(
            sum_delay=fold([o.d for o in records]),
            sum_collision_rb=float(np.sum([o.c_r_per_target for o in records])),
            sum_collision_prach=fold([o.c_p for o in records]),
            ho_success=float(alone.state.accessed.sum()) / cfg.num_ues,
            episode_return=fold([o.reward for o in records]),
        )
        assert episode_metrics(view, env.state.episode(e)) == oracle
        assert episode_metrics(episode_view(cfg, stepped), alone.state.episode(0)) == oracle


@pytest.mark.parametrize("scenario", [CASE1, J100_SCARCE], ids=["case1", "J100-scarce"])
def test_columns_take_step_outcomes_without_a_cast(scenario):
    # The columns are allocated before any slot is stepped, so each has to
    # have the dtype and per-slot shape of the field step returns, or it
    # would cast what step writes.  Random actions in odd slots and action 0
    # in even ones take admission and random access down their busy and
    # idle paths.
    cfg = small_config(**scenario)
    seeds = [5, 6, 7]
    env = HandoverEnv(cfg)
    env.reset(episodes=seeds)
    columns = OutcomeColumns(cfg, len(seeds))
    assert columns["slot"].tolist() == list(range(1, cfg.horizon + 1))
    rng = np.random.default_rng(3)
    for n in range(cfg.horizon):
        actions = rng.integers(0, cfg.num_planes, (len(seeds), cfg.num_ues)) * (n % 2)
        _, outcome = env.step(actions)
        for f in dataclasses.fields(StepOutcome)[1:]:
            value, column = np.asarray(getattr(outcome, f.name)), columns[f.name]
            assert (column.dtype, column[:, n].shape) == (value.dtype, value.shape), f.name
        columns.append(outcome)


def fold(values) -> float:
    """``((0.0 + v_1) + v_2) + ...``: the episode sums' definition.

    Up to Python 3.11 this is what ``sum`` of floats gives, bit for bit;
    from 3.12 on ``sum`` compensates its rounding, and the sums do not.
    """
    return float(functools.reduce(operator.add, values, 0.0))


def _per_episode_sums(d, c_r_block, c_p, reward) -> list[str]:
    """The D, C_R, C_P and return sums one episode's own columns give, as bits.

    D, C_P and the return fold the episode's floats left to right from 0.0,
    whatever the interpreter, and C_R is numpy's sum of the block.
    """
    sums = (fold(d), float(c_r_block.sum()), fold(c_p), fold(reward))
    return [v.hex() for v in sums]


def _chunk_config(slots: int, targets: int) -> ScenarioConfig:
    """A scenario of ``slots`` slots with one terminal and ``targets`` target planes."""
    return ScenarioConfig(num_ues=1, num_planes=targets + 1, rb_per_target=0, horizon=slots)


def _chunk_of(c_r: np.ndarray, rates: np.ndarray) -> OutcomeColumns:
    """Columns of a chunk with (N, E, K-1) block rates and (N, E, 3) D, C_P, reward.

    The terminal of each even episode gains access in the first slot.
    """
    slots, episodes, targets = c_r.shape
    columns = OutcomeColumns(_chunk_config(slots, targets), episodes)
    flags = np.zeros((episodes, 1), dtype=bool)
    plane = np.zeros((episodes, 1), dtype=np.int64)
    gains = np.arange(episodes)[:, None] % 2 == 0
    for n in range(slots):
        d, c_p, reward = rates[n].T
        newly = gains if n == 0 else flags
        columns.append(
            StepOutcome(n + 1, plane, plane, plane, flags, flags, newly, c_r[n], c_p, c_p, d, reward)
        )
    return columns


def _metric_bits(record: MetricsRecord) -> list[str]:
    sums = (record.sum_delay, record.sum_collision_rb, record.sum_collision_prach, record.episode_return)
    return [float(v).hex() for v in sums]


rate_floats = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(0, 100).map(lambda k: k / 100),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 20), st.integers(1, 5), st.integers(1, 3)),
    data=st.data(),
)
@example(shape=(3, 2, 1), data=-0.0)
@example(shape=(10, 1, 1), data=0.1)  # 0.9999999999999999 folded; 3.12's sum gives 1.0
def test_chunk_sums_match_per_episode_sums(shape, data):
    slots, episodes, targets = shape
    if isinstance(data, float):  # every rate this value
        c_r, other = np.full((slots, episodes, targets), data), np.full((slots, episodes, 3), data)
    else:
        c_r = data.draw(hnp.arrays(np.float64, (slots, episodes, targets), elements=rate_floats))
        other = data.draw(hnp.arrays(np.float64, (slots, episodes, 3), elements=rate_floats))
    columns = _chunk_of(c_r, other)
    for e in range(episodes):
        view = EpisodeOutcomes(columns, e)
        final = SimpleNamespace(slot=slots, accessed=np.array([e % 2 == 0]))
        want = _per_episode_sums(
            columns["d"][e].tolist(),
            columns["c_r_per_target"][e],
            columns["c_p"][e].tolist(),
            columns["reward"][e].tolist(),
        )
        record = episode_metrics(view, final)
        assert _metric_bits(record) == want
        assert record.ho_success == float(e % 2 == 0)


@pytest.mark.parametrize("targets", [1, 2, 3])
def test_chunk_sums_past_numpy_buffer_match_the_episode_alone(targets):
    # numpy sums a strided block of more than np.getbufsize() cells in
    # buffer-sized pieces, so a chunk's C_R sums its blocks as contiguous
    # rows, which is what the episode's own records give.
    slots = np.getbufsize() // targets + 5
    rng = np.random.default_rng(targets)
    c_r = rng.standard_normal((slots, 3, targets)) * 10.0 ** rng.integers(-4, 4, (slots, 3, targets))
    columns = _chunk_of(c_r, rng.standard_normal((slots, 3, 3)))
    final = SimpleNamespace(slot=slots, accessed=np.ones(1, dtype=bool))
    for e in range(3):
        view = EpisodeOutcomes(columns, e)
        alone = np.array([o.c_r_per_target for o in view]).sum()
        assert episode_metrics(view, final).sum_collision_rb.hex() == float(alone).hex()
        restacked = episode_view(_chunk_config(slots, targets), [with_episode_axis(o) for o in view])
        restacked = episode_metrics(restacked, final)
        assert restacked.sum_collision_rb.hex() == float(alone).hex()


def with_episode_axis(record: StepOutcome) -> StepOutcome:
    """One episode's record as a step's outcome for a chunk of one."""
    values = (getattr(record, f.name) for f in dataclasses.fields(StepOutcome)[1:])
    return StepOutcome(record.slot, *(np.asarray(value)[None] for value in values))


def _count_step_outcomes(monkeypatch) -> list:
    built = []
    original = env_module.StepOutcome

    def counted(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(env_module, "StepOutcome", counted)
    return built


def test_evaluation_builds_one_outcome_per_slot_per_chunk(monkeypatch):
    cfg = small_config(**CASE1)
    episodes = 2 * batch_episodes(cfg) + 3
    built = _count_step_outcomes(monkeypatch)
    records = experiments.evaluate(cfg, "random", episodes, master_seed=4)
    assert len(records) == episodes
    assert 0 < len(built) <= 3 * cfg.horizon


def test_training_builds_one_outcome_per_slot_per_chunk(monkeypatch):
    cfg = small_config(num_ues=4, rb_per_target=(4, 4), num_preambles=20, horizon=8)
    vtrace_cfg = training.VtraceConfig(batch_size=40, hidden=(8, 8))
    episodes = 23
    chunks = math.ceil(episodes / math.ceil(vtrace_cfg.batch_size / cfg.horizon))
    built = _count_step_outcomes(monkeypatch)
    _, curve = training.train(cfg, vtrace_cfg, episodes=episodes, seed=1)
    assert len(curve) == episodes
    assert 0 < len(built) <= chunks * cfg.horizon


def test_episode_metrics_length_mismatch():
    env = HandoverEnv(small_config())
    env.reset(0)
    _, out = env.step(np.zeros((1, 10), dtype=int))
    with pytest.raises(ValueError):
        episode_metrics(episode_view(env.config, [out, out]), env.state.episode(0))


def _record_oracle(outcomes: EpisodeOutcomes, final) -> MetricsRecord:
    """The record one episode's own rows and final state give, one episode at a time."""
    c, e = outcomes.columns, outcomes.episode
    return MetricsRecord(
        sum_delay=fold(c["d"][e].tolist()),
        sum_collision_rb=float(np.ascontiguousarray(c["c_r_per_target"][e]).sum()),
        sum_collision_prach=fold(c["c_p"][e].tolist()),
        ho_success=np.count_nonzero(final.accessed) / final.accessed.shape[0],
        episode_return=fold(c["reward"][e].tolist()),
    )


def _watch_records(monkeypatch, module) -> list[str]:
    """Check every ``episode_metrics`` call of ``module`` against the oracle.

    Returns, per call, how the episode ended: settled before the horizon
    (so evaluation retires it), settled in the last slot, or never settled.
    """
    seen = []
    inner = module.episode_metrics

    def checked(outcomes, final_state):
        record = inner(outcomes, final_state)
        want = _record_oracle(outcomes, final_state)
        assert record == want
        bits = [[float(v).hex() for v in vars(r).values()] for r in (record, want)]
        assert bits[0] == bits[1]
        d = outcomes.columns["d"][outcomes.episode]
        settled = np.flatnonzero(d == 0)
        seen.append("never" if not len(settled) else "retired" if settled[0] < len(d) - 1 else "last slot")
        return record

    monkeypatch.setattr(module, "episode_metrics", checked)
    return seen


# One chunk of this scenario's 12 random episodes (seeds 0..11) holds
# episodes that settle early and retire, one that settles in its last slot,
# and some that never settle.
MIXED_ENDINGS = dict(num_ues=3, rb_per_target=(1, 2), num_preambles=4, horizon=4)


@pytest.mark.parametrize(
    "scenario, agent, episodes",
    [
        (MIXED_ENDINGS, "random", 12),
        (dict(num_ues=1, rb_per_target=(1, 1), num_preambles=5), "random", 30),
        (CASE1, "random", 300),
        (CASE1, "conventional", 300),
        (J100_SCARCE, "random", 30),
        (J100_SCARCE, "conventional", 30),
    ],
    ids=["mixed-endings", "J1", "case1-random", "case1-conventional", "J100-random", "J100-conventional"],
)
def test_evaluation_records_match_the_per_episode_oracle(monkeypatch, scenario, agent, episodes):
    cfg = small_config(**scenario)
    seen = _watch_records(monkeypatch, experiments)
    records = experiments.evaluate(cfg, agent, episodes, master_seed=0)
    assert len(seen) == len(records) == episodes
    if scenario is MIXED_ENDINGS:
        assert batch_episodes(cfg) >= episodes  # one chunk
        assert set(seen) == {"retired", "last slot", "never"}


@pytest.mark.parametrize(
    "scenario", [MIXED_ENDINGS, CASE1, J100_SCARCE], ids=["mixed-endings", "case1", "J100-scarce"]
)
def test_training_records_match_the_per_episode_oracle(monkeypatch, scenario):
    # A training pass ends as a whole, so an episode that settles early
    # steps on, unretired, until every episode of the pass has settled.
    cfg = small_config(**scenario)
    seen = _watch_records(monkeypatch, training)
    vtrace_cfg = training.VtraceConfig(batch_size=2 * cfg.horizon, hidden=(8, 8))
    _, curve = training.train(cfg, vtrace_cfg, episodes=6, seed=2)
    assert len(seen) == len(curve) == 6


def test_episode_metrics_records_behave_as_built_records():
    env = HandoverEnv(small_config(**MIXED_ENDINGS))
    columns, finals = env_module.play(env, [3, 4], RandomAgent(), rng_module.episode_generators([3, 4]))
    for e, final in enumerate(finals):
        record = episode_metrics(EpisodeOutcomes(columns, e), final)
        built = MetricsRecord(*(getattr(record, f.name) for f in dataclasses.fields(MetricsRecord)))
        assert type(record) is MetricsRecord
        assert record == built and hash(record) == hash(built) and repr(record) == repr(built)
        assert vars(record) == vars(built) and list(vars(record)) == list(vars(built))
        assert dataclasses.asdict(record) == dataclasses.asdict(built)
        assert record != dataclasses.replace(built, ho_success=-1.0)
        assert dataclasses.replace(record, sum_delay=2.5) == dataclasses.replace(built, sum_delay=2.5)
        assert record.sum_collision == built.sum_collision
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.ho_success = 0.0


# --- whole-episode invariants -------------------------------------------------


def run_episode(cfg: ScenarioConfig, seed: int, actions: np.ndarray):
    env = HandoverEnv(cfg)
    env.reset(seed)
    outcomes = []
    accessed_before = env.state.accessed.copy()
    for n in range(cfg.horizon):
        _, out = env.step(actions[n][None])
        now = env.state.accessed
        # Monotone access: no terminal ever loses its connection.
        assert (now | ~accessed_before).all() or (now >= accessed_before).all()
        assert not (accessed_before & ~now).any()
        accessed_before = now.copy()
        # Mutually exclusive collision kinds per terminal.
        assert not (out.rb_collision & out.prach_collision).any()
        # Commanded terminals were requesters; refused ones got no command.
        assert not out.command[out.rb_collision].any()
        assert 0.0 <= out.d <= 1.0
        assert (out.c_r_per_target >= 0).all() and (out.c_r_per_target <= 1).all()
        outcomes.append(out)
    return env, outcomes


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rb=st.integers(0, 12),
    preambles=st.integers(1, 60),
    data=st.data(),
)
def test_episode_invariants_hold(seed, rb, preambles, data):
    cfg = small_config(rb_per_target=(rb, rb), num_preambles=preambles)
    actions = np.array(
        data.draw(
            st.lists(
                st.lists(st.integers(0, 2), min_size=10, max_size=10),
                min_size=cfg.horizon,
                max_size=cfg.horizon,
            )
        )
    )
    env, outcomes = run_episode(cfg, seed, actions)
    m = episode_metrics(episode_view(cfg, outcomes), env.state.episode(0))
    # Block accounting: every spent block belongs to a completed terminal.
    completions = np.zeros(2, dtype=int)
    for out in outcomes:
        for k in (1, 2):
            completions[k - 1] += int((out.command[out.newly_accessed] == k).sum())
    assert np.array_equal(
        np.array(cfg.rb_per_target) - env.state.rb_remaining[0], completions
    )
    assert (env.state.rb_remaining >= 0).all()
    # Capacity ceiling.
    assert m.ho_success <= min(1.0, sum(cfg.rb_per_target) / cfg.num_ues) + 1e-12


def test_trace_determinism_bit_exact():
    cfg = small_config(rb_per_target=(4, 4), num_preambles=8)
    rng = np.random.default_rng(2)
    actions = rng.integers(0, 3, size=(20, 10))
    _, first = run_episode(cfg, 77, actions)
    _, second = run_episode(cfg, 77, actions)
    for a, b in zip(first, second):
        assert a.reward == b.reward
        assert np.array_equal(a.preamble, b.preamble)
        assert np.array_equal(a.command, b.command)


# --- trace export ---------------------------------------------------------------


def test_trace_csv_schema_and_determinism(tmp_path):
    cfg = small_config()
    env = HandoverEnv(cfg)
    episodes = []
    for e in range(2):
        env.reset(e)
        outcomes = [env.step(np.ones((1, 10), dtype=int))[1] for _ in range(cfg.horizon)]
        episodes.append((e, episode_columns(cfg, outcomes)))
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(path_a, episodes, cfg.num_ues, cfg.num_targets)
    write_trace_csv(path_b, episodes, cfg.num_ues, cfg.num_targets)
    content = path_a.read_text().splitlines()
    assert content[0] == ",".join(trace_header(2))
    assert content[0] == "episode,n,D,C_R_1,C_R_2,C_P,reward,accessed_count"
    assert len(content) == 1 + 2 * cfg.horizon
    assert path_a.read_bytes() == path_b.read_bytes()


def test_trace_writer_bytes_match_csv_writer(tmp_path):
    cfg = small_config(rb_per_target=(3, 3), num_preambles=4)
    env = HandoverEnv(cfg)
    rng = np.random.default_rng(8)
    episodes = []
    for e in range(3):
        env.reset(e)
        episodes.append((e, [env.step(rng.integers(0, 3, (1, 10)))[1] for _ in range(cfg.horizon)]))
    # Rows equal but for the sign of a zero are formatted apart.
    for e, zero in ((3, 0.0), (4, -0.0)):
        episodes.append((e, [dataclasses.replace(o, reward=np.full(1, zero)) for o in episodes[0][1]]))
    views = [(e, episode_view(cfg, outcomes)) for e, outcomes in episodes]
    chunks = [(e, view.columns) for e, view in views]
    write_trace_csv(tmp_path / "trace.csv", chunks, cfg.num_ues, cfg.num_targets)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(cfg.num_targets))
        for e, view in views:
            for o in view:
                writer.writerow(
                    [e, o.slot, f"{o.d:.6f}"]
                    + [f"{v:.6f}" for v in o.c_r_per_target]
                    + [f"{o.c_p:.6f}", f"{o.reward:.6f}", round(cfg.num_ues * (1.0 - o.d))]
                )
    written = (tmp_path / "trace.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 5 * cfg.horizon
    assert b",-0.000000," in written
    assert written == (tmp_path / "reference.csv").read_bytes()


def test_trace_writer_bytes_match_csv_writer_for_multi_episode_chunks(tmp_path):
    # Two chunks of three episodes through one writer, so the second reads
    # tails the first formatted; the first chunk's episodes run 998..1000,
    # across a digit boundary.  Rates are J = 100-like shares with three
    # target planes, so most rows are distinct, and the second chunk
    # repeats the first's rows in another order with a settled -0.0 reward.
    num_ues, slots, targets = 100, 20, 3
    rng = np.random.default_rng(27)
    shares = rng.integers(0, num_ues + 1, (slots, 3, targets + 2)) / num_ues
    c_r, d, c_p = shares[..., :targets], shares[..., targets], shares[..., targets + 1]
    reward = -d - c_r.sum(axis=-1) - c_p
    first = _chunk_of(c_r, np.stack((d, c_p, reward), axis=-1))
    order = rng.permutation(slots)
    reward_again = reward[order, ::-1].copy()
    reward_again[-1] = -0.0
    again_rates = np.stack((d[order, ::-1], c_p[order, ::-1], reward_again), axis=-1)
    again = _chunk_of(c_r[order, ::-1], again_rates)
    chunks = [(998, first), (1001, again)]
    write_trace_csv(tmp_path / "trace.csv", iter(chunks), num_ues, targets)
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(trace_header(targets))
        for start, columns in chunks:
            for e in range(3):
                for o in EpisodeOutcomes(columns, e):
                    writer.writerow(
                        [start + e, o.slot, f"{o.d:.6f}"]
                        + [f"{v:.6f}" for v in o.c_r_per_target]
                        + [f"{o.c_p:.6f}", f"{o.reward:.6f}", round(num_ues * (1.0 - o.d))]
                    )
    written = (tmp_path / "trace.csv").read_bytes()
    assert written.count(b"\r\n") == 1 + 6 * slots
    assert b"\r\n999,20," in written and b"\r\n1000,1," in written and b"\r\n1003,20," in written
    assert b",-0.000000," in written
    assert written == (tmp_path / "reference.csv").read_bytes()


trace_floats = st.sampled_from([0.0, -0.0, 0.1, 0.25, 1.0, 1 / 3, -1.5])


@st.composite
def trace_cases(draw):
    """Chunks of (E, N, K + 2) trace rows: D, C_R_1.., C_P, reward.

    Each episode ends in a run of 0 to N copies of one row, after rows
    drawn from the same few rows, so runs also form by chance.  The chunks
    follow on from a first episode next to a digit boundary.
    """
    slots, targets = draw(st.integers(1, 5)), draw(st.integers(1, 2))
    row = st.tuples(*[trace_floats] * (targets + 3))
    settled = (0.0,) * (targets + 2) + (-0.0,)  # D, C_R and C_P 0.0, the reward -0.0
    palette = [settled, *draw(st.lists(row, min_size=1, max_size=3))]
    first = draw(st.sampled_from([0, 7, 97, 996]))
    chunks = []
    for _ in range(draw(st.integers(1, 3))):
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            run = draw(st.integers(0, slots))
            body = draw(st.lists(st.sampled_from(palette), min_size=slots - run, max_size=slots - run))
            rows.append(body + [draw(st.sampled_from(palette))] * run)
        chunks.append((first, np.array(rows)))
        first += len(rows)
    return targets, chunks


def _rows_chunk(rows: np.ndarray) -> OutcomeColumns:
    """The outcome columns whose trace rows are ``rows`` (E, N, K + 2)."""
    d, c_r, c_p, reward = rows[..., 0], rows[..., 1:-2], rows[..., -2], rows[..., -1]
    return _chunk_of(c_r.swapaxes(0, 1), np.stack((d, c_p, reward), axis=-1).swapaxes(0, 1))


def _example(targets: int, *chunks):
    """An explicit case of ``trace_cases``: (first episode, rows as nested lists) pairs."""
    return example(case=(targets, [(first, np.array(rows)) for first, rows in chunks]))


# Rows of one target plane: two live rows, and a settled row beside one
# that differs only by the sign of its zero reward.
ROW_A, ROW_B = (0.25, 0.0, 0.1, -0.35), (0.1, 0.0, 0.0, -0.1)
ROW_ZERO, ROW_SETTLED = (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, -0.0)


@settings(max_examples=80, deadline=None)
@given(case=trace_cases())
@_example(1, (0, [[ROW_A]]), (1, [[ROW_SETTLED]]))  # N = 1
# Every row equal; runs of one row from different slots; a run of a live row.
@_example(1, (8, [[ROW_A, ROW_B, ROW_SETTLED, ROW_SETTLED], [ROW_SETTLED] * 4, [ROW_B] * 4]))
# -0.0 beside 0.0, inside a run and at the end of one.
@_example(
    1,
    (98, [[ROW_A, *[ROW_ZERO] * 2, *[ROW_SETTLED] * 2], [*[ROW_SETTLED] * 2, *[ROW_ZERO] * 3]]),
    (100, [[ROW_A, *[ROW_ZERO] * 2, *[ROW_SETTLED] * 2]]),
)
# One run string for episodes of one chunk and of the next.
@_example(
    1,
    (998, [[ROW_A, ROW_SETTLED, ROW_SETTLED], [ROW_B, ROW_SETTLED, ROW_SETTLED]]),
    (1000, [[ROW_A, ROW_SETTLED, ROW_SETTLED]]),
)
@_example(1, (0, [[ROW_A, ROW_B] * 5 + [ROW_SETTLED]] * 12))  # no run, past episode 9
def test_trace_writer_runs_match_csv_writer(case):
    targets, chunks = case
    num_ues = 10
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "trace.csv", Path(tmp) / "reference.csv"
        write_trace_csv(path, ((first, _rows_chunk(rows)) for first, rows in chunks), num_ues, targets)
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(trace_header(targets))
            for first, rows in chunks:
                for e, episode in enumerate(rows.tolist(), start=first):
                    for n, (d, *rest) in enumerate(episode, start=1):
                        writer.writerow([e, n, *(f"{v:.6f}" for v in (d, *rest)), round(num_ues * (1.0 - d))])
        assert path.read_bytes() == reference.read_bytes()


# --- measurements ------------------------------------------------------------------


@pytest.mark.parametrize("period, samples", [(0.3, 1), (0.1, 3)])
def test_measurements_fold_samples_per_slot(period, samples):
    cfg = small_config(measurement_period_s=period, shadowing_sigma_db=0.0)
    assert cfg.samples_per_slot == samples
    env = HandoverEnv(cfg)
    env.reset(2)
    for _ in range(3):
        env.step(np.zeros((1, 10), dtype=int))
    folded = env.measurements()

    # Oracle: L1 samples at slot start + m * period, m = 1..M, folded in time order.
    positions, velocities = orbital.default_constellation(
        cfg.altitude_m, cfg.num_planes, cfg.slot_s, cfg.horizon, cfg.area_m
    )
    ues = env.state.ue_positions[0]

    def rsrp(t):
        out = np.empty((cfg.num_ues, cfg.num_planes))
        for j, ue in enumerate(ues):
            for k in range(cfg.num_planes):
                sat = positions[k] + t * velocities[k]
                d_km = orbital.slant_distance(sat, ue) / 1e3
                out[j, k] = link.rsrp_proxy(link.DL_EIRP_DBW, d_km, link.DL_CARRIER_GHZ)
        return out

    l3 = rsrp(0.0)
    for n in range(3):
        for m in range(1, samples + 1):
            l3 = link.l3_filter(l3, rsrp(n * cfg.slot_s + m * period), cfg.beta_l3)
    assert np.allclose(folded.l3_dbm, l3, rtol=0.0, atol=1e-9)
