"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear.
The training-dependent criteria share cached policies via module fixtures;
everything is seeded, so outcomes are reproducible run to run.
"""

import dataclasses
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from leoho import link, net, orbital
from leoho.env import HandoverEnv, ScenarioConfig, batch_episodes
from leoho.env import rach as rach_op
from leoho.experiments import (
    DESK_TRAINING,
    behavior_stats,
    evaluate,
    evaluate_chunks,
    save_checkpoint,
    scenario_for_case,
    summary_row,
)
from leoho.training import LearnerBuffers, VtraceConfig, loss_and_gradient_with_targets, train
from leoho.vtrace import TrajectorySegment, vtrace_from_values, vtrace_targets

EVAL_EPISODES = 1000


def announce(number: int, text: str, elapsed: float) -> None:
    print(f"\n[PASS] criterion {number:2d} ({elapsed:6.1f}s): {text}", flush=True)


# --------------------------------------------------------------------------
# Criterion 1: analytic gradients of the three-term loss vs. finite differences.
# --------------------------------------------------------------------------


def test_criterion_01_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    params = net.init_params(5, 2, 3, hidden=(8, 8), rng=rng)
    behavior = net.init_params(5, 2, 3, hidden=(8, 8), rng=rng)
    episodes = []
    for _ in range(3):
        length = 4
        observations = rng.uniform(0, 1, size=(length, 5))
        actions = rng.integers(0, 3, size=(length, 2))
        masks = (rng.uniform(size=(length, 2)) > 0.25).astype(float)
        logits, _ = net.forward_batch(behavior, observations)
        logprobs = net.head_log_probs(logits, actions) * masks
        episodes.append((observations, actions, logprobs, rng.normal(size=length), masks))
    segments = TrajectorySegment(*map(np.stack, zip(*episodes)), bootstrap_value=0.0)
    cfg = VtraceConfig(gamma=0.95, entropy_coeff=0.011, baseline_coeff=0.55, hidden=(8, 8))
    observations = segments.observations.reshape(-1, 5)
    logits, values = net.forward_batch(params, observations)
    targets, advantages = vtrace_targets(
        segments,
        values.reshape(segments.rewards.shape),
        net.head_log_probs(logits.reshape(segments.actions.shape + (3,)), segments.actions),
        cfg.gamma,
        cfg.rho_bar,
        cfg.c_bar,
    )
    targets, advantages = targets.ravel(), advantages.ravel()
    # The analytic gradients live in their own buffers, which the probes' passes leave alone.
    buffers, probe = (LearnerBuffers.allocate(params, segments.rewards.size) for _ in range(2))
    _, grads = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, buffers)

    h = 1e-5
    worst = 0.0
    for name, tensor in params.tensors().items():
        flat = tensor.ravel()
        grad_flat = grads[name].ravel()
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + h
            up = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, probe)[0].total
            flat[idx] = keep - h
            down = loss_and_gradient_with_targets(params, segments, targets, advantages, cfg, probe)[0].total
            flat[idx] = keep
            numeric = (up - down) / (2 * h)
            denom = max(abs(numeric), abs(grad_flat[idx]), 1e-6)
            worst = max(worst, abs(numeric - grad_flat[idx]) / denom)

    elapsed = time.perf_counter() - start
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 10.0
    announce(1, f"all gradient components within 1e-4 of central differences (worst {worst:.1e})", elapsed)


# --------------------------------------------------------------------------
# Criterion 2: V-trace backward recursion vs. the direct double sum.
# --------------------------------------------------------------------------


def direct_double_sum(rewards, values, bootstrap, log_ratios, gamma, rho_bar, c_bar):
    ratios = np.exp(log_ratios)
    rho = np.minimum(rho_bar, ratios)
    c = np.minimum(c_bar, ratios)
    values_ext = np.append(values, bootstrap)
    deltas = rho * (rewards + gamma * values_ext[1:] - values_ext[:-1])
    length = len(rewards)
    out = np.empty(length)
    for n in range(length):
        acc = values_ext[n]
        for m in range(n, length):
            acc += gamma ** (m - n) * np.prod(c[n:m]) * deltas[m]
        out[n] = acc
    return out


def test_criterion_02_vtrace_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        rewards = rng.normal(size=5)
        values = rng.normal(size=5)
        bootstrap = float(rng.normal())
        log_ratios = rng.normal(scale=0.8, size=5)
        gamma = rng.uniform(0.85, 0.99)
        rho_bar = rng.uniform(0.4, 2.0)
        c_bar = rng.uniform(0.2, rho_bar)
        fast, _, _ = vtrace_from_values(rewards, values, bootstrap, log_ratios, gamma, rho_bar, c_bar)
        slow = direct_double_sum(rewards, values, bootstrap, log_ratios, gamma, rho_bar, c_bar)
        worst = max(worst, float(np.abs(fast - slow).max()))
    assert worst < 1e-10

    # Behavior policy identical to the target policy: exact n-step returns.
    params = net.init_params(6, 2, 3, hidden=(8, 8), rng=rng)
    for _ in range(20):
        length = 5
        observations = rng.uniform(0, 1, size=(length, 6))
        actions = rng.integers(0, 3, size=(length, 2))
        masks = np.ones((length, 2))
        logits, values_net = net.forward_batch(params, observations)
        segment = TrajectorySegment(
            observations=observations,
            actions=actions,
            behavior_logprobs=net.head_log_probs(logits, actions),
            rewards=rng.normal(size=length),
            masks=masks,
            bootstrap_value=float(rng.normal()),
        )
        gamma = 0.95
        target_logp = net.head_log_probs(logits, actions)
        targets, _ = vtrace_targets(segment, values_net, target_logp, gamma, 1.0, 1.0)
        for n in range(length):
            n_step = sum(gamma ** (m - n) * segment.rewards[m] for m in range(n, length))
            n_step += gamma ** (length - n) * segment.bootstrap_value
            assert targets[n] == pytest.approx(n_step, abs=1e-12)

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(2, f"recursion == double sum to 1e-10 on 100 segments (worst {worst:.1e}); on-policy reduces to n-step", elapsed)


# --------------------------------------------------------------------------
# Criterion 3: 1e5 random-action episodes violate no environment invariant.
# --------------------------------------------------------------------------

INVARIANT_MIXES = [
    # (episodes, rb per target, preambles, planes)
    (40_000, 10, 50, 3),
    (25_000, 3, 50, 3),
    (25_000, 10, 8, 3),
    (10_000, 4, 6, 4),
]


# Episodes per worker and mix stepped through the single-episode API.
SINGLE_EPISODES = 150


def _invariant_worker(args):
    worker_id, jobs = args
    violations = []
    episodes_done = 0
    for episodes, rb, preambles, planes in jobs:
        cfg = ScenarioConfig(
            num_ues=10,
            num_planes=planes,
            rb_per_target=tuple([rb] * (planes - 1)),
            num_preambles=preambles,
        )
        env = HandoverEnv(cfg)
        rng = np.random.default_rng((worker_id, episodes, rb, preambles, planes))
        ceiling = min(1.0, sum(cfg.rb_per_target) / cfg.num_ues)
        # The first episodes go one at a time through reset(seed), a chunk
        # of one; the rest run in lockstep chunks, as evaluation runs them.
        # Each keeps its seed key and its (N, J) actions, drawn in episode order.
        single = min(SINGLE_EPISODES, episodes)
        bounds = [*range(single), *range(single, episodes, batch_episodes(cfg)), episodes]
        for start, stop in zip(bounds, bounds[1:]):
            batch = np.arange(start, stop)
            keys = [(worker_id, rb, preambles, planes, e) for e in batch]
            one = start < single
            if one:
                env.reset(keys[0])
            else:
                env.reset(episodes=keys)
            actions = np.stack(
                [rng.integers(0, planes, size=(cfg.horizon, cfg.num_ues)) for _ in batch]
            )
            previous = np.atleast_2d(env.state.accessed).copy()
            for n in range(cfg.horizon):
                _, out = env.step(actions[:, n])
                accessed = np.atleast_2d(env.state.accessed)
                rb_collision = np.atleast_2d(out.rb_collision)
                prach_collision = np.atleast_2d(out.prach_collision)
                d = np.atleast_1d(out.d)
                c_r = np.atleast_2d(out.c_r_per_target)
                for name, bad in (
                    ("monotone access", (previous & ~accessed).any(axis=1)),
                    ("collision exclusivity", (rb_collision & prach_collision).any(axis=1)),
                    ("delay range", ~((d >= 0.0) & (d <= 1.0))),
                    ("admission rate range", ((c_r < 0) | (c_r > 1)).any(axis=1)),
                ):
                    violations += [(name, e, n) for e in batch[bad]]
                previous = accessed.copy()
            rb_remaining = np.atleast_2d(env.state.rb_remaining)
            completed = np.atleast_2d(env.state.accessed).sum(axis=1)
            spent = np.array(cfg.rb_per_target) - rb_remaining
            accounting = (rb_remaining < 0).any(axis=1) | (spent.sum(axis=1) != completed)
            violations += [("block accounting", e, -1) for e in batch[accounting]]
            over = completed / cfg.num_ues > ceiling + 1e-12
            violations += [("capacity ceiling", e, -1) for e in batch[over]]
            episodes_done += len(batch)
            if len(violations) > 5:
                return episodes_done, violations
    return episodes_done, violations


def test_criterion_03_environment_invariant_suite():
    start = time.perf_counter()
    # Split every scenario mix across two workers.
    jobs = [[], []]
    for episodes, rb, preambles, planes in INVARIANT_MIXES:
        half = episodes // 2
        jobs[0].append((half, rb, preambles, planes))
        jobs[1].append((episodes - half, rb, preambles, planes))
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_invariant_worker, [(0, jobs[0]), (1, jobs[1])]))
    total = sum(r[0] for r in results)
    violations = [v for r in results for v in r[1]]
    elapsed = time.perf_counter() - start
    assert total == 100_000
    assert not violations, violations[:5]
    assert elapsed < 120.0
    single = sum(min(SINGLE_EPISODES, job[0]) for worker in jobs for job in worker)
    announce(3, f"100000 random episodes ({single} one at a time), zero invariant violations", elapsed)


# --------------------------------------------------------------------------
# Criterion 4: contention rate matches the closed form within 3 sigma.
# --------------------------------------------------------------------------


def test_criterion_04_rach_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    trials = 100_000
    reports = []
    for m, preambles in ((2, 1), (5, 8), (10, 50)):
        command = np.tile([1] * m + [0] * (10 - m), (trials, 1))
        signatures = rng.integers(1, preambles + 1, size=command.shape)
        _, _, rates = rach_op(command, preambles, 10, signatures, 1)
        expected = (m / 10) * (1 - (1 - 1 / preambles) ** (m - 1))
        sem = rates.std() / math.sqrt(trials)
        gap = abs(rates.mean() - expected)
        assert gap <= max(3 * sem, 1e-12), f"(m={m}, P={preambles}): gap {gap:.2e} > 3 sigma {3*sem:.2e}"
        reports.append(f"(m={m},P={preambles}) gap={gap:.1e}<=3sigma")
    elapsed = time.perf_counter() - start
    announce(4, "empirical contention rate matches (m/J)(1-(1-1/P)^(m-1)): " + ", ".join(reports), elapsed)


# --------------------------------------------------------------------------
# Trained policies shared by criteria 5-8.
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def case2_policy():
    return train(scenario_for_case("case2"), DESK_TRAINING, episodes=4000, seed=0)[0]


@pytest.fixture(scope="module")
def case1_policies():
    scenario = scenario_for_case("case1")
    return [train(scenario, DESK_TRAINING, episodes=2000, seed=s)[0] for s in (0, 1, 2)]


def test_criterion_05_capacity_ceiling_reproduction(case2_policy):
    start = time.perf_counter()
    scenario = scenario_for_case("case2")  # 3 + 3 blocks for 10 terminals
    succ = {}
    for kind, params in (("conventional", None), ("random", None), ("dho", case2_policy)):
        records = evaluate(scenario, kind, EVAL_EPISODES, 20_000, params=params)
        succ[kind] = float(np.mean([r.ho_success for r in records]))
        assert abs(succ[kind] - 0.60) <= 0.05, f"{kind}: H={succ[kind]:.3f} not within 0.60 +- 0.05"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    text = ", ".join(f"{k} H={v:.3f}" for k, v in succ.items())
    announce(5, f"capacity ceiling 0.60 +- 0.05 for all agents ({text})", elapsed)


def test_criterion_06_ordering_reproduction(case1_policies):
    start = time.perf_counter()
    scenario = scenario_for_case("case1")
    dho_delays = []
    for params in case1_policies:
        records = evaluate(scenario, "dho", EVAL_EPISODES, 30_000, params=params)
        dho_delays.append(float(np.mean([r.sum_delay for r in records])))
    dho = float(np.mean(dho_delays))
    random_records = evaluate(scenario, "random", EVAL_EPISODES, 30_000)
    conventional_records = evaluate(scenario, "conventional", EVAL_EPISODES, 30_000)
    rnd = float(np.mean([r.sum_delay for r in random_records]))
    conv = float(np.mean([r.sum_delay for r in conventional_records]))

    assert dho < rnd < conv, f"ordering violated: dho={dho:.3f} random={rnd:.3f} conventional={conv:.3f}"
    assert dho <= 0.5 * rnd, f"learned agent only {rnd/dho:.2f}x faster than random (need >= 2x)"
    elapsed = time.perf_counter() - start
    announce(
        6,
        f"delay ordering dho {dho:.3f} < random {rnd:.3f} < conventional {conv:.3f}; "
        f"speedup {rnd/dho:.1f}x over random (3 seeds)",
        elapsed,
    )


def test_criterion_07_delay_collision_tradeoff():
    start = time.perf_counter()
    base = scenario_for_case("case1")  # enough blocks, five signatures per terminal
    stats = {}
    for nu, episodes in ((5.0, 2000), (1.0 / 20.0, 4000)):
        scenario = dataclasses.replace(base, nu=nu)
        params, _ = train(scenario, DESK_TRAINING, episodes=episodes, seed=0)
        records = evaluate(scenario, "dho", EVAL_EPISODES, 40_000, params=params, eval_mode="sample")
        stats[nu] = (
            np.array([r.sum_delay for r in records]),
            np.array([r.sum_collision for r in records]),
        )

    def welch(a, b):
        return (a.mean() - b.mean()) / math.sqrt(a.var() / a.size + b.var() / b.size)

    delay5, coll5 = stats[5.0]
    delay05, coll05 = stats[0.05]
    t_delay = welch(delay05, delay5)  # collision-averse should be slower
    t_coll = welch(coll5, coll05)  # delay-aware should collide more
    assert delay5.mean() < delay05.mean() and t_delay > 3.0, f"delay direction t={t_delay:.1f}"
    assert coll5.mean() > coll05.mean() and t_coll > 3.0, f"collision direction t={t_coll:.1f}"
    elapsed = time.perf_counter() - start
    announce(
        7,
        f"delay-aware (nu=5) delay {delay5.mean():.3f} < collision-averse {delay05.mean():.3f} (t={t_delay:.0f}); "
        f"collisions {coll5.mean():.3f} > {coll05.mean():.3f} (t={t_coll:.0f})",
        elapsed,
    )


def test_criterion_08_behavior_reproduction():
    start = time.perf_counter()
    abundant = scenario_for_case("abundant")
    scarce = scenario_for_case("scarce")
    params_abundant, _ = train(abundant, DESK_TRAINING, episodes=4000, seed=1)
    params_scarce, _ = train(scarce, DESK_TRAINING, episodes=4000, seed=1)
    request_abundant, _ = behavior_stats(params_abundant, abundant, episodes=300, master_seed=50_000)
    _, wait_scarce = behavior_stats(params_scarce, scarce, episodes=300, master_seed=50_000)
    assert request_abundant > 0.5, f"abundant request fraction {request_abundant:.3f}"
    assert wait_scarce > 0.5, f"scarce wait fraction {wait_scarce:.3f}"
    elapsed = time.perf_counter() - start
    announce(
        8,
        f"abundant-resource policy requests {request_abundant:.1%} of the time; "
        f"scarce-resource policy waits {wait_scarce:.1%}",
        elapsed,
    )


# --------------------------------------------------------------------------
# Criterion 9: link-budget spot checks and the propagation-delay band.
# --------------------------------------------------------------------------


def test_criterion_09_link_budget_checks():
    start = time.perf_counter()
    # Spreadsheet oracle, written out term by term.
    vsat = (33.0 - 30.0) + 43.2
    vsat -= 20 * math.log10(30) + 20 * math.log10(600) + 92.45
    vsat -= 0.5 + 0.0 + 0.3
    vsat += 13.0 + 228.6 - 10 * math.log10(400e6)
    handheld = (23.0 - 30.0) + 0.0
    handheld -= 20 * math.log10(2) + 20 * math.log10(600) + 92.45
    handheld -= 0.1 + 3.0 + 2.2
    handheld += 1.1 + 228.6 - 10 * math.log10(0.4e6)
    assert abs(link.cnr(link.VSAT, 600.0) - vsat) < 0.01
    assert abs(link.cnr(link.HANDHELD, 600.0) - handheld) < 0.01

    # One-way delay across the service altitudes.  The quoted 6 ms upper
    # edge corresponds to ~1798 km; at the literal 2000 km endpoint the
    # physics gives 6.67 ms, so the band check carries that allowance.
    altitudes = np.linspace(500e3, 2000e3, 31)
    delays = np.array([orbital.propagation_delay(a) for a in altitudes])
    assert delays.min() >= 1.6e-3
    assert delays.max() <= 6.7e-3
    assert orbital.propagation_delay(1798e3) <= 6.0e-3
    assert np.all(np.diff(delays) > 0)

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce(
        9,
        f"CNR vsat {link.cnr(link.VSAT, 600.0):.2f} dB / handheld {link.cnr(link.HANDHELD, 600.0):.2f} dB "
        f"match the budget oracle; delays span {delays.min()*1e3:.2f}-{delays.max()*1e3:.2f} ms",
        elapsed,
    )


# --------------------------------------------------------------------------
# Criterion 10: bit-identical repetition with a fixed seed and one actor.
# --------------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    start = time.perf_counter()
    scenario = scenario_for_case("case1")
    cfg = dataclasses.replace(DESK_TRAINING, actors_count=1)

    curves = []
    for run in ("a", "b"):
        params, curve = train(scenario, cfg, episodes=200, seed=11)
        save_checkpoint(params, tmp_path / f"{run}.npz")
        curves.append([(r.episode_return, r.sum_delay, r.sum_collision) for r in curve])
    assert curves[0] == curves[1]
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    rows = []
    traces = []
    for _ in range(2):
        chunks = list(
            evaluate_chunks(scenario, "conventional", 50, 11, None, "greedy", keep=("reward", "preamble"))
        )
        rows.append(summary_row([r for _, metrics, _ in chunks for r in metrics], "conventional"))
        traces.append([(c["reward"].tolist(), c["preamble"].tolist()) for _, _, c in chunks])
    assert rows[0] == rows[1]
    assert traces[0] == traces[1]

    elapsed = time.perf_counter() - start
    announce(10, "repeated single-actor runs are bit-identical (curves, checkpoints, traces)", elapsed)
