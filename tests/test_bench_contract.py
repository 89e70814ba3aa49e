"""The program names the benchmark in ``bench/`` hooks, read without editing it.

The benchmark wraps ``episode_metrics`` where evaluation and training look it
up, on ``experiments`` and on ``training``, to sample the machine's speed and
to check every episode; the chunk engine, ``env.play``, returns outcome
columns and final states and calls it for neither.  Its traced run patches the
attributes listed in ``bench/tracing.TARGETS``, among them the
``rollout_segment`` and ``dho_decide`` that ``train`` looks up on
``training``, and its hooks read the calls' arguments: the learner rows of
``net.forward_batch(params, rows, out=trunk)``, the ``inputs`` of the
``net.TrunkBuffers`` that ``net.backward_trunk(params, trunk, ...)`` reads
back (the rows that forward pass ran on, which the trunk views), and the
segments of ``training.loss_and_gradient(params, segments, ...)``.  Its
set-up probe calls ``parse_spec_file``, ``HandoverEnv.reset(seed)`` with an
int seed (a chunk of one episode), ``make_agent(kind, params=...)`` and
``init_params``.  A refactor that renames one of them, changes their
signatures, or stops calling ``episode_metrics`` once per episode, silently
breaks the checked or traced benchmark run.
"""

import dataclasses
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from leoho import env, experiments, orbital, training, vtrace
from leoho.env import ScenarioConfig, StepOutcome, batch_episodes

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
from checks import EpisodeChecker  # noqa: E402
from workloads import patched  # noqa: E402


def test_every_trace_target_resolves():
    missing = [name for owner, attr, name in tracing.TARGETS if not hasattr(owner, attr)]
    assert not missing


def test_measurement_fold_propagates_through_the_traced_name():
    # The tracer counts ``orbital.propagate`` by patching the module
    # attribute, so the env must look it up there once per folded slot.
    # The conventional agent reads the fold before each decision, so before
    # the last of the S slots decided until the chunk settles, slots
    # 0..S-2 have ended; the random agent never reads it.
    scenario = ScenarioConfig()
    inner = orbital.propagate
    for kind in ("conventional", "random"):
        calls = []

        def counted(*args):
            calls.append(args)
            return inner(*args)

        with patched(orbital, "propagate", counted):
            [(_, _, columns)] = experiments.evaluate_chunks(
                scenario, kind, batch_episodes(scenario), 3, None, "greedy", keep=("d",)
            )
        # The decided slots end with the first one after which every
        # terminal of the chunk has access.
        delay = columns["d"].any(axis=0)
        decided = scenario.horizon if delay.all() else 1 + int(np.argmin(delay))
        assert decided < scenario.horizon, kind  # the chunk settles
        assert len(calls) == (decided - 1 if kind == "conventional" else 0), kind


def test_step_grants_and_accesses_through_the_traced_names():
    # The tracer times ``env.admission`` and ``env.rach`` per call and counts
    # their requests, grants and collisions by patching the module
    # attributes, so ``HandoverEnv.step`` must look each up there once per
    # slot: slots whose contended targets have no block left, and slots that
    # command nobody, included.
    scenario = ScenarioConfig(num_ues=100, rb_per_target=30, num_preambles=80)
    calls = {"admission": [], "rach": []}
    with ExitStack() as stack:
        for name, seen in calls.items():

            def counted(*args, inner=getattr(env, name), seen=seen):
                seen.append([np.copy(a) for a in args])
                return inner(*args)

            stack.enter_context(patched(env, name, counted))
        experiments.evaluate(scenario, "random", batch_episodes(scenario), master_seed=1)
    assert len(calls["admission"]) == len(calls["rach"]) == scenario.horizon

    def settled(requested, rb):
        contended = (requested[..., None] == np.arange(1, scenario.num_planes)).sum(axis=-2) > rb
        return contended.any() and not rb[contended].any()

    assert any(settled(requested, rb) for requested, rb, *_ in calls["admission"])
    assert not all(command.any() for command, *_ in calls["rach"])


def test_learner_targets_go_through_the_traced_name():
    # The tracer times ``vtrace.vtrace_targets`` by patching the module
    # attribute, so every learner update must look it up there.
    scenario = ScenarioConfig(num_ues=4, rb_per_target=(2, 2), num_preambles=6, horizon=8)
    inner = vtrace.vtrace_targets
    # Batches of five: 13 episodes make two updates, and a trailing partial
    # batch of three that is rolled out but not learned from.
    for vtrace_enabled in (True, False):
        cfg = training.VtraceConfig(batch_size=40, hidden=(8, 8), vtrace_enabled=vtrace_enabled)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return inner(*args, **kwargs)

        with patched(vtrace, "vtrace_targets", counted):
            training.train(scenario, cfg, episodes=13, seed=2)
        assert [len(segments) for segments in calls] == [5, 5], vtrace_enabled


def test_learner_hooks_count_each_update_row_once():
    # The traced run's learner metrics read three hooks: the rows of each
    # learner ``forward_batch`` (the one outside ``net.forward``), the rows
    # of the trunk each ``backward_trunk`` reads back, and the transitions
    # of each ``loss_and_gradient``.  The tracer wraps them with the real
    # arguments and results, so one learner pass per update counts each
    # row once in all three.
    scenario = ScenarioConfig(num_ues=4, rb_per_target=(2, 2), num_preambles=6, horizon=8)
    for vtrace_enabled in (True, False):
        cfg = training.VtraceConfig(batch_size=40, hidden=(8, 8), vtrace_enabled=vtrace_enabled)
        tracer = tracing.Tracer()
        with ExitStack() as stack:
            tracer.install(stack)
            # Batches of five: two updates, and a trailing partial batch.
            training.train(scenario, cfg, episodes=13, seed=2)
        counts = tracer.fold(wall_s=1.0).counts
        rows = counts["training.updates"] * cfg.batch_episodes(scenario.horizon) * scenario.horizon
        assert counts["training.updates"] == 2, vtrace_enabled
        assert (
            counts["net.backward_trunk.rows"]
            == counts["net.forward_batch.learner_rows"]
            == counts["training.transitions"]
            == rows
        ), (vtrace_enabled, counts)


def test_run_writes_each_report_through_the_traced_name(tmp_path):
    # The tracer times the report writers by patching them on ``experiments``,
    # so a run must look each one up there, once per file it writes.
    spec = experiments.ExperimentSpec(
        scenario=ScenarioConfig(num_ues=4, rb_per_target=(4, 4), num_preambles=20, horizon=8),
        training=training.VtraceConfig(batch_size=40, hidden=(8, 8)),
        agent="dho",
        eval_episodes=3,
        train_episodes=7,
    )
    writers = ("write_trace_csv", "write_summary_csv", "write_curve_csv", "save_checkpoint")
    calls = []
    with ExitStack() as stack:
        for name in writers:

            def counted(*args, name=name, inner=getattr(experiments, name)):
                calls.append(name)
                return inner(*args)

            stack.enter_context(patched(experiments, name, counted))
        experiments.run_experiment(spec, tmp_path)
    assert sorted(calls) == sorted(writers)
    assert {path.name for path in tmp_path.iterdir()} == {
        "trace.csv", "summary.csv", "curve.csv", "checkpoint.npz"
    }


def test_setup_probe_runs():
    # ``bench/run.py`` times set-up by building an env, the agents and a
    # policy from a spec in a fresh interpreter, and prints the seconds.
    spec = ROOT / "scripts" / "case1.spec"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--setup-probe", str(spec), "--seed", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    float(proc.stdout.splitlines()[-1])


def _watch_episode_metrics(stack: ExitStack, module, scenario) -> tuple[EpisodeChecker, list]:
    """The benchmark's checker, plus the outcomes each call receives."""
    checker = EpisodeChecker(scenario)
    checker.install(stack)
    seen = []
    inner = module.episode_metrics

    def keep(outcomes, final_state):
        seen.append(outcomes)
        return inner(outcomes, final_state)

    stack.enter_context(patched(module, "episode_metrics", keep))
    return checker, seen


def _assert_records(outcomes, horizon):
    records = list(outcomes)
    assert len(records) == horizon
    assert all(type(o) is StepOutcome for o in records)
    # The checker's own test builds a bad outcome this way.
    bad = dataclasses.replace(records[0], reward=records[0].reward - 0.5)
    assert bad.reward == records[0].reward - 0.5


def test_evaluate_calls_episode_metrics_once_per_episode():
    scenario = ScenarioConfig(num_ues=10, rb_per_target=(3, 3), num_preambles=8)
    episodes = batch_episodes(scenario) + 3  # two chunks
    with ExitStack() as stack:
        checker, seen = _watch_episode_metrics(stack, experiments, scenario)
        records = experiments.evaluate(scenario, "random", episodes, master_seed=3)
    assert len(records) == len(seen) == checker.checked == episodes
    assert checker.failed == 0
    _assert_records(seen[-1], scenario.horizon)


def test_train_calls_episode_metrics_once_per_episode():
    scenario = ScenarioConfig(num_ues=4, rb_per_target=(2, 2), num_preambles=6, horizon=8)
    # Batches of five: with V-trace, one pass of two batches and one of three
    # episodes; without, passes of five, five and three.
    episodes = 13
    for vtrace_enabled in (True, False):
        cfg = training.VtraceConfig(batch_size=40, hidden=(8, 8), vtrace_enabled=vtrace_enabled)
        with ExitStack() as stack:
            checker, seen = _watch_episode_metrics(stack, training, scenario)
            _, curve = training.train(scenario, cfg, episodes=episodes, seed=2)
        assert len(curve) == len(seen) == checker.checked == episodes
        assert checker.failed == 0
        _assert_records(seen[0], scenario.horizon)
