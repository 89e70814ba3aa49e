"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import dataclasses
import json
import shutil
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.pin_threads()
run.load_leoho()

from checks import EpisodeChecker, episode_ok  # noqa: E402
from leoho import experiments  # noqa: E402
from tracing import Tracer, cycle_counts, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, patched, run_cycle, write_specs  # noqa: E402

SMALL = {
    name: dataclasses.replace(w, train_episodes=30, dho_episodes=10, random_episodes=10,
                              conventional_episodes=10)
    for name, w in WORKLOADS.items()
}


def _outputs(work_dir: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(work_dir)): path.read_bytes()
        for path in sorted(work_dir.glob("*/*.csv"))
    }


def _traced_cycle(specs, work_dir, tracer):
    with ExitStack() as stack:
        tracer.install(stack)
        results = run_cycle(specs, work_dir)
    return results


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_outputs_are_byte_identical(tmp_path, name):
    specs = write_specs(SMALL[name], 7, tmp_path)
    run_cycle(specs, tmp_path)
    untraced = _outputs(tmp_path)
    _traced_cycle(specs, tmp_path, Tracer())
    traced = _outputs(tmp_path)
    assert {"dho/summary.csv", "dho/curve.csv", "random/summary.csv"} <= set(untraced)
    assert traced == untraced


def test_counts_repeat_exactly_at_one_seed(tmp_path):
    specs = write_specs(SMALL["scale-J100-scarce"], 3, tmp_path)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        results = _traced_cycle(specs, tmp_path, tracer)
        counts.append(cycle_counts(tracer.fold(sum(r.wall_s for r in results))))
    assert counts[0] == counts[1]
    assert counts[0]["env.step.calls"] > 0
    assert counts[0]["env.admission.grants"] < counts[0]["env.admission.requests"]


def test_spans_of_one_episode_share_an_id(tmp_path):
    specs = write_specs(SMALL["train-case1"], 5, tmp_path)
    tracer = Tracer()
    _traced_cycle(specs, tmp_path, tracer)
    step_ids = {e for n, e in zip(tracer.names, tracer.episodes) if n == "env.step"}
    assert 0 not in step_ids
    assert len(step_ids) == 30 + 10 + 10 + 10
    for i, name in enumerate(tracer.names):
        parent = tracer.parents[i]
        if name == "env.admission":
            assert tracer.names[parent] == "env.step"
            assert tracer.episodes[parent] == tracer.episodes[i]
            assert tracer.starts[parent] <= tracer.starts[i] <= tracer.ends[i] <= tracer.ends[parent]
    learner = [e for n, e in zip(tracer.names, tracer.episodes) if n == "training.Adam.step"]
    assert learner and set(learner) == {0}


def test_per_layer_metrics_match_benchmark_json(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    specs = write_specs(SMALL["eval-case1"], 1, tmp_path)
    tracer = Tracer()
    results = _traced_cycle(specs, tmp_path, tracer)
    metrics = per_layer_metrics([tracer.fold(sum(r.wall_s for r in results))], 0.1)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()
    }
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_checker_passes_clean_episodes_and_catches_a_wrong_reward(tmp_path):
    specs = write_specs(SMALL["scale-J100-scarce"], 2, tmp_path)
    scenario = experiments.parse_spec_file(specs["random"]).scenario
    checker = EpisodeChecker(scenario)
    seen = []
    with ExitStack() as stack:
        checker.install(stack)
        inner = experiments.episode_metrics

        def keep(outcomes, final_state):
            seen.append((outcomes, final_state))
            return inner(outcomes, final_state)

        stack.enter_context(patched(experiments, "episode_metrics", keep))
        run_cycle(specs, tmp_path)
    assert checker.checked == 30 + 10 + 10 + 10
    assert checker.failed == 0
    outcomes, final_state = seen[0]
    record = experiments.episode_metrics(outcomes, final_state)
    assert episode_ok(outcomes, final_state, record, scenario)
    bad = list(outcomes)
    bad[3] = dataclasses.replace(bad[3], reward=bad[3].reward - 0.5)
    assert not episode_ok(bad, final_state, record, scenario)


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-case1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
