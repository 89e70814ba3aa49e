import copy
import csv
import dataclasses
import io
import pathlib
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leoho import env as env_module, experiments, net
from leoho.agents import dho_decide, make_agent
from leoho.env import (
    ConfigError,
    EpisodeOutcomes,
    FeatureMask,
    HandoverEnv,
    MetricsRecord,
    OutcomeColumns,
    ScenarioConfig,
    batch_episodes,
    episode_metrics,
    observation_size,
)
from leoho.experiments import (
    ABLATION_MASKS,
    DESK_TRAINING,
    SUMMARY_HEADER,
    ExperimentSpec,
    ablation,
    apply_settings,
    behavior_stats,
    episodes_to_threshold,
    evaluate,
    evaluate_chunks,
    label_for_nu,
    parse_spec_file,
    run_experiment,
    save_checkpoint,
    scenario_for_case,
    summary_row,
    sweep_experiment,
    write_ablation_csv,
    write_curve_csv,
    write_summary_csv,
    write_trace_csv,
)
from leoho.rng import episode_generators


def fast_spec(**kw) -> ExperimentSpec:
    defaults = dict(agent="random", eval_episodes=40, train_episodes=60, master_seed=0)
    defaults.update(kw)
    return ExperimentSpec(
        training=dataclasses.replace(DESK_TRAINING, batch_size=40, hidden=(32, 32)),
        **defaults,
    )


# --- spec files -------------------------------------------------------------


def test_parse_spec_file_round_trip(tmp_path):
    text = """
# comment line
agent = dho
eval_episodes = 123
train_episodes = 42
master_seed = 9
eval_mode = sample
scenario.J = 8
scenario.K = 3
scenario.N = 10
scenario.rb_ratio = 0.5
scenario.preamble_ratio = 2.0
scenario.nu = 1/20
features.a3_centralized = on
training.batch_size = 77
training.vtrace_enabled = off
sweep.parameter = rb_ratio
sweep.values = 0.1,0.5,1.0
"""
    path = tmp_path / "exp.spec"
    path.write_text(text)
    spec = parse_spec_file(path)
    assert spec.agent == "dho"
    assert spec.eval_episodes == 123 and spec.train_episodes == 42
    assert spec.master_seed == 9 and spec.eval_mode == "sample"
    sc = spec.scenario
    assert sc.num_ues == 8 and sc.num_planes == 3 and sc.horizon == 10
    assert sc.rb_per_target == (4, 4)  # 0.5 * 8
    assert sc.num_preambles == 16
    assert sc.nu == pytest.approx(0.05)
    assert sc.features.a3_centralized is True
    assert spec.training.batch_size == 77
    assert spec.training.vtrace_enabled is False
    assert spec.sweep_parameter == "rb_ratio"
    assert spec.sweep_values == (0.1, 0.5, 1.0)


def test_parse_spec_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("scenario.bogus = 3\n")
    with pytest.raises(ConfigError) as err:
        parse_spec_file(path)
    assert "bogus" in str(err.value)
    path.write_text("scenario.seed = 7\n")  # episode keys come from master_seed
    with pytest.raises(ConfigError) as err:
        parse_spec_file(path)
    assert err.value.field == "scenario.seed"
    path.write_text("unknown_toplevel = 1\n")
    with pytest.raises(ConfigError):
        parse_spec_file(path)
    path.write_text("scenario.J\n")
    with pytest.raises(ConfigError):
        parse_spec_file(path)


def test_parse_spec_file_type_errors(tmp_path):
    path = tmp_path / "bad.spec"
    path.write_text("scenario.J = 2.5\n")
    with pytest.raises(ConfigError):
        parse_spec_file(path)
    path.write_text("features.time_index = maybe\n")
    with pytest.raises(ConfigError):
        parse_spec_file(path)


def test_shipped_presets_parse():
    for name in ("case1", "case2", "case3", "case4", "delay_aware", "collision_averse"):
        spec = parse_spec_file(pathlib.Path("scripts") / f"{name}.spec")
        assert spec.agent == "dho"


# --- scenario helpers ---------------------------------------------------------


def test_case_presets():
    case2 = scenario_for_case("case2")
    assert case2.rb_per_target == (3, 3) and case2.num_preambles == 50
    case4 = scenario_for_case("case4")
    assert case4.rb_per_target == (10, 10) and case4.num_preambles == 8
    scarce = scenario_for_case("scarce")
    assert scarce.rb_per_target == (3, 3) and scarce.num_preambles == 8
    with pytest.raises(ConfigError):
        scenario_for_case("case9")


def test_ratio_helper_rounds_and_clamps():
    settings = [("scenario.rb_ratio", 0.25), ("scenario.preamble_ratio", 0.05)]
    sc = apply_settings(ExperimentSpec(), settings).scenario
    assert sc.rb_per_target == (2, 2)
    assert sc.num_preambles == 1  # clamped to at least one signature


def test_nu_labels():
    assert label_for_nu(5.0) == "delay-aware"
    assert label_for_nu(1 / 20) == "collision-averse"
    assert label_for_nu(1.0) == ""


# --- evaluation and report files ------------------------------------------------


def test_evaluate_deterministic_rows():
    sc = ScenarioConfig()
    r1 = evaluate(sc, "random", 25, master_seed=5)
    r2 = evaluate(sc, "random", 25, master_seed=5)
    assert [m.episode_return for m in r1] == [m.episode_return for m in r2]
    row1, row2 = summary_row(r1, "random"), summary_row(r2, "random")
    assert row1 == row2


@pytest.mark.parametrize("episodes", [1, 7, 50, 800, 9000])
def test_summary_stats_are_those_of_each_column_alone(episodes):
    # The oracle: each field's mean and spread over its own 1-D column.
    # Values spread over 24 decades, so a sum taken in another order shows
    # in the sixth decimal.
    rng = np.random.default_rng(episodes)
    values = rng.standard_normal((episodes, 5)) * 10.0 ** rng.uniform(-6, 18, (episodes, 5))
    row = summary_row([MetricsRecord(*v) for v in values.tolist()], "random")
    fields = ("sum_delay", "sum_collision_rb", "sum_collision_prach", "ho_success", "return")
    for k, column in enumerate(fields):
        data = np.array(values[:, k].tolist())
        assert row[f"{column}_mean"] == f"{float(data.mean()):.6f}"
        assert row[f"{column}_std"] == f"{float(data.std()):.6f}"


@pytest.mark.parametrize("agent", ["random", "conventional"])
def test_evaluate_episodes_do_not_depend_on_their_chunk(agent):
    # Record i of a multi-chunk run equals episode master_seed + i run alone.
    scenario = scenario_for_case("scarce")
    episodes = batch_episodes(scenario) + 3
    records = evaluate(scenario, agent, episodes, master_seed=7)
    for i in range(episodes):
        alone = evaluate(scenario, agent, 1, master_seed=7 + i)
        assert records[i] == alone[0], i


def test_long_episodes_do_not_depend_on_their_chunk():
    # Each episode's (N, K-1) block rates outgrow numpy's reduction buffer,
    # which sums a strided block differently from a contiguous one.
    scenario = ScenarioConfig(
        num_ues=3, rb_per_target=(1, 1), num_preambles=5, horizon=4200, measurement_period_s=0.3
    )
    records = evaluate(scenario, "random", 3, master_seed=0)
    for i in range(3):
        alone = evaluate(scenario, "random", 1, master_seed=i)
        assert records[i].sum_collision_rb.hex() == alone[0].sum_collision_rb.hex(), i
        assert records[i] == alone[0], i


@pytest.mark.parametrize("agent", ["random", "conventional"])
def test_baseline_agents_run_past_the_policy_bound(agent):
    # J * K = 2^16 + 2 heads is too wide for the learned policy only.
    wide = ScenarioConfig(num_ues=2**15 + 1, num_planes=2, rb_per_target=1, num_preambles=5, horizon=1)
    records = evaluate(wide, agent, 1, master_seed=0)
    assert len(records) == 1


@pytest.mark.parametrize(
    "agent, mode, built",
    [
        ("conventional", "greedy", 0),
        ("dho", "greedy", 0),
        ("dho", "sample", 5),
        ("random", "greedy", 5),
    ],
)
def test_only_stochastic_agents_build_generators(monkeypatch, agent, mode, built):
    yielded = []

    def watched(keys, inner=experiments.episode_generators):
        for rng in inner(keys):
            yielded.append(rng)
            yield rng

    monkeypatch.setattr(experiments, "episode_generators", watched)
    scenario = ScenarioConfig()
    params = net.zero_params(41, 10, 3)
    evaluate(scenario, agent, 5, master_seed=0, params=params, eval_mode=mode)
    assert len(yielded) == built


J100_SCARCE = ScenarioConfig(num_ues=100, rb_per_target=(30, 30), num_preambles=80, horizon=10)


def _artifacts_at_chunk_size(out, episodes, monkeypatch, base) -> dict[str, bytes]:
    """Every report file of the evaluation runs of ``base``, at ``episodes`` per chunk."""
    monkeypatch.setattr(env_module, "BATCH_TERMINALS", episodes * base.scenario.num_ues)
    monkeypatch.setattr(env_module, "BATCH_EPISODES", episodes)
    assert batch_episodes(base.scenario) == episodes
    runs = {
        "random": base,
        "conventional": dataclasses.replace(base, agent="conventional"),
        "dho": dataclasses.replace(base, agent="dho"),
        "dho-sample": dataclasses.replace(base, agent="dho", eval_mode="sample"),
    }
    for name, spec in runs.items():
        run_experiment(spec, out / name)
    sweep_experiment(base, "rb_ratio", (0.3, 1.0), out / "sweep")
    return {str(path.relative_to(out)): path.read_bytes() for path in sorted(out.rglob("*.csv"))}


def _artifacts_at_chunk_sizes(tmp_path, monkeypatch, scenario, episodes) -> list[dict[str, bytes]]:
    """The report files at one episode per chunk, at the default chunks and in one chunk."""
    j = scenario.num_ues
    params = net.init_params(
        observation_size(scenario), j, scenario.num_planes, hidden=(8, 8),
        rng=np.random.default_rng(4), head_scale=1.0,
    )
    checkpoint = tmp_path / "policy.npz"
    save_checkpoint(params, checkpoint)
    base = ExperimentSpec(
        scenario=scenario, eval_episodes=episodes, master_seed=9, checkpoint=str(checkpoint)
    )
    sizes = (1, batch_episodes(scenario), episodes)
    return [_artifacts_at_chunk_size(tmp_path / str(size), size, monkeypatch, base) for size in sizes]


def test_artifacts_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # Chunks of 64 + 64 + 2 episodes by default; no episode settles.
    found = _artifacts_at_chunk_sizes(tmp_path, monkeypatch, J100_SCARCE, 130)
    assert len(found[0]) == 4 * 2 + 1
    assert found[0] == found[1] == found[2]


def first_settled_slots(trace: bytes) -> set[int]:
    """The slots after which the episodes of a trace first have D = 0."""
    first = {}
    for line in trace.decode().splitlines()[1:]:
        episode, n, d = line.split(",")[:3]
        if float(d) == 0.0:
            first.setdefault(episode, int(n))
    return set(first.values())


def test_artifacts_with_retired_episodes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch):
    # At case1 episodes retire at many different slots, each chunk keeps
    # stepping its live ones, and 260 episodes make a 256-episode chunk and
    # a 4-episode one by default.
    scenario = scenario_for_case("case1")
    found = _artifacts_at_chunk_sizes(tmp_path, monkeypatch, scenario, 260)
    assert len(found[0]) == 4 * 2 + 1
    assert found[0] == found[1] == found[2]
    for agent in ("random", "conventional", "dho", "dho-sample"):
        retired_after = first_settled_slots(found[0][f"{agent}/trace.csv"]) - {scenario.horizon}
        assert len(retired_after) > 2, agent


def test_run_experiment_memory_does_not_grow_with_episodes(tmp_path):
    scenario = dataclasses.replace(J100_SCARCE, horizon=20)
    per_chunk = batch_episodes(scenario)
    peaks = []
    for chunks in (1, 2, 8):  # the first run warms up
        spec = ExperimentSpec(scenario=scenario, eval_episodes=chunks * per_chunk, master_seed=1)
        tracemalloc.start()
        try:
            run_experiment(spec, tmp_path / str(chunks))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # The records and the trace's distinct row tails still grow, slightly.
    assert peaks[2] < 1.15 * peaks[1], peaks


def test_run_experiment_random_agent(tmp_path):
    artifacts = run_experiment(fast_spec(), tmp_path / "a")
    summary = (tmp_path / "a" / "summary.csv").read_text().splitlines()
    assert summary[0] == ",".join(SUMMARY_HEADER)
    assert len(summary) == 2
    trace = (tmp_path / "a" / "trace.csv").read_text().splitlines()
    assert len(trace) == 1 + 40 * 20
    # Re-running with the same master seed reproduces the files byte for byte.
    run_experiment(fast_spec(), tmp_path / "b")
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
    assert float(artifacts["row"]["ho_success_mean"]) == 1.0


def test_run_experiment_trains_and_checkpoints(tmp_path):
    spec = fast_spec(agent="dho", eval_episodes=10, train_episodes=30)
    artifacts = run_experiment(spec, tmp_path)
    assert (tmp_path / "checkpoint.npz").exists()
    assert (tmp_path / "curve.csv").exists()
    curve_lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert len(curve_lines) == 31
    # Loading the checkpoint back avoids retraining.
    reuse = dataclasses.replace(spec, checkpoint=str(tmp_path / "checkpoint.npz"))
    second = run_experiment(reuse, tmp_path / "again")
    assert second["row"] == artifacts["row"]


def test_conventional_case1_full_success(tmp_path):
    spec = fast_spec(agent="conventional", eval_episodes=200)
    spec = dataclasses.replace(spec, scenario=scenario_for_case("case1"))
    artifacts = run_experiment(spec, tmp_path)
    assert float(artifacts["row"]["ho_success_mean"]) == pytest.approx(1.0)


DATA = pathlib.Path(__file__).parent / "data"
SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"

SCARCE_J100_SPEC = """\
agent = random
scenario.J = 100
scenario.K = 3
scenario.N = 20
scenario.rb_ratio = 0.3
scenario.preamble_ratio = 0.8
eval_episodes = 30
master_seed = 0
"""


@pytest.mark.parametrize(
    "reference",
    [
        "scarce-J100-random-trace.csv",
        "case2-conventional-trace.csv",
        "case1-random-trace.csv",
        "case1-conventional-trace.csv",
    ],
)
def test_trace_matches_reference_bytes(tmp_path, reference):
    """``trace.csv`` is byte-identical to a reference in ``tests/data``.

    ``scarce-J100-random-trace.csv`` contends for blocks and preambles in
    every slot, in one evaluation chunk; it was written by
    ``leoho run --spec scarce.spec --out <dir>`` with ``scarce.spec`` holding
    the lines of ``SCARCE_J100_SPEC``.  The others were written by
    ``leoho run --spec scripts/<case>.spec --agent <agent> --episodes 20
    --out <dir>``.  ``case2-conventional-trace.csv`` drives the A3
    measurement fold.  In the two case1 chunks the episodes retire at
    different slots, the last after slot 4 under random and after slot 15
    under conventional, and each episode's slots after its retirement
    repeat one outcome.  After a deliberate change to the dynamics,
    regenerate the reference with the same command.
    """
    if reference.startswith("scarce"):
        spec_path = tmp_path / "scarce.spec"
        spec_path.write_text(SCARCE_J100_SPEC)
        spec = parse_spec_file(spec_path)
    else:
        case, agent, _ = reference.split("-")
        spec = parse_spec_file(SCRIPTS / f"{case}.spec")
        spec = apply_settings(spec, [("agent", agent), ("eval_episodes", 20)])
    run_experiment(spec, tmp_path / "out")
    assert (tmp_path / "out" / "trace.csv").read_bytes() == (DATA / reference).read_bytes()


# --- sweeps ---------------------------------------------------------------------


def test_sweep_rb_ratio_delay_monotone(tmp_path):
    spec = fast_spec(eval_episodes=300)
    result = sweep_experiment(spec, "rb_ratio", (0.2, 0.6, 1.0), tmp_path)
    delays = [float(r["sum_delay_mean"]) for r in result["rows"]]
    # More blocks per terminal cannot slow access down.
    assert delays[0] > delays[1] > delays[2] - 1e-9
    values = [r["value"] for r in result["rows"]]
    assert values == ["0.2", "0.6", "1"]


def test_sweep_preamble_ratio_collision_monotone(tmp_path):
    spec = fast_spec(eval_episodes=300)
    result = sweep_experiment(spec, "preamble_ratio", (0.2, 1.0, 2.0), tmp_path)
    prach = [float(r["sum_collision_prach_mean"]) for r in result["rows"]]
    assert prach[0] > prach[1] > prach[2]


def test_sweep_nu_rows_carry_labels(tmp_path):
    spec = fast_spec(eval_episodes=20)
    result = sweep_experiment(spec, "nu", (5.0, 1 / 20), tmp_path)
    labels = [r["label"] for r in result["rows"]]
    assert labels == ["delay-aware", "collision-averse"]


def test_sweep_unknown_parameter_rejected(tmp_path):
    with pytest.raises(ConfigError):
        sweep_experiment(fast_spec(), "warp_speed", (1.0,), tmp_path)
    with pytest.raises(ConfigError):
        sweep_experiment(fast_spec(), "ue_positions", (1.0,), tmp_path)


def swept(monkeypatch, spec, parameter, values, tmp_path):
    """The scenarios a sweep evaluates and the training configs it trains, run by fakes."""
    scenarios, trainings = [], []
    record = MetricsRecord(0, 0, 0, 1.0, -1.0)

    def fake_train(scenario, training, episodes, seed):
        trainings.append(training)
        return PARAMS, [record]

    def fake_evaluate(scenario, *args, **kwargs):
        scenarios.append(scenario)
        return [record]

    monkeypatch.setattr(experiments, "train", fake_train)
    monkeypatch.setattr(experiments, "evaluate", fake_evaluate)
    sweep_experiment(spec, parameter, values, tmp_path)
    return scenarios, trainings


def test_sweep_num_ues_rescales_resources(monkeypatch, tmp_path):
    spec = dataclasses.replace(fast_spec(), scenario=scenario_for_case("case2"))
    [sc], _ = swept(monkeypatch, spec, "num_ues", (20,), tmp_path)
    assert sc.num_ues == 20
    assert sc.rb_per_target == (6, 6)  # keeps the 0.3 ratio
    assert sc.num_preambles == 100


def test_sweep_num_ues_keeps_each_targets_budget(monkeypatch, tmp_path):
    spec = dataclasses.replace(fast_spec(), scenario=ScenarioConfig(rb_per_target=(10, 4)))
    scenarios, _ = swept(monkeypatch, spec, "J", (20, 5), tmp_path)
    assert [sc.rb_per_target for sc in scenarios] == [(20, 8), (5, 2)]
    assert [sc.num_preambles for sc in scenarios] == [100, 25]


def test_sweep_training_field(monkeypatch, tmp_path):
    assert apply_settings(ExperimentSpec(), [("training.gamma", 0.9)]).training.gamma == 0.9
    _, [tr] = swept(monkeypatch, fast_spec(agent="dho"), "gamma", (0.9,), tmp_path)
    assert tr.gamma == pytest.approx(0.9)


def test_sweep_r_sets_every_targets_budget(monkeypatch, tmp_path):
    scenarios, _ = swept(monkeypatch, fast_spec(), "R", (3, 10), tmp_path)
    assert [sc.rb_per_target for sc in scenarios] == [(3, 3), (10, 10)]


def test_sweep_with_learned_agent_reports_training_cost(tmp_path):
    spec = fast_spec(agent="dho", eval_episodes=10, train_episodes=60)
    spec = dataclasses.replace(
        spec,
        scenario=ScenarioConfig(num_ues=4, rb_per_target=(4, 4), num_preambles=20, horizon=8),
        training=dataclasses.replace(spec.training, batch_size=24, hidden=(16, 16)),
        threshold_return=-100.0,  # trivially reached, exercises the column
    )
    result = sweep_experiment(spec, "nu", (1.0, 5.0), tmp_path)
    for row in result["rows"]:
        assert row["episodes_to_threshold"] != ""
        assert int(row["episodes_to_threshold"]) <= 60


def test_sweep_from_a_checkpoint_loads_it_once(monkeypatch, tmp_path):
    spec = fast_spec(agent="dho", eval_episodes=2, checkpoint=str(tmp_path / "policy.npz"))
    scenario = spec.scenario
    params = net.init_params(observation_size(scenario), scenario.num_ues, scenario.num_planes, hidden=(8, 8))
    save_checkpoint(params, spec.checkpoint)
    loads = []

    def counted(path, scenarios=(), inner=experiments.load_checkpoint):
        loads.append([sc.nu for sc in scenarios])
        return inner(path, scenarios)

    monkeypatch.setattr(experiments, "load_checkpoint", counted)
    monkeypatch.setattr(experiments, "train", None)  # a checkpoint trains nothing
    result = sweep_experiment(spec, "nu", (1.0, 5.0, 1 / 20), tmp_path / "sweep")
    assert loads == [[1.0, 5.0, 1 / 20]]
    assert [row["episodes_to_threshold"] for row in result["rows"]] == ["", "", ""]


def test_episodes_to_threshold():
    curve = [MetricsRecord(0, 0, 0, 1.0, -10.0)] * 50
    curve += [MetricsRecord(0, 0, 0, 1.0, -1.0)] * 100
    # Window mean (-200 + 9m)/20 crosses -2 once m = 18 of the 20 are fresh.
    assert episodes_to_threshold(curve, -2.0, window=20) == 68
    assert episodes_to_threshold(curve, 5.0, window=20) is None


# --- artifacts ------------------------------------------------------------------


def _trace_chunks():
    env = HandoverEnv(ScenarioConfig(horizon=3))
    env.reset(episodes=[0])
    columns = OutcomeColumns(env.config, 1)
    for _ in range(3):
        columns.append(env.step(np.ones((1, 10), dtype=int))[1])
    yield 0, columns


def _broken(items, exc=RuntimeError("midway")):
    yield from items
    raise exc


def _savez_midway(fh, **arrays):
    fh.write(b"PK partial")
    raise OSError("disk full")


SUMMARY_ROW = summary_row([MetricsRecord(1.0, 0.5, 0.25, 1.0, -2.0)], "random")
CURVE = [MetricsRecord(0.5, 0.125, 0.125, 1.0, -1.0), MetricsRecord(0.5, 0.125, 0.125, 1.0, -2.0)]
PARAMS = net.zero_params(41, 10, 3)

# name: (write the file, a write of other content that raises midway, what
# it raises).  The checkpoint's midway failure is np.savez's, patched in by
# the test.
ARTIFACT_WRITERS = {
    "summary.csv": (
        lambda path: write_summary_csv(path, [SUMMARY_ROW]),
        lambda path: write_summary_csv(path, [{**SUMMARY_ROW, "agent": "dho"}, {"bogus": 1}]),
        ValueError,
    ),
    "trace.csv": (
        lambda path: write_trace_csv(path, _trace_chunks(), 10, 2),
        lambda path: write_trace_csv(path, _broken(_trace_chunks()), 10, 2),
        RuntimeError,
    ),
    "curve.csv": (
        lambda path: write_curve_csv(path, CURVE),
        lambda path: write_curve_csv(path, [*CURVE, *CURVE, None]),
        AttributeError,
    ),
    "checkpoint.npz": (
        lambda path: save_checkpoint(PARAMS, path),
        lambda path: save_checkpoint(PARAMS, path),
        OSError,
    ),
    "ablation_curves.csv": (
        lambda path: write_ablation_csv(path, {"full_local": CURVE, "no_time": CURVE}),
        lambda path: write_ablation_csv(path, {"no_time": CURVE, "centralized": [*CURVE, None]}),
        AttributeError,
    ),
}


@pytest.mark.parametrize("name", sorted(ARTIFACT_WRITERS))
def test_artifact_writers_replace_the_file_whole(tmp_path, monkeypatch, name):
    write, write_midway, error = ARTIFACT_WRITERS[name]
    path = tmp_path / name
    write(path)
    before = path.read_bytes()
    monkeypatch.setattr(np, "savez", _savez_midway)
    with pytest.raises(error):
        write_midway(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


class _DiskFull:
    """A file that takes half of the first write and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("disk full")


@pytest.mark.parametrize("name", sorted(ARTIFACT_WRITERS))
def test_artifact_writes_that_fail_in_the_file_leave_the_previous_file(tmp_path, monkeypatch, name):
    # The writers that build a file in memory fail before they open it when
    # their content does; this one fails in the file itself.
    write = ARTIFACT_WRITERS[name][0]
    path = tmp_path / name
    write(path)
    before = path.read_bytes()
    monkeypatch.setattr(experiments, "open", lambda *a, **kw: _DiskFull(open(*a, **kw)), raising=False)
    with pytest.raises(OSError, match="disk full"):
        write(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def _csv_writer_bytes(header, rows) -> bytes:
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode()


def _old_curve_fields(episode: int, r: MetricsRecord) -> list:
    """A curve row's fields formatted one by one for csv.writer: the reference for the row template."""
    return [episode, f"{r.episode_return:.6f}", f"{r.sum_delay:.6f}", f"{r.sum_collision:.6f}"]


# Signed zeros, non-finite values, ties at the sixth decimal and values of
# 1e6 and more.
CURVE_EDGES = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-7, -5e-7, 1.5e-6, 2.5e-6,
    0.1234565, 1e6, -1e6, 123456789.0000005, 1e22, 5e-324, -1.7976931348623157e308,
]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(), st.floats(), st.floats()), max_size=30))
@example([(v, v, v) for v in CURVE_EDGES])
def test_curve_writers_bytes_match_csv_writer(values):
    # Each record's return, delay and collisions; the PRACH collisions are
    # -0.0, so the collision sum is the drawn value, -0.0 included.
    records = [MetricsRecord(d, c, -0.0, 1.0, r) for r, d, c in values]
    curves = {"full_local": records, "no_prev_action": records[::-1]}
    with tempfile.TemporaryDirectory() as tmp:
        curve_path, ablation_path = pathlib.Path(tmp, "curve.csv"), pathlib.Path(tmp, "ablation.csv")
        write_curve_csv(curve_path, records)
        write_ablation_csv(ablation_path, curves)
        curve, ablation_curves = curve_path.read_bytes(), ablation_path.read_bytes()
    assert curve == _csv_writer_bytes(
        experiments.CURVE_HEADER, [_old_curve_fields(e, r) for e, r in enumerate(records)]
    )
    rows = [[name, *_old_curve_fields(e, r)] for name, curve in curves.items() for e, r in enumerate(curve)]
    assert ablation_curves == _csv_writer_bytes(experiments.ABLATION_HEADER, rows)


def test_ablation_writer_takes_only_mask_names_that_need_no_quoting(tmp_path):
    # The writer puts each name in front of a row template as it is, which
    # is csv.writer's output only for a name it would not quote.
    for name in ABLATION_MASKS:
        assert _csv_writer_bytes([name], []) == f"{name}\r\n".encode()
    with pytest.raises(ConfigError, match="mask"):
        write_ablation_csv(tmp_path / "ablation_curves.csv", {"full_local": CURVE, "a,b": CURVE})
    assert list(tmp_path.iterdir()) == []


def _checkpoint_sets() -> dict[str, net.PolicyParameters]:
    rng = np.random.default_rng(5)
    sets = [net.init_params(41, 10, 3, hidden=(16, 8), rng=rng) for _ in range(2)]
    stack = net.stack_params(sets)
    return {
        "plain": sets[0],
        "group-view": stack.group(1),
        "group-copy": stack.group(1).copy(),
    }


@pytest.mark.parametrize("name", sorted(_checkpoint_sets()))
def test_checkpoint_bytes_match_np_savez_to_a_path(tmp_path, name):
    params = _checkpoint_sets()[name]
    save_checkpoint(params, tmp_path / "checkpoint.npz")
    with np.load(tmp_path / "checkpoint.npz") as data:
        meta = data["meta"]
    np.savez(tmp_path / "direct.npz", meta=meta, **params.tensors())
    assert (tmp_path / "checkpoint.npz").read_bytes() == (tmp_path / "direct.npz").read_bytes()


# --- behavior stats ---------------------------------------------------------------


def test_behavior_fractions_of_uniform_policy():
    sc = ScenarioConfig()
    params = net.zero_params(41, 10, 3)
    request, wait = behavior_stats(params, sc, episodes=60, master_seed=0)
    assert request + wait == pytest.approx(1.0, abs=1e-12)
    # Uniform over three planes requests two thirds of the time.
    assert abs(request - 2 / 3) < 0.03


def slot_by_slot_behavior(params, scenario, episodes, master_seed):
    """Request and wait counts of unaccessed terminals, counted slot by slot.

    Steps the same chunks of episodes, with the same sampling noise, as
    evaluation, and counts from each slot's actions rather than the
    outcome columns.
    """
    env = HandoverEnv(scenario)
    shape = (scenario.horizon, scenario.num_ues, scenario.num_planes)
    size = batch_episodes(scenario)
    requests = waits = 0
    for first in range(0, episodes, size):
        seeds = [master_seed + i for i in range(first, min(first + size, episodes))]
        obs = env.reset(episodes=seeds)
        noise = np.stack([np.random.default_rng([seed, 202]).gumbel(size=shape) for seed in seeds])
        for n in range(scenario.horizon):
            accessed = env.state.accessed
            actions, _ = dho_decide(params, obs, noise[:, n], "sample", accessed)
            requests += int((actions[~accessed] > 0).sum())
            waits += int((actions[~accessed] == 0).sum())
            obs, _ = env.step(actions)
    return requests, waits


@pytest.mark.parametrize("case", ["case1", "scarce"])
def test_behavior_fractions_match_a_slot_by_slot_count(case):
    scenario = scenario_for_case(case)
    episodes = batch_episodes(scenario) + 5  # two chunks
    params = net.init_params(
        observation_size(scenario), scenario.num_ues, scenario.num_planes,
        rng=np.random.default_rng(3), head_scale=1.0,
    )
    requests, waits = slot_by_slot_behavior(params, scenario, episodes, master_seed=9)
    assert 0 < requests and 0 < waits  # both decisions occur
    expected = (requests / (requests + waits), waits / (requests + waits))
    assert behavior_stats(params, scenario, episodes, master_seed=9) == expected


def stepped_chunks(scenario, agent_kind, episodes, master_seed, params, eval_mode):
    """The reference evaluation: each chunk's agent decides and steps every slot.

    Yields what :func:`evaluate_chunks` yields, and the chunk's final state.
    """
    env = HandoverEnv(scenario)
    agent = make_agent(agent_kind, params=params, mode=eval_mode)
    size = batch_episodes(scenario)
    for first in range(0, episodes, size):
        seeds = [master_seed + i for i in range(first, min(first + size, episodes))]
        obs = env.reset(episodes=seeds)
        agent.begin_episode(env, episode_generators([seed, 101] for seed in seeds))
        columns = OutcomeColumns(scenario, len(seeds))
        for _ in range(scenario.horizon):
            obs, outcome = env.step(agent.act(env, obs))
            columns.append(outcome)
        metrics = [
            episode_metrics(EpisodeOutcomes(columns, e), env.state.episode(e)) for e in range(len(seeds))
        ]
        yield first, metrics, columns, copy.deepcopy(env.state)


FINAL_FIELDS = ("slot", "accessed", "rb_remaining", "prev_action", "ue_positions")


@pytest.mark.parametrize(
    "agent_kind, eval_mode",
    [("random", "greedy"), ("conventional", "greedy"), ("dho", "greedy"), ("dho", "sample")],
)
@pytest.mark.parametrize("case", ["case1", "scarce"])
def test_evaluate_chunks_match_the_slot_by_slot_reference(agent_kind, eval_mode, case, monkeypatch):
    # At case1 every episode retires before the horizon, at different slots;
    # with scarce blocks at J = 10 none does.
    scenario = dataclasses.replace(scenario_for_case(case), features=ABLATION_MASKS["centralized"])
    params = net.init_params(
        observation_size(scenario), scenario.num_ues, scenario.num_planes,
        rng=np.random.default_rng(2), head_scale=1.0,
    )
    params.b_pi[:: scenario.num_planes] -= 3.0  # waiting is unlikely, so every terminal requests
    episodes = batch_episodes(scenario) + 7  # two chunks
    retired = []  # (slot, episodes retired after it)
    finals = []  # the final state of each episode_metrics call, copied

    def retire(self, settled, *args, inner=HandoverEnv.retire):
        retired.append((self.state.slot, int(settled.sum())))
        return inner(self, settled, *args)

    def recorded(outcomes, final_state, inner=experiments.episode_metrics):
        finals.append([np.copy(getattr(final_state, name)) for name in FINAL_FIELDS])
        return inner(outcomes, final_state)

    monkeypatch.setattr(HandoverEnv, "retire", retire)
    monkeypatch.setattr(experiments, "episode_metrics", recorded)
    chunks = evaluate_chunks(scenario, agent_kind, episodes, 5, params, eval_mode)
    want = stepped_chunks(scenario, agent_kind, episodes, 5, params, eval_mode)
    for (first, metrics, columns), (want_first, want_metrics, want_columns, want_final) in zip(
        chunks, want, strict=True
    ):
        assert first == want_first
        assert metrics == want_metrics
        assert sorted(columns) == sorted(want_columns)
        for name, column in columns.items():
            expected = want_columns[name]
            assert column.dtype == expected.dtype and column.shape == expected.shape, name
            assert column.tobytes() == expected.tobytes(), name
        assert len(finals) == first + len(metrics)  # one call per episode, in order
        for e, final in enumerate(finals[first:]):
            for name, got in zip(FINAL_FIELDS, final):
                expected = np.asarray(getattr(want_final.episode(e), name))
                assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
    if case == "case1":
        assert sum(count for _, count in retired) == episodes
        assert len({slot for slot, _ in retired}) > 1
    else:
        assert retired == []


def test_evaluate_chunks_seeds_agents_from_its_stream(monkeypatch):
    keys = []

    def watched(key_list, inner=experiments.episode_generators):
        key_list = list(key_list)
        keys.extend(key_list)
        return inner(key_list)

    monkeypatch.setattr(experiments, "episode_generators", watched)
    scenario = ScenarioConfig()
    for stream in (101, 202):
        keys.clear()
        list(evaluate_chunks(scenario, "random", 3, 4, None, "greedy", keep=(), stream=stream))
        assert keys == [[4, stream], [5, stream], [6, stream]]


# --- ablation ----------------------------------------------------------------------


def test_ablation_curves_have_identical_episode_counts(tmp_path):
    tr = dataclasses.replace(DESK_TRAINING, batch_size=30, hidden=(16, 16))
    spec = ExperimentSpec(training=tr, train_episodes=40, master_seed=0)
    result = ablation(spec, ["full_local", "no_time", "centralized"], tmp_path)
    lengths = {name: len(curve) for name, curve in result["curves"].items()}
    assert set(lengths.values()) == {40}
    lines = (tmp_path / "ablation_curves.csv").read_text().splitlines()
    assert lines[0] == "mask,episode,mean_return,sum_delay,sum_collision"
    assert len(lines) == 1 + 3 * 40
    with pytest.raises(ConfigError):
        ablation(dataclasses.replace(spec, train_episodes=5), ["bogus"], tmp_path)


def test_ablation_trains_the_spec_under_each_masks_features(tmp_path):
    # The oracle: each mask's features put in place of the scenario's, and
    # trained in this process.  The spec's agent and checkpoint are not the
    # learner's, and its own features are not all a mask's.
    spec = dataclasses.replace(
        fast_spec(train_episodes=24, master_seed=3, checkpoint="unused.npz"),
        scenario=ScenarioConfig(
            num_ues=4, rb_per_target=(4, 4), num_preambles=20, horizon=8,
            features=FeatureMask(time_index=False, a3_centralized=True),
        ),
    )
    masks = list(ABLATION_MASKS)
    ablation(spec, masks + ["no_time"], tmp_path)
    want = ["mask,episode,mean_return,sum_delay,sum_collision"]
    for name in masks:
        scenario = dataclasses.replace(spec.scenario, features=ABLATION_MASKS[name])
        _, curve = experiments.train(scenario, spec.training, episodes=24, seed=3)
        want += [
            f"{name},{e},{r.episode_return:.6f},{r.sum_delay:.6f},{r.sum_collision:.6f}"
            for e, r in enumerate(curve)
        ]
    assert (tmp_path / "ablation_curves.csv").read_text().splitlines() == want


def test_ablation_masks_cover_documented_variants():
    assert set(ABLATION_MASKS) == {
        "full_local",
        "no_time",
        "no_accessed",
        "no_prev_action",
        "centralized",
    }
    assert ABLATION_MASKS["centralized"] == FeatureMask(a3_centralized=True)
