import contextlib
import io
import json
import pickle
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leoho import cli, experiments, net
from leoho.cli import main
from leoho.env import MAX_CHUNK_CELLS, batch_episodes
from leoho.experiments import AGENT_KINDS


def write_spec(tmp_path, text, name="exp.spec"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FAST_RANDOM = """
agent = random
eval_episodes = 30
scenario.J = 6
scenario.R = 6
scenario.P = 30
"""

FAST_DHO = """
agent = dho
eval_episodes = 10
train_episodes = 30
scenario.J = 4
scenario.R = 4
scenario.P = 20
scenario.N = 8
training.batch_size = 24
training.hidden = 16,16
"""


def test_run_random_agent(tmp_path, capsys):
    spec = write_spec(tmp_path, FAST_RANDOM)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out", str(out)]) == 0
    assert (out / "summary.csv").exists()
    assert (out / "trace.csv").exists()
    assert "ho_success_mean" in capsys.readouterr().out


def test_run_rerun_identical(tmp_path):
    spec = write_spec(tmp_path, FAST_RANDOM)
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "summary.csv").read_bytes() == (
        tmp_path / "b" / "summary.csv"
    ).read_bytes()


def test_run_trains_learned_agent_and_behavior_roundtrip(tmp_path, capsys):
    spec = write_spec(tmp_path, FAST_DHO)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out", str(out)]) == 0
    checkpoint = out / "checkpoint.npz"
    assert checkpoint.exists() and (out / "curve.csv").exists()

    code = main(
        [
            "behavior",
            "--spec",
            spec,
            "--checkpoint",
            str(checkpoint),
            "--episodes",
            "20",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "request_fraction=" in printed and "no_request_fraction=" in printed


def test_eval_requires_checkpoint_for_learned_agent(tmp_path, capsys):
    spec = write_spec(tmp_path, FAST_DHO)
    assert main(["eval", "--spec", spec, "--out", str(tmp_path / "o")]) == 2
    assert "checkpoint" in capsys.readouterr().err


def test_eval_with_checkpoint(tmp_path):
    spec = write_spec(tmp_path, FAST_DHO)
    out = tmp_path / "out"
    assert main(["run", "--spec", spec, "--out", str(out)]) == 0
    code = main(
        [
            "eval",
            "--spec",
            spec,
            "--checkpoint",
            str(out / "checkpoint.npz"),
            "--out",
            str(tmp_path / "eval"),
        ]
    )
    assert code == 0
    assert (tmp_path / "eval" / "summary.csv").exists()


def meta_entry(meta: dict) -> np.ndarray:
    """A checkpoint's ``meta`` entry: the JSON of ``meta`` as bytes."""
    return np.frombuffer(json.dumps(meta).encode(), np.uint8)


def unreadable_checkpoints(tmp_path, meta: dict, policy: dict) -> list[Path]:
    """Files that are no .npz archive, or whose entries cannot be read or decoded.

    ``meta`` and ``policy`` are the shapes and tensors of a policy that fits.
    """
    real = tmp_path / "real.npz"
    np.savez(real, meta=meta_entry(meta), **policy)
    whole = real.read_bytes()
    array = io.BytesIO()
    np.save(array, np.zeros(3))
    # A byte of w1's data flipped: its CRC-32 no longer matches.
    flipped = bytearray(whole)
    flipped[whole.index(b"\x93NUMPY", whole.index(b"w1.npy")) + 200] ^= 0xFF
    # A deflated entry whose stream breaks off at its first byte.
    deflated = io.BytesIO()
    with zipfile.ZipFile(deflated, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("meta.npy", array.getvalue())
    broken_stream = bytearray(deflated.getvalue())
    broken_stream[30 + len("meta.npy")] ^= 0xFF
    contents = {
        "array.npy": array.getvalue(),
        "empty.npz": b"",
        "truncated.npz": whole[: len(whole) // 2],
        "zip-garbage.npz": b"PK\x03\x04" + b"garbage" * 20,
        "pickle.npz": pickle.dumps({"meta": meta, **policy}),
        "bad-crc.npz": bytes(flipped),
        "broken-deflate.npz": bytes(broken_stream),
    }
    paths = []
    for name, content in contents.items():
        paths.append(tmp_path / name)
        paths[-1].write_bytes(content)
    entries = {
        "meta-not-json.npz": {"meta": np.frombuffer(b"{not json", np.uint8), **policy},
        "meta-not-utf8.npz": {"meta": np.frombuffer(b"\xff\xfe{}", np.uint8), **policy},
        "object-tensor.npz": {**policy, "meta": meta_entry(meta), "w1": np.array([None] * 3)},
    }
    for name, arrays in entries.items():
        paths.append(tmp_path / name)
        np.savez(paths[-1], **arrays)
    return paths


def test_malformed_checkpoint_exits_3_with_one_line(tmp_path, capsys):
    spec = write_spec(tmp_path, FAST_DHO)
    shapes = {"version": 1, "obs_dim": 3, "num_ues": 1, "num_actions": 2}
    tensors = {name: np.zeros((1, 1)) for name in net.TENSOR_NAMES}
    # The shapes and tensors of a policy for FAST_DHO's scenario, each case
    # below with one flaw.
    fitting = {"version": 1, "obs_dim": 17, "num_ues": 4, "num_actions": 3}
    policy = net.zero_params(17, 4, 3, hidden=(16, 16)).tensors()
    malformed = [
        ({"version": 1}, {}),  # no shapes, no tensors
        (shapes, {**tensors, "w1": np.zeros(3)}),  # a flat weight matrix
        ({**fitting, "num_ues": None}, policy),
        ({**fitting, "num_ues": "a", "num_actions": "b"}, policy),
        ({**fitting, "num_ues": 4.0}, policy),
        ({**fitting, "num_actions": True}, policy),
        (fitting, {**policy, "b1": np.array(["x"] * 16)}),  # a string tensor
    ]
    paths = []
    for g, (meta, arrays) in enumerate(malformed):
        paths.append(tmp_path / f"malformed{g}.npz")
        np.savez(paths[-1], meta=meta_entry(meta), **arrays)
    unreadable = unreadable_checkpoints(tmp_path, fitting, policy)
    commands = (
        ["eval", "--out", str(tmp_path / "o")],
        ["behavior", "--episodes", "2"],
        ["sweep", "--parameter", "rb_ratio", "--values", "0.5,1", "--out", str(tmp_path / "s")],
    )
    for path in paths + unreadable:
        for command in commands:
            code = main([*command, "--spec", spec, "--checkpoint", str(path)])
            assert code == 3, (command[0], path.name)
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "Traceback" not in err, (command[0], path.name)
            if path in unreadable:
                assert err == f"error: {path} is not a policy checkpoint\n", (command[0], path.name)


def test_bad_spec_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    bad = (
        "scenario.bogus = 1\n",
        "scenario.seed = 7\n",
        "training.gamma = 1.5\n",
        *(f"agent = {agent}\nscenario.iir_order = -8\n" for agent in AGENT_KINDS),
        "eval_episodes = 2.7\n",
        "train_episodes = 1.5\n",
        "master_seed = 0.5\n",
        "master_seed = -1\n",
        "eval_episodes = 1/0\n",
        "scenario.R = 2.5,3\n",
        "scenario.features = on\n",
        # Non-finite floats, negative truncation levels and malformed layer
        # widths are configuration errors too, caught before any work.
        "agent = dho\nscenario.nu = nan\n",
        "agent = dho\ntraining.entropy_coeff = nan\n",
        "scenario.slot_s = nan\n",
        "agent = dho\ntraining.learning_rate = inf\n",
        "agent = dho\ntraining.hidden = 8\n",
        "agent = dho\ntraining.c_bar = -2\n",
        "agent = dho\ntraining.hidden = 0,8\n",
        "scenario.a3_offset_db = nan\n",
        "scenario.shadowing_sigma_db = inf\n",
    )
    for text in bad:
        spec = write_spec(tmp_path, text)
        assert main(["run", "--spec", spec, "--out", str(out)]) == 2, text
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists(), text
    # Deleted knobs, each at a value it once accepted: the unknown key is the
    # only fault, and the one line of stderr names it.
    for line in (
        "scenario.dl_eirp_dbw = 10",
        "scenario.terminal_profile = handheld",
        "scenario.measurement_carrier_ghz = 7.5",
        "scenario.sats_per_plane = 1",
    ):
        spec = write_spec(tmp_path, line + "\n")
        assert main(["run", "--spec", spec, "--out", str(out)]) == 2, line
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and line.split(" = ")[0] in lines[0], lines
        assert not out.exists(), line


def test_runtime_floating_point_error_exits_3(tmp_path, capsys, monkeypatch):
    from leoho import vtrace

    vtrace_from_values = vtrace.vtrace_from_values

    def diverged(*args, **kwargs):
        targets, advantages, rho = vtrace_from_values(*args, **kwargs)
        return np.full_like(targets, np.nan), advantages, rho

    # The learner then meets the non-finite loss it guards against.
    monkeypatch.setattr(vtrace, "vtrace_from_values", diverged)
    spec = write_spec(tmp_path, FAST_DHO)
    assert main(["run", "--spec", spec, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "non-finite training loss" in err and "Traceback" not in err


def test_ue_positions_must_be_finite_numbers(tmp_path, capsys):
    out = tmp_path / "out"
    # Ten characters pass a length check against J = 10.
    for value in ("abcdefghij", "1,2,3"):
        spec = write_spec(tmp_path, f"agent = random\nscenario.ue_positions = {value}\n")
        assert main(["run", "--spec", spec, "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert "ue_positions" in err and "Traceback" not in err
    assert not out.exists()


def test_missing_spec_file_exits_3(tmp_path):
    assert main(["run", "--spec", str(tmp_path / "absent.spec")]) == 3


def test_spec_file_that_is_not_utf8_exits_2_before_any_work(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_bytes(b"agent = random\n\xff\xfe = 1\n")
    out = tmp_path / "out"
    code, err = exit_code(["run", "--spec", str(spec), "--out", str(out)])
    assert code == 2, err
    lines = err.splitlines()
    assert len(lines) == 1 and "configuration error" in lines[0] and "UTF-8" in lines[0], lines
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_cli(tmp_path):
    spec = write_spec(tmp_path, FAST_RANDOM)
    for parameter, values in (("rb_ratio", "0.5,1.0"), ("R", "3,10")):
        out = tmp_path / parameter
        code = main(["sweep", "--spec", spec, "--parameter", parameter, "--values", values, "--out", str(out)])
        assert code == 0, parameter
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3


def test_sweep_without_parameter_exits_2(tmp_path):
    spec = write_spec(tmp_path, FAST_RANDOM)
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path / "x")]) == 2


def test_sweep_unknown_parameter_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, FAST_RANDOM)
    # The scenario has no seed: every episode's key comes from master_seed.
    # A K sweep would add targets with no block budget.
    for parameter in ("bogus", "seed", "K"):
        args = ["--parameter", parameter, "--values", "1,2,3", "--out", str(tmp_path / "x")]
        assert main(["sweep", "--spec", spec, *args]) == 2, parameter
        assert repr(parameter) in capsys.readouterr().err


def test_sweep_tau_checks_every_value_before_running(tmp_path):
    spec = write_spec(tmp_path, FAST_RANDOM)
    out = tmp_path / "tau"
    args = ["sweep", "--spec", spec, "--parameter", "tau", "--out", str(out), "--values"]
    # 0.2 s is not a whole number of 0.15 s measurement periods.
    assert main(args + ["0.3,0.2"]) == 2
    assert not out.exists()
    assert main(args + ["0.15,0.45"]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 3


def fast_dho_policy(path) -> str:
    """A random policy that fits FAST_DHO's scenario, saved at ``path``."""
    params = net.init_params(17, 4, 3, hidden=(16, 16), rng=np.random.default_rng(0), head_scale=1.0)
    experiments.save_checkpoint(params, path)
    return str(path)


def test_sweep_checks_its_checkpoint_before_any_work(tmp_path, monkeypatch, capsys):
    calls = []

    def counted(*args, evaluate=experiments.evaluate, **kwargs):
        calls.append(args)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(experiments, "evaluate", counted)
    spec = write_spec(tmp_path, FAST_DHO)
    policy = fast_dho_policy(tmp_path / "policy.npz")
    # The policy fits J = 4 only.
    args = ["--checkpoint", policy, "--parameter", "J", "--values", "4,8", "--out", str(tmp_path / "o")]
    assert main(["sweep", "--spec", spec, *args]) == 3
    assert calls == []
    assert "does not fit" in capsys.readouterr().err


@pytest.mark.parametrize("agent", ["random", "conventional", "dho"])
def test_sweep_of_a_training_field_that_trains_nothing_exits_2_before_any_work(tmp_path, agent):
    # Each point would evaluate the same policy.
    spec = write_spec(tmp_path, FAST_DHO)
    out = tmp_path / "o"
    args = ["sweep", "--spec", spec, "--agent", agent, "--parameter", "gamma", "--values", "0.5,0.9", "--out", str(out)]
    if agent == "dho":
        args += ["--checkpoint", fast_dho_policy(tmp_path / "policy.npz")]
    code, err = exit_code(args)
    assert code == 2, err
    assert "trains nothing" in err and err.count("\n") == 1
    assert not out.exists()


def too_wide_to_evaluate(spec: str) -> int:
    """The narrowest first layer whose evaluation chunks at ``spec``'s scenario pass the cell bound."""
    return MAX_CHUNK_CELLS // batch_episodes(experiments.parse_spec_file(spec).scenario) + 1


def test_behavior_refuses_a_checkpoint_that_eval_refuses(tmp_path):
    # Fits FAST_DHO's scenario, but an evaluation chunk of its first layer
    # passes the cell bound.
    spec = write_spec(tmp_path, FAST_DHO)
    policy = tmp_path / "wide.npz"
    experiments.save_checkpoint(net.init_params(17, 4, 3, hidden=(too_wide_to_evaluate(spec), 1)), policy)
    errors = []
    for command in (["eval", "--out", str(tmp_path / "o")], ["behavior"]):
        code, err = exit_code([*command, "--spec", spec, "--checkpoint", str(policy), "--episodes", "1"])
        assert code == 2, command
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].count("\n") == 1
    assert "hidden: an evaluation chunk's widest layer must hold at most" in errors[0]


def test_refused_checkpoint_leaves_no_output_directory(tmp_path):
    spec = write_spec(tmp_path, FAST_DHO)
    fits = fast_dho_policy(tmp_path / "policy.npz")
    wide = tmp_path / "wide.npz"
    experiments.save_checkpoint(net.init_params(17, 4, 3, hidden=(too_wide_to_evaluate(spec), 1)), wide)
    cases = (
        (["--checkpoint", fits, "--mask", "no_time"], 3),  # one input fewer than the policy's
        (["--checkpoint", str(wide)], 2),  # an evaluation chunk too wide
    )
    for i, (flags, expected) in enumerate(cases):
        for command in ("run", "eval"):
            out = tmp_path / f"{command}{i}"
            args = [command, "--spec", spec, *flags, "--episodes", "1", "--out", str(out)]
            code, err = exit_code(args)
            assert code == expected, (command, err)
            assert not out.exists(), command


def test_spec_integers_read_exactly(tmp_path):
    parse = cli.build_parser().parse_args
    spec = write_spec(tmp_path, "master_seed = 9007199254740993\n")
    from_line = cli._load_spec(parse(["run", "--spec", spec]))
    from_flag = cli._load_spec(parse(["run", "--seed", "9007199254740993"]))
    assert from_line == from_flag
    assert from_line.master_seed == 9007199254740993
    # 2^63 - 1 blocks per target is the largest budget int64 holds.
    for budget, expected in (("9223372036854775807", 0), ("9223372036854775808", 2)):
        spec = write_spec(tmp_path, FAST_RANDOM + f"scenario.R = {budget}\n", f"r{budget}.spec")
        code, err = exit_code(["run", "--spec", spec, "--out", str(tmp_path / budget)])
        assert code == expected, err


def test_ablation_cli(tmp_path):
    spec = write_spec(tmp_path, FAST_DHO)
    out = tmp_path / "abl"
    code = main(
        [
            "ablation",
            "--spec",
            spec,
            "--mask",
            "full_local,no_time",
            "--train-episodes",
            "24",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "ablation_curves.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 24


@pytest.mark.parametrize("masks", ["", "full_local,"])
def test_ablation_with_an_empty_mask_name_exits_2_before_any_work(tmp_path, masks):
    # An empty --mask names one mask, '', as run's --mask does: it is no
    # request for every mask.
    spec = write_spec(tmp_path, FAST_DHO)
    out = tmp_path / "abl"
    code, err = exit_code(["ablation", "--spec", spec, "--mask", masks, "--train-episodes", "24", "--out", str(out)])
    assert code == 2, err
    assert "unknown mask ''" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--checkpoint", "/nonexistent.npz"],
        ["--agent", "random"],
        ["--agent", "dho"],
        ["--episodes", "5"],
        ["--mode", "sample"],
        ["--checkpoint", "/nonexistent.npz", "--agent", "random", "--episodes", "5", "--mode", "sample"],
    ],
)
def test_ablation_refuses_evaluation_flags_before_any_work(tmp_path, monkeypatch, flags):
    # Ablation trains a fresh dho policy per mask and evaluates none, so an
    # evaluation or checkpoint flag would be ignored; it is refused instead.
    def no_training(*args, **kwargs):
        raise AssertionError("ablation trained")

    monkeypatch.setattr(experiments, "train", no_training)
    spec = write_spec(tmp_path, FAST_DHO)
    out = tmp_path / "abl"
    argv = ["ablation", "--spec", spec, "--mask", "full_local", "--train-episodes", "12", "--out", str(out)]
    code, err = exit_code(argv + flags)
    assert code == 2, err
    assert len(err.splitlines()) == 1
    assert f"{flags[0]}: ablation trains one dho policy per mask" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "eval", "sweep", "behavior", "ablation"])
def test_mask_help_names_what_each_subcommand_takes(command, capsys):
    # Only ablation takes a comma-separated list; the others take one mask.
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    takes_a_list = "--mask MASK feature mask names, comma separated" in help_text
    assert takes_a_list == (command == "ablation")
    assert takes_a_list or "--mask MASK feature mask name --" in help_text


def test_run_refuses_a_mask_list(tmp_path):
    out = tmp_path / "o"
    spec = write_spec(tmp_path, FAST_RANDOM)
    code, err = exit_code(["run", "--spec", spec, "--mask", "no_time,centralized", "--out", str(out)])
    assert code == 2, err
    assert "unknown mask 'no_time,centralized'" in err
    assert not out.exists()


def test_cli_overrides_apply(tmp_path):
    spec = write_spec(tmp_path, FAST_RANDOM)
    out = tmp_path / "o"
    code = main(
        [
            "run",
            "--spec",
            spec,
            "--agent",
            "random",
            "--episodes",
            "12",
            "--seed",
            "77",
            "--nu",
            "1/20",
            "--rb-ratio",
            "0.5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[1].split(",")[1] == "collision-averse"  # label column
    assert summary[1].split(",")[4] == "12"  # eval_episodes column


# Per flag: the spec it runs on, its value, and the spec lines that set the
# same.  {policy} and {out} name a checkpoint and the side's output directory.
FLAG_CASES = {
    "agent": (FAST_RANDOM, "conventional", "agent = conventional"),
    "seed": (FAST_RANDOM, "5", "master_seed = 5"),
    "episodes": (FAST_RANDOM, "7", "eval_episodes = 7"),
    "train_episodes": (FAST_DHO, "12", "train_episodes = 12"),
    "out": (FAST_RANDOM, "{out}", "output_dir = {out}"),
    "actors": (FAST_DHO, "2", "training.actors_count = 2"),
    "vtrace": (FAST_DHO, "off", "training.vtrace_enabled = off"),
    "nu": (FAST_RANDOM, "1/20", "scenario.nu = 1/20"),
    "rb_ratio": (FAST_RANDOM, "0.5", "scenario.rb_ratio = 0.5"),
    "preamble_ratio": (FAST_RANDOM, "2", "scenario.preamble_ratio = 2"),
    "checkpoint": (FAST_DHO, "{policy}", "checkpoint = {policy}"),
    "mode": (FAST_DHO, "sample", "eval_mode = sample"),
    "parameter": (FAST_RANDOM + "sweep.values = 3,5\n", "J", "sweep.parameter = J"),
    "values": (FAST_RANDOM + "sweep.parameter = J\n", "3,5", "sweep.values = 3,5"),
    "case": (FAST_RANDOM, "case2", "scenario.rb_ratio = 0.3\nscenario.preamble_ratio = 5"),
    "mask": (
        FAST_DHO,
        "no_time",
        "features.time_index = off\nfeatures.accessed_vector = on\n"
        "features.prev_action = on\nfeatures.a3_centralized = off",
    ),
}


@pytest.mark.parametrize("dest", sorted({*cli.FLAG_KEYS, "case", "mask"}))
def test_each_flag_writes_what_its_spec_lines_write(tmp_path, dest):
    base, value, lines = FLAG_CASES[dest]
    policy = fast_dho_policy(tmp_path / "policy.npz")
    command = "sweep" if dest in ("parameter", "values") else "run"
    flag = [f"--{dest.replace('_', '-')}", value]
    written = []
    for side, (text, flags) in enumerate(((base, flag), (base + lines + "\n", []))):
        out = tmp_path / f"out{side}"
        fill = {"policy": policy, "out": out}
        argv = [command, "--spec", write_spec(tmp_path, text.format(**fill), f"{side}.spec")]
        argv += [f.format(**fill) for f in flags] + ([] if dest == "out" else ["--out", str(out)])
        assert main(argv) == 0, argv
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert written[0] == written[1]
    assert {"summary.csv", "trace.csv"} <= set(written[0]) or set(written[0]) == {"sweep.csv"}


def test_eval_random_agent_needs_no_checkpoint(tmp_path):
    spec = write_spec(tmp_path, FAST_RANDOM)
    assert main(["eval", "--spec", spec, "--out", str(tmp_path / "e")]) == 0
    assert (tmp_path / "e" / "summary.csv").exists()


def test_actor_and_vtrace_flags(tmp_path):
    spec = write_spec(tmp_path, FAST_DHO)
    out = tmp_path / "o"
    code = main(
        ["run", "--spec", spec, "--actors", "2", "--vtrace", "off", "--out", str(out)]
    )
    assert code == 0
    assert (out / "checkpoint.npz").exists()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    spec = write_spec(tmp_path, FAST_RANDOM)
    monkeypatch.setenv("LEOHO_OUTPUT_DIR", str(tmp_path / "env_out"))
    assert main(["run", "--spec", spec]) == 0
    assert (tmp_path / "env_out" / "summary.csv").exists()


def test_case_flag(tmp_path):
    spec = write_spec(tmp_path, "agent = random\neval_episodes = 15\n")
    out = tmp_path / "case"
    assert main(["run", "--spec", spec, "--case", "case2", "--out", str(out)]) == 0
    # Case 2 caps success at 0.6: 3 + 3 blocks for 10 terminals.
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    header = (out / "summary.csv").read_text().splitlines()[0].split(",")
    h_mean = float(row[header.index("ho_success_mean")])
    assert h_mean <= 0.6 + 1e-9


def exit_code(argv) -> tuple[int, str]:
    """``main``'s exit code, argparse's included, and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_ratio_and_sweep_inputs_exit_2_before_any_work(tmp_path):
    out = tmp_path / "out"
    cases = []
    for ratio in ("rb_ratio", "preamble_ratio"):
        for value in ("inf", "1e400", "nan", "-1"):
            text = FAST_RANDOM + f"scenario.{ratio} = {value}\n"
            spec = write_spec(tmp_path, text, f"{ratio}{value}.spec")
            cases.append(["run", "--spec", spec])
            cases.append(["sweep", "--parameter", ratio, "--values", f"1,{value}"])
            cases.append(["run", f"--{ratio.replace('_', '-')}", value])
    for parameter in ("J", "N", "horizon", "batch_size"):
        for value in ("2.5", "nan", "inf"):
            cases.append(["sweep", "--parameter", parameter, "--values", f"3,{value}"])
    spec = write_spec(tmp_path, FAST_RANDOM)
    for argv in cases:
        if "--spec" not in argv:
            argv = argv + ["--spec", spec]
        code, err = exit_code(argv + ["--out", str(out)])
        assert code == 2, argv
        assert "configuration error" in err and "Traceback" not in err, argv
        assert not out.exists(), argv


def test_huge_counts_exit_2_before_any_work(tmp_path):
    out = tmp_path / "out"
    cases = []
    for line in (
        "scenario.J = 1e9",
        "scenario.K = 1e9",
        "scenario.N = 1e9",
        "scenario.R = 1e30",
        "scenario.P = 1e30",
        "scenario.tau = 1e30",
        "scenario.rb_ratio = 1e30",
        "scenario.preamble_ratio = 1e30",
    ):
        spec = write_spec(tmp_path, FAST_RANDOM + line + "\n", f"huge{len(cases)}.spec")
        cases.append(["run", "--spec", spec])
    spec = write_spec(tmp_path, FAST_RANDOM)
    for parameter in ("J", "N", "rb_ratio", "preamble_ratio", "tau"):
        cases.append(["sweep", "--spec", spec, "--parameter", parameter, "--values", "3,1e30"])
    cases.append(["run", "--spec", spec, "--rb-ratio", "1e30"])
    # J * K past the learned policy's bound, for training only.
    cases.append(["run", "--spec", write_spec(tmp_path, FAST_DHO + "scenario.J = 30000\n", "wide.spec")])
    dho = write_spec(tmp_path, FAST_DHO, "dho.spec")
    cases.append(["sweep", "--spec", dho, "--parameter", "J", "--values", "3,30000"])
    # A vast network or rollout pass, for training only.
    for i, lines in enumerate(
        (
            "training.hidden = 1e9,8\n",
            "training.hidden = 8,9223372036854775808\n",
            "training.hidden = 8,2000000\n",
            "training.batch_size = 1e18\ntrain_episodes = 1e12\n",
        )
    ):
        vast = write_spec(tmp_path, FAST_DHO + lines, f"vast{i}.spec")
        cases += [["run", "--spec", vast], ["ablation", "--spec", vast]]
    # Trains within its bounds, but an evaluation chunk is too wide.
    hidden = f"training.hidden = {too_wide_to_evaluate(dho)},1\n"
    cases.append(["run", "--spec", write_spec(tmp_path, FAST_DHO + hidden, "ev.spec")])
    long_dho = write_spec(tmp_path, FAST_DHO + "train_episodes = 1e12\n", "long.spec")
    cases.append(["sweep", "--spec", long_dho, "--parameter", "batch_size", "--values", "24,1e18"])
    for argv in cases:
        code, err = exit_code(argv + ["--out", str(out)])
        assert code == 2, argv
        assert "configuration error" in err and "Traceback" not in err, argv
        assert not out.exists(), argv


def test_a3_trigger_past_int64_acts_as_horizon_plus_one(tmp_path):
    base = "agent = conventional\neval_episodes = 20\nscenario.J = 4\nscenario.N = 8\n"
    traces = []
    for trigger in (10**30, 9):
        spec = write_spec(tmp_path, base + f"scenario.a3_trigger_slots = {trigger}\n", f"t{trigger}.spec")
        out = tmp_path / f"out{trigger}"
        code, err = exit_code(["run", "--spec", spec, "--out", str(out)])
        assert code == 0, err
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_long_horizon_at_default_terminals_exits_0(tmp_path):
    # A long horizon runs; only one whose single episode passes the cell bound is refused.
    spec = write_spec(tmp_path, "agent = random\neval_episodes = 2\nscenario.N = 3000\n")
    code, err = exit_code(["run", "--spec", spec, "--out", str(tmp_path / "out")])
    assert code == 0, err


@pytest.mark.parametrize(
    "error",
    [
        MemoryError("Unable to allocate 22.4 GiB for an array with shape (1, 1000000000, 3)"),
        OverflowError("Python int too large to convert to C long"),
    ],
)
def test_memory_and_overflow_errors_exit_3_with_one_line(tmp_path, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(experiments, "run_experiment", fail)
    code, err = exit_code(["run", "--spec", write_spec(tmp_path, FAST_RANDOM), "--out", str(tmp_path)])
    assert code == 3
    assert err == f"error: {type(error).__name__}: {error}\n"


# Spec keys and flags of the exit-code fuzz, with values that are valid,
# malformed, non-finite, negative or fractional.  Valid sizes stay small so
# every run is quick; huge values go only to the keys whose runs they cannot
# lengthen, the counts that are bounded before any work and the seed.
FUZZ_KEYS = (
    "scenario.J",
    "scenario.N",
    "scenario.P",
    "scenario.R",
    "scenario.nu",
    "scenario.tau",
    "scenario.rb_ratio",
    "scenario.preamble_ratio",
    "scenario.a3_offset_db",
    "training.batch_size",
    "training.gamma",
    "training.rho_bar",
    "eval_episodes",
    "train_episodes",
    "master_seed",
)
FUZZ_NUMBERS = ("nan", "inf", "-inf", "1e400", "-1", "0", "0.5", "2.5", "1/20", "1/0", "3", "abc", "")
HUGE_KEYS = (
    "scenario.J",
    "scenario.K",
    "scenario.N",
    "scenario.P",
    "scenario.R",
    "scenario.tau",
    "scenario.rb_ratio",
    "scenario.preamble_ratio",
    "scenario.nu",
    "training.batch_size",
    "master_seed",
)
HUGE_NUMBERS = ("1e9", "1e18", "1e30", "9223372036854775807", "9223372036854775808")
FUZZ_PARAMETERS = (
    "J", "N", "horizon", "batch_size", "rb_ratio", "preamble_ratio", "nu", "tau", "gamma", "bogus"
)
FUZZ_BASE = """
eval_episodes = 2
train_episodes = 2
training.hidden = 8,8
"""

numbers = st.sampled_from(FUZZ_NUMBERS)
huge = st.sampled_from(HUGE_NUMBERS)
# Widths of one hidden layer: valid, malformed, or vast enough that a weight
# matrix or a learner batch's activations pass the bound.
widths = st.sampled_from(("8", "0", "2.5", "4194304") + HUGE_NUMBERS)


@settings(max_examples=60, deadline=None)
@given(
    agent=st.sampled_from(AGENT_KINDS),
    lines=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(FUZZ_KEYS), numbers),
            st.tuples(st.sampled_from(HUGE_KEYS), huge),
            st.tuples(st.just("training.hidden"), st.lists(widths, min_size=2, max_size=2).map(",".join)),
        ),
        max_size=3,
    ),
    sweep=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(FUZZ_PARAMETERS), st.lists(numbers | huge, min_size=1, max_size=2)),
    ),
    nu=st.one_of(st.none(), numbers),
    episodes=st.one_of(st.none(), numbers),
)
@example(agent="random", lines=[("scenario.rb_ratio", "1e400")], sweep=None, nu=None, episodes=None)
@example(agent="random", lines=[("scenario.preamble_ratio", "nan")], sweep=None, nu=None, episodes=None)
@example(agent="random", lines=[("scenario.rb_ratio", "-1")], sweep=None, nu=None, episodes=None)
@example(agent="random", lines=[], sweep=("preamble_ratio", ["inf"]), nu=None, episodes=None)
@example(agent="random", lines=[], sweep=("J", ["2.5"]), nu=None, episodes=None)
@example(agent="dho", lines=[], sweep=("batch_size", ["nan"]), nu=None, episodes=None)
@example(agent="random", lines=[("scenario.J", "1e9")], sweep=None, nu=None, episodes=None)
@example(agent="random", lines=[("scenario.R", "1e30")], sweep=None, nu=None, episodes=None)
@example(agent="random", lines=[("scenario.P", "1e30")], sweep=None, nu=None, episodes=None)
@example(agent="conventional", lines=[("scenario.P", "1e18")], sweep=None, nu=None, episodes=None)
@example(agent="random", lines=[("scenario.K", "1e9")], sweep=None, nu=None, episodes=None)
@example(agent="dho", lines=[], sweep=("preamble_ratio", ["1e9"]), nu=None, episodes=None)
@example(agent="dho", lines=[("training.hidden", "8,1e9")], sweep=None, nu=None, episodes=None)
@example(agent="dho", lines=[("training.hidden", "4194304,8")], sweep=None, nu=None, episodes=None)
@example(agent="dho", lines=[("training.batch_size", "1e18")], sweep=None, nu=None, episodes=None)
@example(agent="dho", lines=[], sweep=("batch_size", ["1e18"]), nu=None, episodes=None)
def test_every_input_exits_0_or_2_without_a_traceback(agent, lines, sweep, nu, episodes):
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "fuzz.spec"
        text = FUZZ_BASE + f"agent = {agent}\n" + "".join(f"{k} = {v}\n" for k, v in lines)
        spec.write_text(text)
        argv = ["run", "--spec", str(spec), "--out", str(Path(tmp) / "out")]
        if sweep is not None:
            parameter, values = sweep
            argv[0] = "sweep"
            argv += ["--parameter", parameter, "--values", ",".join(values)]
        if nu is not None:
            argv.append(f"--nu={nu}")
        if episodes is not None:
            argv.append(f"--episodes={episodes}")
        code, err = exit_code(argv)
    assert code in (0, 2), (argv, err)
    assert "Traceback" not in err
