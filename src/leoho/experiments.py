"""Experiment orchestration: spec files, evaluation, sweeps, reports.

A spec file is flat ``key = value`` text with dotted section prefixes
(``scenario.J = 10``); see the README for the grammar.  Spec lines, CLI
flags, named cases and sweep points are all ``(key, value)`` settings of
that grammar, laid over a spec by :func:`apply_settings`.  Every run emits
schema-stable CSVs: a summary row per (agent, sweep value), a per-slot trace,
and a learning curve when training happened.  This module is the one that
reads or writes files (the spec, the reports and the policy checkpoint), and
it writes each file whole through :func:`replace_atomically`.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import zipfile
import zlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from leoho import net
# Nothing here calls dho_decide; bench/tracing.py patches it as an
# attribute of this module, so it stays importable from here.
from leoho.agents import dho_decide, make_agent  # noqa: F401
from leoho.env import (
    ConfigError,
    EpisodeOutcomes,
    FeatureMask,
    HandoverEnv,
    MetricsRecord,
    ScenarioConfig,
    batch_episodes,
    episode_metrics,
    observation_size,
    play,
)
from leoho.rng import episode_generators
from leoho.training import VtraceConfig, check_evaluation, check_training, train

AGENT_KINDS = ("conventional", "random", "dho")

ABLATION_MASKS: dict[str, FeatureMask] = {
    "full_local": FeatureMask(),
    "no_time": FeatureMask(time_index=False),
    "no_accessed": FeatureMask(accessed_vector=False),
    "no_prev_action": FeatureMask(prev_action=False),
    "centralized": FeatureMask(a3_centralized=True),
}


def label_for_nu(nu: float) -> str:
    if math.isclose(nu, 5.0):
        return "delay-aware"
    if math.isclose(nu, 1.0 / 20.0):
        return "collision-averse"
    return ""


def _scaled_count(key: str, ratio: float, num_ues: int, least: int) -> int:
    """``ratio`` per terminal as a whole count, at least ``least``.

    A ratio that is negative or not finite, or whose count is not, is the
    key's :class:`ConfigError`.
    """
    count = ratio * num_ues
    if ratio < 0 or not math.isfinite(count):
        raise ConfigError(key, f"must be a finite non-negative ratio, got {ratio}")
    return max(least, round(count))


# Named resource regimes of the result tables: (blocks, signatures) per terminal.
CASES = {
    "case1": (1.0, 5.0),
    "case2": (0.3, 5.0),
    "case3": (1.0, 2.0),
    "case4": (1.0, 0.8),
    "abundant": (1.0, 2.0),  # enough blocks and signatures
    "scarce": (0.3, 0.8),  # short on both
}


def _named(key: str, table: dict, name: str):
    if name not in table:
        raise ConfigError(key, f"unknown {key} {name!r}, expected one of {sorted(table)}")
    return table[name]


def case_settings(case: str) -> list[tuple[str, float]]:
    """The two ratio settings of a named resource regime."""
    rb_ratio, preamble_ratio = _named("case", CASES, case)
    return [("scenario.rb_ratio", rb_ratio), ("scenario.preamble_ratio", preamble_ratio)]


def mask_settings(mask: str) -> list[tuple[str, bool]]:
    """The ``features.*`` settings of a named ablation mask."""
    features = _named("mask", ABLATION_MASKS, mask)
    return [(f"features.{f.name}", getattr(features, f.name)) for f in dataclasses.fields(features)]


# Learner schedule that converges at desk scale (tens of terminals, short
# episodes): small batches so a few thousand episodes buy a few hundred
# updates.  The VtraceConfig defaults keep the published batch size instead.
# At 5e-4 the case2 policy was still near even odds between waiting and
# requesting on several heads after 4000 episodes, so its greedy decode
# left blocks unused; 2e-3 settles on a deterministic allocation.
DESK_TRAINING = VtraceConfig(
    batch_size=200, learning_rate=2e-3, entropy_coeff=0.005, gamma=0.97
)


@dataclass
class ExperimentSpec:
    """Everything one experiment needs; mirrors the spec-file keys."""

    scenario: ScenarioConfig = dataclasses.field(default_factory=ScenarioConfig)
    training: VtraceConfig = dataclasses.field(default_factory=lambda: DESK_TRAINING)
    agent: str = "conventional"
    eval_episodes: int = 1000
    train_episodes: int = 2000
    master_seed: int = 0
    output_dir: str | None = None
    checkpoint: str | None = None
    eval_mode: str = "greedy"
    threshold_return: float = -2.0  # episodes-to-threshold cut for training-cost sweeps
    sweep_parameter: str | None = None
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.agent not in AGENT_KINDS:
            raise ConfigError("agent", f"expected one of {AGENT_KINDS}, got {self.agent!r}")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes", "need at least one evaluation episode")
        if self.train_episodes < 0:
            raise ConfigError("train_episodes", "must be non-negative")
        if self.master_seed < 0:
            raise ConfigError("master_seed", "must be non-negative")
        if self.eval_mode not in ("greedy", "sample"):
            raise ConfigError("eval_mode", f"expected greedy or sample, got {self.eval_mode!r}")
        if _trains(self):
            check_training(self.scenario, self.training, self.train_episodes)
            check_evaluation(self.scenario, self.training.hidden)


def _trains(spec: ExperimentSpec) -> bool:
    """Whether the spec's run trains a policy: only the dho agent with no checkpoint does."""
    return spec.agent == "dho" and not spec.checkpoint


# Spec-file aliases to dataclass fields.
_SCENARIO_ALIASES = {
    "J": "num_ues",
    "K": "num_planes",
    "N": "horizon",
    "P": "num_preambles",
    "R": "rb_per_target",
    "tau": "slot_s",
    "area": "area_m",
    "altitude": "altitude_m",
}
_SPEC_TOP_KEYS = {
    "agent",
    "eval_episodes",
    "train_episodes",
    "master_seed",
    "output_dir",
    "checkpoint",
    "eval_mode",
    "threshold_return",
}


def _parse_number(text: str) -> float:
    """Float with fraction support so 'nu = 1/20' reads naturally."""
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_bool(value, key: str) -> bool:
    if isinstance(value, bool):
        return value
    lowered = value.strip().lower()
    if lowered in ("1", "true", "on", "yes"):
        return True
    if lowered in ("0", "false", "off", "no"):
        return False
    raise ConfigError(key, f"expected a boolean, got {value!r}")


def _coerce(key: str, value, current):
    """``value``, spec text or a parsed number, as the type of ``current``, the field's default.

    Integer fields take only whole numbers, and every number, fractions
    included, must parse; otherwise the key's :class:`ConfigError`.  A
    parsed int, and integer text for an integer field, stay exact.
    """
    if isinstance(current, bool):
        return _parse_bool(value, key)
    if isinstance(current, tuple):
        return tuple(_coerce(key, v, 0) for v in value.split(","))
    if current is None or isinstance(current, str):
        return value
    if not isinstance(current, (int, float)):
        raise ConfigError(key, "cannot be set from a spec file")
    if isinstance(current, int):
        if type(value) is int:
            return value
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                return int(value)  # integer text; other text reads as a float below
    if not isinstance(value, str):
        number = float(value)
    else:
        try:
            number = _parse_number(value)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(key, f"expected a number, got {value!r}") from None
    if isinstance(current, float):
        return number
    if not number.is_integer():
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return int(number)


def apply_settings(spec: ExperimentSpec, settings: Iterable[tuple[str, object]]) -> ExperimentSpec:
    """``spec`` with ``settings``, ``(key, value)`` pairs of the spec grammar, laid over it.

    A value is spec text or a number already parsed.  A later setting of a
    key overrides an earlier one.  The ratios resolve against the final J
    and win over a block budget given directly, a single R is every
    target's budget, and a K that changes with no R set gives each target J
    blocks.  The result is validated once, at the end.
    """
    defaults = ExperimentSpec()  # each value is typed by its field's default
    base = spec.scenario
    scenario_kw: dict = {}
    feature_kw: dict = {}
    training_kw: dict = {}
    top_kw: dict = {}
    ratios: dict = {}

    for key, value in settings:
        if key.startswith("scenario."):
            name = key.split(".", 1)[1]
            name = _SCENARIO_ALIASES.get(name, name)
            if name in ("rb_ratio", "preamble_ratio"):
                ratios[name] = _coerce(key, value, 0.0)
                continue
            if name == "rb_per_target" and not (isinstance(value, str) and "," in value):
                # A single number means the same budget on every target.
                ratios["rb_uniform"] = _coerce(key, value, 0)
                continue
            if not hasattr(defaults.scenario, name):
                raise ConfigError(key, "unknown scenario field")
            scenario_kw[name] = _coerce(key, value, getattr(defaults.scenario, name))
        elif key.startswith("features."):
            name = key.split(".", 1)[1]
            if not hasattr(defaults.scenario.features, name):
                raise ConfigError(key, "unknown feature flag")
            feature_kw[name] = _parse_bool(value, key)
        elif key.startswith("training."):
            name = key.split(".", 1)[1]
            if not hasattr(defaults.training, name):
                raise ConfigError(key, "unknown training field")
            training_kw[name] = _coerce(key, value, getattr(defaults.training, name))
        elif key == "sweep.parameter":
            top_kw["sweep_parameter"] = value
        elif key == "sweep.values":
            top_kw["sweep_values"] = tuple(_coerce(key, v, 0.0) for v in value.split(","))
        elif key in _SPEC_TOP_KEYS:
            top_kw[key] = _coerce(key, value, getattr(defaults, key))
        else:
            raise ConfigError(key, "unknown spec key")

    if feature_kw:
        scenario_kw["features"] = dataclasses.replace(base.features, **feature_kw)
    num_ues = scenario_kw.get("num_ues", base.num_ues)
    num_planes = scenario_kw.get("num_planes", base.num_planes)
    if "rb_uniform" in ratios:
        scenario_kw["rb_per_target"] = ratios["rb_uniform"]
    if "rb_ratio" in ratios:
        scenario_kw["rb_per_target"] = _scaled_count(
            "scenario.rb_ratio", ratios["rb_ratio"], num_ues, least=0
        )
    if "preamble_ratio" in ratios:
        scenario_kw["num_preambles"] = _scaled_count(
            "scenario.preamble_ratio", ratios["preamble_ratio"], num_ues, least=1
        )
    if "rb_per_target" not in scenario_kw and num_planes != base.num_planes:
        scenario_kw["rb_per_target"] = num_ues

    return dataclasses.replace(
        spec,
        scenario=dataclasses.replace(base, **scenario_kw),
        training=dataclasses.replace(spec.training, **training_kw),
        **top_kw,
    )


def parse_spec_file(path) -> ExperimentSpec:
    """Parse the flat key-value experiment grammar, UTF-8 text, into an ExperimentSpec."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("spec", f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None

    def settings():
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            yield key, value

    return apply_settings(ExperimentSpec(), settings())


def scenario_for_case(case: str) -> ScenarioConfig:
    """The default scenario in a named resource regime."""
    return apply_settings(ExperimentSpec(), case_settings(case)).scenario


def evaluate_chunks(
    scenario: ScenarioConfig,
    agent_kind: str,
    episodes: int,
    master_seed: int,
    params: net.PolicyParameters | None,
    eval_mode: str,
    keep: Sequence[str] | None = None,
    stream: int = 101,
):
    """Evaluate episodes master_seed + i in chunks stepped together.

    Yields each chunk's first episode index, its episodes' metrics and its
    outcome columns, only those named in ``keep`` if given.  Each chunk is
    stepped by :func:`env.play` under the agent, and its episodes leave the
    chunk as they settle.  Episode i's agent generator is seeded from
    [master_seed + i, stream], and only stochastic agents build them.  The
    metrics are this module's ``episode_metrics`` of what the chunk
    returns.
    """
    env = HandoverEnv(scenario)
    agent = make_agent(agent_kind, params=params, mode=eval_mode)
    size = batch_episodes(scenario)
    for first in range(0, episodes, size):
        seeds = [master_seed + i for i in range(first, min(first + size, episodes))]
        columns, finals = play(env, seeds, agent, episode_generators([seed, stream] for seed in seeds))
        metrics = [episode_metrics(EpisodeOutcomes(columns, e), final) for e, final in enumerate(finals)]
        del finals  # so no final state outlives its chunk while the next is stepped
        if keep is not None:
            columns = {name: columns[name] for name in keep}
        yield first, metrics, columns


def evaluate(
    scenario: ScenarioConfig,
    agent_kind: str,
    episodes: int,
    master_seed: int,
    params: net.PolicyParameters | None = None,
    eval_mode: str = "greedy",
) -> list[MetricsRecord]:
    """Metrics of one agent over fresh episode seeds master_seed + i."""
    chunks = evaluate_chunks(scenario, agent_kind, episodes, master_seed, params, eval_mode, keep=())
    return [record for _, metrics, _ in chunks for record in metrics]


@contextlib.contextmanager
def replace_atomically(path, mode: str = "w", **open_kwargs):
    """A file opened for writing whose contents replace ``path`` when the block ends.

    It is written under a temporary name in the same directory and renamed
    over ``path`` once the block completes, so ``path`` always holds a whole
    file.  If the block raises, the temporary file goes and ``path`` stays
    as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def trace_header(num_targets: int) -> list[str]:
    targets = [f"C_R_{k}" for k in range(1, num_targets + 1)]
    return ["episode", "n", "D", *targets, "C_P", "reward", "accessed_count"]


class _TraceTails(dict):
    """Formatted trace-row tails, keyed by the bits of the row's values.

    A tail is everything after ``episode,n,``: the row's D, C_R, C_P and
    reward, its accessed count (a function of D) and the line end.  A miss
    formats the row; the bits tell -0.0 from 0.0.
    """

    def __init__(self, num_ues: int, width: int):
        super().__init__()
        self.num_ues = num_ues
        self.template = "%.6f," * width + "%d\r\n"

    def __missing__(self, key: bytes) -> str:
        values = np.frombuffer(key).tolist()
        # np.rint and round both round half to even.
        accessed = round(self.num_ues * (1.0 - values[0]))
        tail = self[key] = self.template % (*values, accessed)
        return tail


# The columns the trace reads; a chunk's trace views need no others.
TRACE_COLUMNS = ("slot", "d", "c_r_per_target", "c_p", "reward")


def write_trace_csv(
    path, chunks: Iterable[tuple[int, dict[str, np.ndarray]]], num_ues: int, num_targets: int
) -> None:
    """One row per slot: (episode, n, D, C_R_1.., C_P, reward, accessed_count).

    ``chunks`` pairs the index of a chunk's first episode with the chunk's
    outcome columns, the :data:`TRACE_COLUMNS` at least; its E episodes
    are numbered on from that index, and every chunk's ``slot`` column
    numbers the same N slots.  It is read lazily, and each chunk's rows are
    written before the next chunk is read, so a generator's chunks can go
    one at a time.  The bytes are those ``csv.writer`` writes for the same
    rows: nothing needs quoting, and lines end in CRLF.  A run repeats a
    few distinct (D, C_R, C_P, reward) rows, so each row's tail is
    formatted once; and an episode that has settled repeats its last row to
    the horizon, so each such trailing run is formatted once, with the
    episode field left to each episode.
    """
    tails = _TraceTails(num_ues, num_targets + 3)
    runs = {}
    with replace_atomically(path, newline="") as fh:
        fh.write(",".join(trace_header(num_targets)) + "\r\n")
        for first, columns in chunks:
            fh.write(_trace_rows(first, columns, tails, runs))


def _trace_rows(
    first: int,
    columns: dict[str, np.ndarray],
    tails: _TraceTails,
    runs: dict[tuple[bytes, int], tuple[str, ...]],
) -> str:
    """The trace rows of one chunk whose first episode is ``first``.

    An episode whose last rows, from slot index ``start`` on, are two or
    more equal rows takes them from ``runs[row bits, start]``: "" and then
    those rows without their episode field, which joining them with the
    episode's field puts back.
    """
    values = np.concatenate(
        (
            columns["d"][..., None],
            columns["c_r_per_target"],
            columns["c_p"][..., None],
            columns["reward"][..., None],
        ),
        axis=-1,
    )
    # (E, N-1): row n + 1 equals row n, bit for bit, so -0.0 and 0.0 differ.
    # Column by column, as all() over a short last axis is slower.
    bits = values.view(np.uint64)
    repeats = bits[:, 1:, 0] == bits[:, :-1, 0]
    for k in range(1, bits.shape[-1]):
        repeats &= bits[:, 1:, k] == bits[:, :-1, k]
    tied = np.logical_and.accumulate(repeats[:, ::-1], axis=1).sum(axis=1)  # each episode's last repeats
    horizon = len(columns["slot"])
    ends = np.where(tied > 0, horizon - 1 - tied, horizon)  # the rows before each episode's run
    row_bits = np.dtype((np.void, values.itemsize * values.shape[-1]))
    keys = values.view(row_bits)[..., 0]  # (E, N) row bits
    heads = keys[np.arange(horizon) < ends[:, None]].tolist()  # every episode's rows before its run
    run_rows = iter(keys[ends < horizon, -1].tolist())  # the row of each run
    slots = [f"{n}," for n in columns["slot"].tolist()]
    lines = []
    stop = 0
    for e, end in enumerate(ends.tolist(), start=first):
        prefix = f"{e},"
        begin, stop = stop, stop + end
        lines += [prefix + slot + tails[key] for slot, key in zip(slots, heads[begin:stop])]
        if end < horizon:
            key = next(run_rows)
            run = runs.get((key, end))
            if run is None:
                tail = tails[key]
                run = runs[key, end] = ("", *(slot + tail for slot in slots[end:]))
            lines.append(prefix.join(run))
    return "".join(lines)


SUMMARY_HEADER = [
    "agent",
    "label",
    "parameter",
    "value",
    "eval_episodes",
    "sum_delay_mean",
    "sum_delay_std",
    "sum_collision_rb_mean",
    "sum_collision_rb_std",
    "sum_collision_prach_mean",
    "sum_collision_prach_std",
    "ho_success_mean",
    "ho_success_std",
    "return_mean",
    "return_std",
    "episodes_to_threshold",
]


# Summary column stem: the MetricsRecord field it summarises.
_SUMMARY_FIELDS = {
    "sum_delay": "sum_delay",
    "sum_collision_rb": "sum_collision_rb",
    "sum_collision_prach": "sum_collision_prach",
    "ho_success": "ho_success",
    "return": "episode_return",
}


def summary_row(
    records: Sequence[MetricsRecord],
    agent: str,
    label: str = "",
    parameter: str = "",
    value: str = "",
    episodes_to_threshold: str = "",
) -> dict:
    # (5, E): each row is one field's contiguous column, so its mean and
    # spread have the bits of the same reductions over that column alone.
    block = np.array([[getattr(r, name) for r in records] for name in _SUMMARY_FIELDS.values()])
    row = {
        "agent": agent,
        "label": label,
        "parameter": parameter,
        "value": value,
        "eval_episodes": len(records),
        "episodes_to_threshold": episodes_to_threshold,
    }
    for column, mean, std in zip(_SUMMARY_FIELDS, block.mean(axis=1).tolist(), block.std(axis=1).tolist()):
        row[f"{column}_mean"] = f"{mean:.6f}"
        row[f"{column}_std"] = f"{std:.6f}"
    return row


def _summary_values(row: dict) -> list:
    if row.keys() != set(SUMMARY_HEADER):
        raise ValueError(f"a summary row's fields must be {SUMMARY_HEADER}, got {list(row)}")
    return [row[key] for key in SUMMARY_HEADER]


def write_summary_csv(path, rows: Sequence[dict]) -> None:
    with replace_atomically(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(map(_summary_values, rows))


CURVE_HEADER = ["episode", "mean_return", "sum_delay", "sum_collision"]
# The bytes csv.writer writes for a curve row of the episode and three
# "%.6f" fields: none of them needs quoting, and lines end in CRLF.
_CURVE_ROW = "%d,%.6f,%.6f,%.6f\r\n"


def _curve_rows(records: Sequence[MetricsRecord], prefix: str = "") -> str:
    """The curve rows of ``records``, each led by ``prefix``, which holds no ``%``.

    The episode index is the record's position.
    """
    template = prefix + _CURVE_ROW
    return "".join(
        [template % (e, r.episode_return, r.sum_delay, r.sum_collision) for e, r in enumerate(records)]
    )


def write_curve_csv(path, records: Sequence[MetricsRecord]) -> None:
    """One row per training episode, built in memory and written once."""
    text = ",".join(CURVE_HEADER) + "\r\n" + _curve_rows(records)
    with replace_atomically(path, newline="") as fh:
        fh.write(text)


CHECKPOINT_VERSION = 1
_CHECKPOINT_SHAPES = ("obs_dim", "num_ues", "num_actions")


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(params: net.PolicyParameters, path) -> None:
    """Versioned, lossless parameter snapshot (.npz), written to ``path`` as named."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "obs_dim": params.obs_dim,
        "num_ues": params.num_ues,
        "num_actions": params.num_actions,
        "hidden": list(params.hidden_sizes),
    }
    # Built in memory, then written once: the archive's bytes are those
    # np.savez writes to a file, since both are seekable.
    archive = io.BytesIO()
    meta_bytes = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(archive, meta=meta_bytes, **params.tensors())
    with replace_atomically(path, "wb") as fh, archive.getbuffer() as data:
        fh.write(data)


def load_checkpoint(path, scenarios: Iterable[ScenarioConfig] = ()) -> net.PolicyParameters:
    """Load a checkpoint, checked to fit and evaluate on each of ``scenarios``.

    The file must be an .npz archive whose entries read and decode, the
    shapes ints, every tensor a real floating-point array and the shapes
    those of each scenario; anything else is a :class:`CheckpointError`.  A
    scenario whose evaluation chunk the policy would make too wide is
    :func:`check_evaluation`'s ConfigError.
    """
    not_checkpoint = f"{path} is not a policy checkpoint"
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):  # a .npy array
            raise CheckpointError(not_checkpoint)
        with data:
            meta = json.loads(bytes(data["meta"]).decode()) if "meta" in data else None
            tensors = {name: data[name] for name in net.TENSOR_NAMES if name in data}
    # np.load's refusal of a pickle, a bad array header and a meta entry
    # that is not UTF-8 JSON are ValueErrors.
    except (EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
        raise CheckpointError(not_checkpoint) from exc
    if not isinstance(meta, dict):
        raise CheckpointError(not_checkpoint)
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {meta.get('version')} unsupported (want {CHECKPOINT_VERSION})"
        )
    missing = [k for k in _CHECKPOINT_SHAPES if k not in meta]
    missing += [name for name in net.TENSOR_NAMES if name not in tensors]
    if missing:
        raise CheckpointError(f"{path} lacks {', '.join(missing)}")
    shapes = {k: meta[k] for k in _CHECKPOINT_SHAPES}
    malformed = [k for k, v in shapes.items() if type(v) is not int]
    malformed += [name for name, t in tensors.items() if t.dtype.kind != "f"]
    if malformed:
        raise CheckpointError(
            f"{path} holds malformed {', '.join(malformed)} "
            "(shapes must be ints, tensors real floating-point arrays)"
        )
    params = net.PolicyParameters(**shapes, **tensors)
    actual = (params.obs_dim, params.num_ues, params.num_actions)
    for scenario in scenarios:
        expected = (observation_size(scenario), scenario.num_ues, scenario.num_planes)
        if expected != actual:
            raise CheckpointError(
                f"checkpoint shape {actual} does not fit scenario {expected} "
                "(obs_dim, num_ues, num_planes)"
            )
        check_evaluation(scenario, params.hidden_sizes)
    return params


def episodes_to_threshold(curve, threshold: float, window: int = 100) -> int | None:
    """First episode whose trailing-window mean return reaches the threshold."""
    returns = [r.episode_return for r in curve]
    if not returns:
        return None
    window = min(window, len(returns))
    for end in range(window, len(returns) + 1):
        if float(np.mean(returns[end - window : end])) >= threshold:
            return end
    return None


def _checked_checkpoint(spec: ExperimentSpec, points: Iterable[ExperimentSpec]) -> net.PolicyParameters | None:
    """The spec's policy checkpoint, loaded once and checked against every point; None when it names none."""
    if spec.agent == "dho" and spec.checkpoint:
        return load_checkpoint(spec.checkpoint, [point.scenario for point in points])
    return None


def _policy(point: ExperimentSpec, loaded: net.PolicyParameters | None):
    """A point's (params, curve): its policy trained, or ``loaded`` and no curve when it trains none."""
    if not _trains(point):
        return loaded, None
    return train(point.scenario, point.training, episodes=point.train_episodes, seed=point.master_seed)


def run_experiment(spec: ExperimentSpec, out_dir) -> dict:
    """Train if needed, evaluate, and write summary/trace artifacts."""
    out_dir = Path(out_dir)
    scenario = spec.scenario
    loaded = _checked_checkpoint(spec, [spec])  # checked before anything is written
    out_dir.mkdir(parents=True, exist_ok=True)
    params, curve = _policy(spec, loaded)
    if curve is not None:
        save_checkpoint(params, out_dir / "checkpoint.npz")
        write_curve_csv(out_dir / "curve.csv", curve)

    records: list[MetricsRecord] = []

    def traces():
        # The trace is written chunk by chunk, and each chunk keeps only the
        # columns it reads, so memory does not grow with the episode count.
        for first, metrics, columns in evaluate_chunks(
            scenario, spec.agent, spec.eval_episodes, spec.master_seed, params, spec.eval_mode,
            keep=TRACE_COLUMNS,
        ):
            records.extend(metrics)
            yield first, columns

    write_trace_csv(out_dir / "trace.csv", traces(), scenario.num_ues, scenario.num_targets)
    row = summary_row(records, spec.agent, label=label_for_nu(scenario.nu))
    write_summary_csv(out_dir / "summary.csv", [row])

    artifacts = {
        "summary": out_dir / "summary.csv",
        "trace": out_dir / "trace.csv",
        "row": row,
    }
    if curve is not None:
        artifacts["curve"] = out_dir / "curve.csv"
        artifacts["checkpoint"] = out_dir / "checkpoint.npz"
    return artifacts


def _sweep_key(parameter: str, trains: bool) -> str:
    """The spec key a sweep ``parameter`` sets: a numeric scenario or training field, by name or alias.

    A training field is swept only by a sweep that trains.
    """
    name = _SCENARIO_ALIASES.get(parameter, parameter)
    if name == "num_planes":
        raise ConfigError(
            "sweep.parameter", f"{parameter!r} cannot be swept: its new targets would have no block budget"
        )
    if name in ("rb_ratio", "preamble_ratio", "rb_per_target"):
        return f"scenario.{name}"
    defaults = ExperimentSpec()
    for section in ("scenario", "training"):
        config = getattr(defaults, section)
        if hasattr(config, name):
            current = getattr(config, name)
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise ConfigError("sweep.parameter", f"{parameter} is not a numeric {section} field")
            if section == "training" and not trains:
                raise ConfigError(
                    "sweep.parameter",
                    f"{parameter!r} is a training field, but this sweep trains nothing "
                    "(only the dho agent with no checkpoint trains)",
                )
            return f"{section}.{name}"
    raise ConfigError("sweep.parameter", f"unknown parameter {parameter!r}")


def _sweep_point(spec: ExperimentSpec, key: str, value: float) -> ExperimentSpec:
    point = apply_settings(spec, [(key, value)])
    if key == "scenario.num_ues":
        # Each target's blocks and the signatures keep their share per
        # terminal, so the regime stays comparable.
        base, j = spec.scenario, point.scenario.num_ues
        blocks = (_scaled_count(key, r / base.num_ues, j, least=0) for r in base.rb_per_target)
        ratios = [
            ("scenario.R", ",".join(map(str, blocks))),
            ("scenario.preamble_ratio", base.num_preambles / base.num_ues),
        ]
        point = apply_settings(point, ratios)
    return point


def sweep_experiment(spec: ExperimentSpec, parameter: str, values: Sequence[float], out_dir) -> dict:
    """One summary row per sweep value for the spec's agent.

    Every sweep point is built, and so validated, before any of them runs,
    and a policy checkpoint is loaded once and checked against every point.
    """
    key = _sweep_key(parameter, _trains(spec))
    points = [(value, _sweep_point(spec, key, value)) for value in values]
    loaded = _checked_checkpoint(spec, [point for _, point in points])
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, point in points:
        scenario = point.scenario
        params, curve = _policy(point, loaded)
        to_threshold = ""
        if curve is not None:
            hit = episodes_to_threshold(curve, spec.threshold_return)
            to_threshold = "" if hit is None else str(hit)
        records = evaluate(
            scenario,
            spec.agent,
            spec.eval_episodes,
            spec.master_seed,
            params=params,
            eval_mode=spec.eval_mode,
        )
        rows.append(
            summary_row(
                records,
                spec.agent,
                label=label_for_nu(scenario.nu),
                parameter=parameter,
                value=f"{value:g}",
                episodes_to_threshold=to_threshold,
            )
        )
    path = out_dir / "sweep.csv"
    write_summary_csv(path, rows)
    return {"sweep": path, "rows": rows}


def behavior_stats(
    params: net.PolicyParameters,
    scenario: ScenarioConfig,
    episodes: int,
    master_seed: int = 0,
) -> tuple[float, float]:
    """Fractions of request vs. wait decisions among unaccessed terminals.

    Decisions are sampled from the policy (not greedy) so an untrained
    uniform policy reports a request fraction near (K-1)/K.  The episodes
    are the evaluation chunks of :func:`evaluate_chunks`, and episode i
    samples from the generator seeded [master_seed + i, 202].
    """
    requests = 0
    waits = 0
    for _, _, columns in evaluate_chunks(
        scenario, "dho", episodes, master_seed, params, "sample",
        keep=("requested", "newly_accessed"), stream=202,
    ):
        requested = columns["requested"] > 0  # (E, N, J); accessed terminals request nothing
        newly = columns["newly_accessed"]
        # Unaccessed when the slot began: accessed in no earlier slot.
        unaccessed = newly.cumsum(axis=1) == newly
        requests += int(requested.sum())
        waits += int((unaccessed & ~requested).sum())
    total = requests + waits
    if total == 0:
        return 0.0, 0.0
    return requests / total, waits / total


ABLATION_HEADER = ["mask", *CURVE_HEADER]


def ablation(spec: ExperimentSpec, mask_names: Sequence[str], out_dir) -> dict:
    """Train one policy per feature mask and emit the overlaid curves.

    Each mask's point is the spec as a dho agent with no checkpoint and the
    mask's four ``features.*`` settings; every point is built, and so
    validated, before any training.  A mask named twice trains once.
    """
    learner = [("agent", "dho"), ("checkpoint", "")]
    points = {name: apply_settings(spec, learner + mask_settings(name)) for name in dict.fromkeys(mask_names)}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = {name: _policy(point, None)[1] for name, point in points.items()}
    path = out_dir / "ablation_curves.csv"
    write_ablation_csv(path, curves)
    return {"curves": curves, "path": path}


def write_ablation_csv(path, curves: dict[str, Sequence[MetricsRecord]]) -> None:
    """Each mask's curve rows led by its name, built in memory and written once.

    Every name must be one of :data:`ABLATION_MASKS`, none of which needs
    CSV quoting, so the rows are the bytes ``csv.writer`` writes.
    """
    for name in curves:
        _named("mask", ABLATION_MASKS, name)
    text = ",".join(ABLATION_HEADER) + "\r\n"
    text += "".join([_curve_rows(curve, f"{name},") for name, curve in curves.items()])
    with replace_atomically(path, newline="") as fh:
        fh.write(text)
