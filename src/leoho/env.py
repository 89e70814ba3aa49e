"""The handover MDP, stepped for many episodes at once.

One episode is ``horizon`` handover opportunities.  Each slot runs, in order:
request derivation, admission against remaining resource blocks, two-step
random access with preamble contention, completion bookkeeping, metrics, and
reward.  Measurements fold new samples lazily, on their own random stream.

Conventions, fixed across the whole package:

* Resource blocks are an episode-total budget per target plane.  A terminal
  that completes handover holds one block for the rest of the episode; a
  terminal that was granted a block but lost the preamble contention gives
  it back at the end of the slot.
* The per-slot delay metric ``D`` counts terminals still lacking access
  after the slot's completions, so a run where everyone succeeds at the
  first opportunity scores a delay sum of 0.
* The reward is ``-nu * D - C`` where ``C`` sums both collision rates.
  ``nu`` therefore sets how expensive waiting is relative to colliding.

:class:`HandoverEnv` steps a chunk of E independent episodes in lockstep, so
its state arrays carry a leading episode axis, also for a chunk of one.
Every episode draws its randomness from generators seeded by its own key
(see :meth:`HandoverEnv.reset`), so an episode plays out the same whichever
episodes share its chunk, and an episode that has settled can be retired
from the chunk (:meth:`HandoverEnv.retire`) without changing the others.
:func:`play` is the one slot loop: evaluation and training both step their
chunks through it, each under its own decider.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from leoho import link, orbital
from leoho.rng import episode_generators, integer_words, integers_by_rows, seed_key, uniform_from_raw

# An evaluation chunk of E episodes is bounded by the two things it fills.
# Its per-terminal arrays (the (E, N, J) admission keys, preamble signatures
# and random actions, and the (N, E, J) outcome columns) grow with E * J,
# which BATCH_TERMINALS bounds, so they keep one size whatever the number of
# terminals.  Its per-episode rows and objects (generators, metrics records
# and trace rows) grow with E, which BATCH_EPISODES bounds: E * J alone would
# make 640-episode chunks at J = 10, which raised case1's peak memory 13 %
# for no clear speed.  So a chunk holds 256 episodes at J = 10 and 64 at
# J = 100, enough to amortise the per-slot numpy calls.  Evaluation keeps one
# chunk's outcome columns at a time, so memory does not grow with the
# episodes.
BATCH_TERMINALS = 6400
BATCH_EPISODES = 256

# Cells of the largest block an evaluation chunk allocates.  A chunk takes
# fewer episodes when theirs would pass it, and a scenario whose one episode
# passes it (ScenarioConfig.episode_cells) is a ConfigError, so no count asks
# for an array the machine cannot hold.
MAX_CHUNK_CELLS = 2**25  # 256 MiB of float64
INT64_MAX = int(np.iinfo(np.int64).max)

MEASUREMENT_STREAM = 0x4D53  # appended to an episode's seed key


class ConfigError(ValueError):
    """Invalid scenario configuration; ``field`` names the offending knob."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


def reject_non_finite(config, unbounded: tuple[str, ...] = ()) -> None:
    """ConfigError for the first ``float`` field of a config dataclass that is NaN or infinite.

    Fields named in ``unbounded`` may also be ``+inf``.  The field types are
    read as the strings postponed annotations leave.
    """
    for f in fields(config):
        if f.type == "float":
            value = getattr(config, f.name)
            if math.isfinite(value) or (f.name in unbounded and value == math.inf):
                continue
            raise ConfigError(f.name, f"must be a finite number, got {value}")


@dataclass(frozen=True)
class FeatureMask:
    """Which blocks the observation vector carries.

    The first three are locally observable at the serving satellite.
    ``a3_centralized`` appends per-(terminal, target) A3 event flags, which
    require terminal-side measurements and exist as an upper-bound study.
    """

    time_index: bool = True
    accessed_vector: bool = True
    prev_action: bool = True
    a3_centralized: bool = False


@dataclass(frozen=True)
class ScenarioConfig:
    """All environment knobs for one scenario."""

    num_ues: int = 10
    num_planes: int = 3  # plane 0 serves; planes 1..K-1 are handover targets
    rb_per_target: tuple[int, ...] = (10, 10)  # episode-total budget per target; one int for all
    num_preambles: int = 50
    horizon: int = 20  # handover opportunities per episode
    slot_s: float = 0.3
    nu: float = 1.0  # delay weight in the reward
    area_m: float = 1000.0
    altitude_m: float = 550e3
    ue_positions: tuple | None = None  # explicit (J, 2) or (J, 3) metres, else uniform
    features: FeatureMask = field(default_factory=FeatureMask)
    shadowing_sigma_db: float = 2.0
    a3_offset_db: float = 1.0
    a3_trigger_slots: int = 1
    measurement_period_s: float = 0.15  # must divide slot_s
    iir_order: float = 4.0

    def __post_init__(self) -> None:
        reject_non_finite(self)
        if self.num_ues < 1:
            raise ConfigError("num_ues", "need at least one terminal")
        if self.num_planes < 2:
            raise ConfigError("num_planes", "need a serving plane and at least one target")
        if self.num_preambles < 1:
            raise ConfigError("num_preambles", "need at least one preamble signature")
        if self.horizon < 1:
            raise ConfigError("horizon", "need at least one handover opportunity")
        if self.slot_s <= 0:
            raise ConfigError("slot_s", "slot duration must be positive")
        if self.nu < 0:
            raise ConfigError("nu", "reward weight must be non-negative")
        if self.area_m <= 0:
            raise ConfigError("area_m", "area side must be positive")
        if self.altitude_m <= 0:
            raise ConfigError("altitude_m", "altitude must be positive")
        if self.shadowing_sigma_db < 0:
            raise ConfigError("shadowing_sigma_db", "sigma must be non-negative")
        if self.a3_trigger_slots < 1:
            raise ConfigError("a3_trigger_slots", "trigger count must be at least 1")
        if self.ue_positions is not None:
            try:
                positions = np.asarray(self.ue_positions, dtype=float)
            except (TypeError, ValueError):
                positions = None
            if (
                positions is None
                or positions.shape not in ((self.num_ues, 2), (self.num_ues, 3))
                or not np.isfinite(positions).all()
            ):
                raise ConfigError(
                    "ue_positions", f"expected finite numbers shaped ({self.num_ues}, 2) or ({self.num_ues}, 3)"
                )
        if self.iir_order < 0:
            raise ConfigError("iir_order", f"filter order must be non-negative, got {self.iir_order}")
        if self.measurement_period_s <= 0:
            raise ConfigError("measurement_period_s", "measurement period must be positive")
        ratio = self.slot_s / self.measurement_period_s
        if not math.isfinite(ratio) or round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError(
                "measurement_period_s",
                f"slot_s / measurement_period_s must be a positive integer, got {ratio:g}",
            )
        if self.episode_cells > MAX_CHUNK_CELLS:
            raise ConfigError(
                "scenario",
                f"one episode's largest block must hold at most {MAX_CHUNK_CELLS} cells; "
                "lower the horizon, the terminals, the planes, the preambles or the measurement "
                "samples per slot",
            )
        if isinstance(self.rb_per_target, int):  # one budget for every target
            object.__setattr__(self, "rb_per_target", (self.rb_per_target,) * self.num_targets)
        if len(self.rb_per_target) != self.num_planes - 1:
            raise ConfigError(
                "rb_per_target",
                f"expected {self.num_planes - 1} entries, got {len(self.rb_per_target)}",
            )
        if any(r < 0 for r in self.rb_per_target):
            raise ConfigError("rb_per_target", "resource blocks must be non-negative")
        if any(r > INT64_MAX for r in self.rb_per_target):
            raise ConfigError("rb_per_target", f"at most {INT64_MAX} blocks per target")

    @property
    def num_targets(self) -> int:
        return self.num_planes - 1

    @property
    def samples_per_slot(self) -> int:
        """Measurement samples folded per slot, M = slot_s / measurement_period_s."""
        return round(self.slot_s / self.measurement_period_s)

    @property
    def episode_cells(self) -> int:
        """Cells of the largest block one episode of an evaluation chunk adds.

        The largest of: the sampling agent's (N, J, K) Gumbel noise; one
        folded slot's M x 3 terminal-to-satellite coordinate differences per
        (terminal, plane); and the K * (P + 1) RACH contention bins.  The
        noise also covers the (N, J) per-slot draws and, from four slots on,
        the 2J + NJ + ceil(NJ / 2) raw words :meth:`HandoverEnv.reset` draws
        them from.
        """
        j, k = self.num_ues, self.num_planes
        return max(self.horizon * j * k, 3 * self.samples_per_slot * j * k, k * (self.num_preambles + 1))

    @property
    def beta_l3(self) -> float:
        return link.beta_from_iir_order(self.iir_order)


def batch_episodes(config: ScenarioConfig) -> int:
    """Episodes an evaluation chunk steps together.

    ``min(BATCH_EPISODES, BATCH_TERMINALS // J)``, fewer where their blocks
    would pass :data:`MAX_CHUNK_CELLS`, and at least one.
    """
    fit = MAX_CHUNK_CELLS // config.episode_cells
    return max(1, min(BATCH_EPISODES, BATCH_TERMINALS // config.num_ues, fit))


def observation_size(config: ScenarioConfig) -> int:
    f = config.features
    j, k = config.num_ues, config.num_planes
    size = 0
    if f.time_index:
        size += 1
    if f.accessed_vector:
        size += j
    if f.prev_action:
        size += j * k
    if f.a3_centralized:
        size += j * (k - 1)
    return size


@dataclass
class EnvState:
    """Mutable state of the episodes stepped together.

    Arrays carry a leading episode axis, and the view of one episode
    (:meth:`episode`) none.
    """

    slot: int
    accessed: np.ndarray  # (E, J) bool, monotone within an episode
    rb_remaining: np.ndarray  # (E, K-1) int
    prev_action: np.ndarray  # (E, J) int in [0, K)
    ue_positions: np.ndarray  # (E, J, 3) m

    def episode(self, e: int) -> "EnvState":
        """Episode ``e`` of the chunk, as views that share its arrays."""
        return EnvState(
            self.slot,
            self.accessed[e],
            self.rb_remaining[e],
            self.prev_action[e],
            self.ue_positions[e],
        )


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """Everything one slot produced, per terminal and aggregated.

    A step's outcome carries a leading episode axis on every field but
    ``slot``: (E, J) per-terminal arrays, (E, K-1) rates and (E,)
    aggregates.  One episode's records (:class:`EpisodeOutcomes`) carry
    none, and their aggregates are floats.
    """

    slot: int  # 1-based opportunity index
    requested: np.ndarray  # (J,) target plane requested, 0 = none
    command: np.ndarray  # (J,) target granted, 0 = none
    preamble: np.ndarray  # (J,) drawn signature, 0 = none
    rb_collision: np.ndarray  # (J,) bool, request refused for lack of blocks
    prach_collision: np.ndarray  # (J,) bool, shared signature on the target
    newly_accessed: np.ndarray  # (J,) bool
    c_r_per_target: np.ndarray  # (K-1,)
    c_p: float
    c_total: float
    d: float
    reward: float


# The fields after ``slot``: per-terminal arrays and per-target rates, then
# the aggregates, which are floats in one episode's records.
_ARRAY_FIELDS = tuple(f.name for f in fields(StepOutcome))[1:8]
_FLOAT_FIELDS = tuple(f.name for f in fields(StepOutcome))[8:]


class OutcomeColumns(dict):
    """Columns of a chunk's N slot outcomes, one per :class:`StepOutcome` field.

    The (N, E, ...) buffers, for E episodes of ``config``, are allocated
    when the columns are built, and every slot starts with the outcome of a
    settled episode, every terminal of which has access.  Every agent
    decides action 0 then, so nothing is requested, granted or sent, nobody
    collides, D = 0 and the reward is ``-nu * 0.0 - 0.0``, -0.0 for every nu.
    :meth:`append` writes a stepped slot over the rows of the episodes
    still stepped, so an episode retired from its chunk
    (:meth:`HandoverEnv.retire`) keeps the settled outcome in its remaining
    slots.  Each column is an (E, N, ...) view of its buffer, with the slot
    axis outermost in memory.  ``slot`` is (N,).
    """

    def __init__(self, config: ScenarioConfig, episodes: int):
        super().__init__(slot=np.arange(1, config.horizon + 1))
        lead = (config.horizon, episodes)
        terminals = lead + (config.num_ues,)
        self._buffers = [
            ("requested", np.zeros(terminals, np.int64)),
            ("command", np.zeros(terminals, np.int64)),
            ("preamble", np.zeros(terminals, np.int64)),
            ("rb_collision", np.zeros(terminals, bool)),
            ("prach_collision", np.zeros(terminals, bool)),
            ("newly_accessed", np.zeros(terminals, bool)),
            ("c_r_per_target", np.zeros(lead + (config.num_targets,))),
            ("c_p", np.zeros(lead)),
            ("c_total", np.zeros(lead)),
            ("d", np.zeros(lead)),
            ("reward", np.full(lead, -0.0)),
        ]
        for name, buffer in self._buffers:
            self[name] = buffer.swapaxes(0, 1)

    def append(self, outcome: StepOutcome, rows: np.ndarray | slice = slice(None)) -> None:
        """Write ``outcome``, one row for each episode in ``rows``, into its slot.

        The other episodes' entries of the slot stay as they are.
        """
        n = outcome.slot - 1
        for name, buffer in self._buffers:
            buffer[n, rows] = getattr(outcome, name)

    @functools.cached_property
    def episode_sums(self) -> list[tuple[float, float, float, float, float]]:
        """Each episode's (D, C_R, C_P, accessed share, reward): its :class:`MetricsRecord` fields.

        D, C_P and the reward are folded left to right from 0.0, slot by
        slot over the slot-major buffers, for every episode at once: what
        Python's ``sum`` of an episode's floats gives up to 3.11, and the
        same on every interpreter (3.12's ``sum`` compensates its rounding).
        C_R is numpy's ``sum`` of the episode's (N, K-1) block laid out as
        one contiguous row, as for an episode stepped alone, so it does not
        depend on the chunk.  The accessed share is the count of the
        episode's terminals flagged ``newly_accessed`` in some slot, over J:
        none has access at reset, so those are the ones that have it at the
        end.
        """
        d, c_p, reward = (_fold_slots(self[name].T) for name in ("d", "c_p", "reward"))
        blocks = self["c_r_per_target"]
        c_r = np.ascontiguousarray(blocks).reshape(len(blocks), -1).sum(axis=1).tolist()
        accessed = self["newly_accessed"].any(axis=1)  # (E, J)
        share = (accessed.sum(axis=1) / accessed.shape[1]).tolist()
        return list(zip(d, c_r, c_p, share, reward))


def _fold_slots(buffer: np.ndarray) -> list[float]:
    """((0.0 + x_1) + x_2) + ... + x_N of an (N, E) buffer, one float per episode."""
    total = buffer[0] + 0.0
    for row in buffer[1:]:
        total += row
    return total.tolist()


class EpisodeOutcomes(Sequence):
    """One episode's step outcomes, read from the columns of its chunk.

    Episode ``episode`` of :class:`OutcomeColumns`, or of a dict holding
    some of them.  Indexing or iterating builds :class:`StepOutcome`
    records, one per slot, equal to those stepping the episode alone gives,
    and needs every column; :func:`episode_metrics` reads the columns and
    builds none.
    """

    __slots__ = ("columns", "episode")

    def __init__(self, columns: dict[str, np.ndarray], episode: int):
        self.columns = columns
        self.episode = episode

    def __len__(self) -> int:
        return len(self.columns["slot"])

    def __getitem__(self, n):
        c, e = self.columns, self.episode
        return StepOutcome(
            int(c["slot"][n]),
            *(c[name][e, n] for name in _ARRAY_FIELDS),
            *(float(c[name][e, n]) for name in _FLOAT_FIELDS),
        )


@dataclass(frozen=True)
class MetricsRecord:
    """Episode-level aggregates."""

    sum_delay: float
    sum_collision_rb: float
    sum_collision_prach: float
    ho_success: float
    episode_return: float

    @property
    def sum_collision(self) -> float:
        return self.sum_collision_rb + self.sum_collision_prach


def _plane_codes(planes: np.ndarray, num_targets: int) -> np.ndarray:
    """(row, plane) codes ``plane + row * (num_targets + 1)`` of ``planes`` (..., J)."""
    lead = planes.shape[:-1]
    bins = num_targets + 1
    return planes + np.arange(0, math.prod(lead) * bins, bins).reshape(lead + (1,))


def _plane_counts(codes: np.ndarray, num_targets: int) -> np.ndarray:
    """Entries of each row equal to 1..num_targets, (..., num_targets), from :func:`_plane_codes`.

    One bincount over the codes; plane 0 lands in each row's uncounted bin.
    """
    lead = codes.shape[:-1]
    bins = num_targets + 1
    size = math.prod(lead) * bins
    return np.bincount(codes.ravel(), minlength=size).reshape(lead + (bins,))[..., 1:]


def admission(
    requested: np.ndarray,
    rb_remaining: np.ndarray,
    num_ues: int,
    keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grant handover requests against the remaining per-target blocks.

    ``requested`` is (..., J) target planes (0 = none) and ``rb_remaining``
    (..., K-1), over the same leading episode axes.  Requesters are counted
    per (episode, target) with one bincount.  A target with at least as
    many blocks as requesters grants them all, and one with no block left
    refuses them all, so those are read from a per-(episode, plane) table.
    A target with some blocks but fewer than its requesters grants the
    ``rb_remaining`` requesters with the smallest ``keys`` (..., J), i.i.d.
    uniform draws, so the granted subset is uniform at random: only the rows
    holding such a target are put in key order, and each target plane in
    turn refuses its requesters whose running count in that order passes
    its blocks.  Returns (command, rb_collision, c_r) where ``command`` is
    the granted target plane (0 if none), ``rb_collision`` flags refused
    requesters, and ``c_r`` (..., K-1) is the per-target collision rate
    (excess requesters over the whole population).
    """
    requested = np.asarray(requested)
    rb_remaining = np.asarray(rb_remaining)
    num_targets = rb_remaining.shape[-1]
    codes = _plane_codes(requested, num_targets)
    excess = _plane_counts(codes, num_targets) - rb_remaining
    contended = excess > 0
    if not contended.any():  # every slot when R >= J: nothing to refuse
        return requested.copy(), np.zeros(requested.shape, dtype=bool), np.zeros(excess.shape)
    # Refuse every requester of a contended target; the partly contended
    # rows are ranked below and overwritten.
    refused = np.zeros(excess.shape[:-1] + (num_targets + 1,), dtype=bool)
    refused[..., 1:] = contended
    rb_collision = refused.ravel()[codes]
    partial = contended & (rb_remaining > 0)
    if partial.any():
        # Put the rows in key order; flat indices into the raveled batch keep
        # the gather and the scatter back cheap.
        j = requested.shape[-1]
        rows = np.flatnonzero(partial.reshape(-1, num_targets).any(axis=-1))
        order = keys.reshape(-1, j)[rows].argsort(axis=-1)
        order += rows[:, None] * j
        ranked = requested.ravel()[order]
        blocks = rb_remaining.reshape(-1, num_targets)[rows]
        refused_ranked = np.zeros(ranked.shape, dtype=bool)
        for plane in range(1, num_targets + 1):
            wants = ranked == plane
            refused_ranked |= wants & (wants.cumsum(axis=-1) > blocks[:, plane - 1 : plane])
        rb_collision.ravel()[order] = refused_ranked
    command = np.where(rb_collision, 0, requested)
    return command, rb_collision, np.maximum(excess, 0) / num_ues


def rach(
    command: np.ndarray,
    num_preambles: int,
    num_ues: int,
    preambles: np.ndarray,
    num_targets: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-step random access for every commanded terminal.

    ``command`` is (..., J) granted target planes.  Each commanded terminal
    sends its signature from ``preambles`` (..., J), uniform on {1..P}.
    Terminals sharing an (episode, target, signature) collide and fail, the
    rest complete.  ``num_targets`` bounds the planes in ``command``; a
    slot that commands nobody bins nothing.  Returns (preamble,
    prach_collision, c_p) with ``c_p`` (...).
    """
    command = np.asarray(command)
    commanded = command > 0
    if not commanded.any():  # no signature sent, so none collides
        return np.zeros_like(preambles), commanded, np.zeros(command.shape[:-1])[()]
    preamble = np.where(commanded, preambles, 0)
    # One bin per (episode, target, signature); uncommanded terminals land in
    # their episode's target-0 bins and are masked out.
    stride = (num_targets + 1) * (num_preambles + 1)
    codes = command * (num_preambles + 1) + preamble
    codes += np.arange(0, command.size // command.shape[-1] * stride, stride).reshape(
        command.shape[:-1] + (1,)
    )
    prach_collision = commanded & (np.bincount(codes.ravel())[codes] > 1)
    return preamble, prach_collision, prach_collision.sum(axis=-1) / num_ues


class HandoverEnv:
    """One serving satellite's handover episodes, stepped action-by-action.

    A single instance is owned by one caller at a time; independent
    instances are safe to run in parallel.  All randomness comes from each
    episode's own generators, in a fixed layout: the per-slot blocks are
    drawn at :meth:`reset`, and the measurement shadowing as each slot is
    folded, for the episodes still stepped only.  Traces are therefore
    bit-reproducible from (config, seed, actions), and retiring an episode
    (:meth:`retire`) changes no other episode's draws.
    """

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # (K, 3) positions at slot 0 and velocities.
        self._init_positions, self._velocities = orbital.default_constellation(
            altitude_m=config.altitude_m,
            num_planes=config.num_planes,
            slot_duration_s=config.slot_s,
            horizon=config.horizon,
            area_m=config.area_m,
        )
        self._rb_initial = np.array(config.rb_per_target, dtype=np.int64)
        # Measurement instants of slot n: slot start + m * period, m = 1..M.
        m = config.samples_per_slot
        self._sample_times = (
            np.arange(config.horizon)[:, None] * config.slot_s
            + np.arange(1, m + 1) * config.measurement_period_s
        )
        self.state: EnvState | None = None
        self._seed_keys: list[tuple[int, ...]] = []
        # The reset batch's rows still stepped: all, then an index array.
        self._live: slice | np.ndarray = slice(None)
        self._keys = self._preambles = None  # (E, N, J) per-slot draws
        # reset's raw words, kept for the largest chunk; the keys are a view.
        self._words: np.ndarray | None = None
        self._meas: link.MeasurementState | None = None
        self._shadowing_rngs: np.ndarray | None = None  # object array, one generator per row
        self._meas_slot = 0  # slots folded into measurements
        self._one_hot_at: np.ndarray | None = None  # observe's (E, J) one-hot indices

    def reset(self, seed=0, *, episodes: Sequence | None = None) -> np.ndarray:
        """Start a chunk of fresh episodes and return its first observations.

        ``episodes`` takes one seed key (an int or a sequence of ints) per
        episode, stepped together; without it, ``seed`` starts a chunk of
        one, as ``episodes=[seed]`` does.  The state, observations, actions
        and outcomes carry a leading episode axis.

        Each episode with key ``s`` draws, from ``default_rng(s)`` and in
        this order: its terminal positions ``uniform(0, area, (J, 2))``,
        (N, J) uniform admission keys ``random`` and (N, J) preamble
        signatures ``integers(1, P + 1)``.  Measurement shadowing comes from
        ``default_rng(s + (0x4D53,))``, drawn as :meth:`measurements` folds.
        :func:`rng.episode_generators` builds a chunk's generators.  Each
        episode reads the words of all three in one ``random_raw`` call, and
        each part is converted for the whole chunk at once with numpy's own
        conversions (:func:`rng.uniform_from_raw`,
        :func:`rng.integers_by_rows`), so they keep ``default_rng``'s bits.
        The words go into a block the env keeps for its largest chunk, and
        the keys are converted where their words lie, so they hold until the
        next reset.
        """
        cfg = self.config
        self._seed_keys = [seed_key(s) for s in ([seed] if episodes is None else episodes)]
        e, j, n = len(self._seed_keys), cfg.num_ues, cfg.horizon
        draw_positions = cfg.ue_positions is None
        # Each episode's words: positions, keys, then signatures.
        keys_at = 2 * j if draw_positions else 0
        preambles_at = keys_at + n * j
        width = preambles_at + integer_words(n * j, cfg.num_preambles)
        if self._words is None or len(self._words) < e:
            self._words = np.empty((e, width), dtype=np.uint64)
        words = self._words[:e]
        generators = list(episode_generators(self._seed_keys))
        for i, rng in enumerate(generators):
            words[i] = rng.bit_generator.random_raw(width)
        ue_pos = np.zeros((e, j, 3))
        if draw_positions:
            uniform_from_raw(words[:, :keys_at].reshape(e, j, 2), cfg.area_m, out=ue_pos[..., :2])
        else:
            explicit = np.asarray(cfg.ue_positions, dtype=float)
            ue_pos[..., : explicit.shape[1]] = explicit
        keys = words[:, keys_at:preambles_at].view(np.float64)
        uniform_from_raw(words[:, keys_at:preambles_at], 1.0, out=keys)
        preambles = np.empty((e, n, j), dtype=np.int64)
        integers_by_rows(generators, 1, cfg.num_preambles + 1, preambles, words=words[:, preambles_at:])
        self._keys = keys.reshape(e, n, j)
        self._preambles = preambles
        self._live = slice(None)
        self._meas = None
        self._shadowing_rngs = None
        self._meas_slot = 0
        self._one_hot_at = None
        self.state = EnvState(
            slot=0,
            accessed=np.zeros((e, j), dtype=bool),
            rb_remaining=np.tile(self._rb_initial, (e, 1)),
            prev_action=np.zeros((e, j), dtype=np.int64),
            ue_positions=ue_pos,
        )
        return self.observe()

    def _rsrp(self, positions: np.ndarray) -> np.ndarray:
        """Instantaneous downlink RSRP (S, E, J, K) dBm at S sample instants.

        ``positions`` is (S, K, 3).  Each episode's shadowing for the S
        samples is its stream's next (S, J, K) standard normals, times sigma.
        """
        cfg = self.config
        d_km = orbital.nearest_distances_km(positions, self.state.ue_positions)
        rsrp = link.rsrp_dbm(d_km)
        if cfg.shadowing_sigma_db > 0.0:
            if self._shadowing_rngs is None:
                streams = [key + (MEASUREMENT_STREAM,) for key in self._seed_keys]
                rngs = np.empty(len(streams), dtype=object)
                rngs[:] = list(episode_generators(streams))
                self._shadowing_rngs = rngs[self._live]
            shape = (len(self._shadowing_rngs), len(positions), cfg.num_ues, cfg.num_planes)
            shadowing = np.empty(shape)
            for block, rng in zip(shadowing, self._shadowing_rngs):
                rng.standard_normal(out=block)
            shadowing *= cfg.shadowing_sigma_db
            rsrp += np.moveaxis(shadowing, -3, 0)
        return rsrp

    def measurements(self) -> link.MeasurementState:
        """Measurement state folded up to the current slot.

        Measurement shadowing has its own random stream per episode, drawn
        in stream order: the first sample's (J, K) normals when measurements
        are first read, then M (J, K) blocks per folded slot.  So consumers
        that never look at measurements draw nothing for it, catching up
        late folds exactly the samples an eager per-slot update would have,
        and a retired episode draws no more.
        """
        state = self.state
        if state is None:
            raise RuntimeError("reset() must be called first")
        if self._meas is None:
            first = self._rsrp(self._init_positions[None])[0]
            self._meas = link.MeasurementState.initialise(first, beta_l3=self.config.beta_l3)
        while self._meas_slot < state.slot:
            times = self._sample_times[self._meas_slot][:, None, None]
            positions = orbital.propagate(self._init_positions, self._velocities, times)
            for sample in self._rsrp(positions):
                self._meas.fold_sample(sample)
            self._meas_slot += 1
        return self._meas

    def step(self, actions: Sequence[int] | np.ndarray):
        """Advance every episode one slot.

        Returns the next observations and the slot's :class:`StepOutcome`.
        """
        cfg = self.config
        state = self.state
        if state is None:
            raise RuntimeError("reset() must be called before step()")
        if state.slot >= cfg.horizon:
            raise RuntimeError(f"episode finished after {cfg.horizon} opportunities")
        actions = np.array(actions, dtype=np.int64)
        if actions.shape != state.accessed.shape:
            raise ValueError(f"actions must have shape {state.accessed.shape}, got {actions.shape}")
        if actions.min() < 0 or actions.max() >= cfg.num_planes:
            raise ValueError("actions must lie in [0, num_planes)")

        # Request derivation: already-accessed terminals never request.
        requested = np.where(state.accessed, 0, actions)
        command, rb_collision, c_r = admission(
            requested, state.rb_remaining, cfg.num_ues, self.at_slot(self._keys)
        )
        preamble, prach_collision, c_p = rach(
            command, cfg.num_preambles, cfg.num_ues, self.at_slot(self._preambles), cfg.num_targets
        )

        newly = (command > 0) ^ prach_collision  # only commanded terminals collide
        if newly.any():
            # Completed terminals keep their block, counted per target;
            # contention losers hold none, so theirs is back in the budget.
            completed = _plane_codes(np.where(newly, command, 0), cfg.num_targets)
            state.rb_remaining -= _plane_counts(completed, cfg.num_targets)
            state.accessed |= newly

        state.prev_action = actions
        state.slot += 1
        # D is the share of terminals still lacking access, and C sums both
        # collision rates.
        d = (cfg.num_ues - state.accessed.sum(axis=-1)) / cfg.num_ues
        c_total = c_r.sum(axis=-1) + c_p
        outcome = StepOutcome(
            state.slot, requested, command, preamble, rb_collision, prach_collision, newly, c_r,
            c_p, c_total, d, -cfg.nu * d - c_total,
        )
        return self.observe(), outcome

    def retire(self, settled: np.ndarray, observations: np.ndarray | None = None) -> EnvState:
        """End the episodes flagged in ``settled`` (E,), every terminal of which has access.

        Every agent decides action 0 in their remaining slots, each of which
        has the settled outcome :class:`OutcomeColumns` starts with.
        Returns their final state: at the horizon, with previous action 0.
        Retiring every episode ends the chunk, and the env's state is then
        that final state.
        ``observations``, an (E, horizon - slot - 1, obs_dim) buffer,
        retires every episode and receives the observations of the slots
        left to decide after the current one, as stepping action 0 builds
        them.  Otherwise the other episodes step on as the chunk: their
        state, measurement state and shadowing generators are gathered, and
        the per-slot blocks drawn at reset are read at their rows
        (:meth:`at_slot`), so each keeps its own draws and later slots draw
        shadowing for them only.
        """
        state = self.state
        if state is None:
            raise RuntimeError("reset() must be called before retire()")
        accessed = state.accessed[settled]
        if not accessed.all():
            raise ValueError("retire() needs every terminal of a retired episode to have access")
        horizon = self.config.horizon
        if observations is not None:
            if not settled.all() or observations.shape[-2] != horizon - state.slot - 1:
                raise ValueError(
                    f"observations must hold every episode's {horizon - state.slot - 1} slots left"
                )
            state.prev_action = np.zeros(state.prev_action.shape, dtype=np.int64)
            for i in range(observations.shape[-2]):
                state.slot += 1
                observations[:, i] = self.observe()
        retired = EnvState(
            horizon,
            accessed,
            state.rb_remaining[settled],
            np.zeros(accessed.shape, dtype=np.int64),
            state.ue_positions[settled],
        )
        if settled.all():
            self.state = retired
            return retired
        live = np.flatnonzero(~settled)
        self.state = EnvState(
            state.slot,
            state.accessed[live],
            state.rb_remaining[live],
            state.prev_action[live],
            state.ue_positions[live],
        )
        self._live = live if isinstance(self._live, slice) else self._live[live]
        if self._meas is not None:
            meas = self._meas
            self._meas = link.MeasurementState(meas.l1_dbm[live], meas.l3_dbm[live], meas.beta_l3)
        if self._shadowing_rngs is not None:
            self._shadowing_rngs = self._shadowing_rngs[live]
        self._one_hot_at = None
        return retired

    def at_slot(self, block: np.ndarray) -> np.ndarray:
        """The current slot of a per-episode block (E, N, ...), for the episodes still stepped.

        ``block`` carries the episode axis of :meth:`reset`'s chunk, as the
        per-slot draws made at reset do, and keeps it through :meth:`retire`.
        """
        return block[self._live, self.state.slot]

    def observe(self) -> np.ndarray:
        """Observation vectors: [n/N] + accessed + one-hot previous action (+ A3 flags).

        Blocks appear in that fixed order; disabled blocks are dropped
        outright.  The result has the state's leading episode axis.
        """
        state, config = self.state, self.config
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
            # A 1 at each terminal's action, by flat index into the rows; the
            # indices of action 0 are built once per reset.
            if self._one_hot_at is None:
                rows = np.arange(0, out.size, out.shape[-1]).reshape(lead + (1,))
                self._one_hot_at = rows + np.arange(pos, pos + j * k, k)
            out.reshape(-1)[state.prev_action + self._one_hot_at] = 1.0
            pos += j * k
        if f.a3_centralized:
            flags = self.measurements().a3_flags(config.a3_offset_db)
            out[..., pos : pos + j * (k - 1)] = flags.reshape(lead + (j * (k - 1),))
        return out


def play(
    env: HandoverEnv,
    keys: Sequence,
    agent,
    rngs=None,
    observations: np.ndarray | None = None,
) -> tuple[OutcomeColumns, list[EnvState]]:
    """Step a chunk of episodes, seeded by ``keys``, to its end under ``agent``.

    The one slot loop of evaluation and training.  ``env`` is reset with
    ``episodes=keys`` and ``agent`` begins the chunk with ``rngs``
    (``agent.begin_episode``); then each slot ``agent.act(env, obs)``
    decides for the episodes still stepped and ``env.step`` steps them.
    Once every terminal of some episodes has access, before the horizon,
    they are retired (:meth:`HandoverEnv.retire` and ``agent.retire``), and
    their remaining slots keep the settled outcome the columns start with,
    what deciding them would give.  Without ``observations`` episodes leave
    the chunk as they settle.  ``observations``, an (E, N, obs_dim) buffer,
    receives the observation each slot 0..N-1 is decided on instead (the
    state after the last slot has no decision, and no row), and the chunk
    ends only as a whole, once every episode has settled, its retirement
    filling the rest.

    Returns the chunk's :class:`OutcomeColumns` and each episode's final
    state, in ``keys`` order.
    """
    horizon = env.config.horizon
    obs = env.reset(episodes=keys)
    columns = OutcomeColumns(env.config, len(keys))
    agent.begin_episode(env, rngs)
    if observations is not None:
        observations[:, 0] = obs
    finals = [None] * len(keys)
    live = np.arange(len(keys))  # the chunk's rows still stepped
    rows = slice(None)  # the same, as the columns take them until an episode retires
    while env.state.slot < horizon:
        obs, outcome = env.step(agent.act(env, obs))
        columns.append(outcome, rows)
        slot = env.state.slot
        if observations is not None and slot < horizon:
            observations[:, slot] = obs
        settled = outcome.d == 0  # D is 0 only once every terminal has access
        if slot == horizon or not (settled.any() if observations is None else settled.all()):
            continue
        final = env.retire(settled, None if observations is None else observations[:, slot + 1 :])
        agent.retire(settled)
        for i, e in enumerate(live[settled].tolist()):
            finals[e] = final.episode(i)
        obs, live = obs[~settled], live[~settled]
        rows = live
    for i, e in enumerate(live.tolist()):
        finals[e] = env.state.episode(i)
    return columns, finals


def episode_metrics(outcomes: EpisodeOutcomes, final_state: EnvState) -> MetricsRecord:
    """Episode aggregates of an :class:`EpisodeOutcomes` view.

    The values are the episode's row of :attr:`OutcomeColumns.episode_sums`,
    which the first call for a chunk computes for every episode in it, so a
    call makes no numpy call.  ``final_state`` gives the slot count only.
    """
    if len(outcomes) != final_state.slot:
        raise ValueError(
            f"got {len(outcomes)} outcomes for {final_state.slot} completed slots"
        )
    return MetricsRecord(*outcomes.columns.episode_sums[outcomes.episode])
