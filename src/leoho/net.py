"""Policy/value network: a small tanh MLP with per-terminal categorical heads.

Implemented directly on numpy arrays so gradients are exact, inspectable,
and cheap at desk scale (observation dims in the tens, batch in the
thousands).  The trunk is shared; each terminal gets one head of
``num_actions`` logits and a single linear value head estimates the state
value.  Several parameter sets stacked into a :class:`StackedPolicy` run
their decision forward as one pass.  A learner's pass runs in one
:class:`TrunkBuffers` set, which holds its observation rows, activations,
logits, values and gradients: :func:`forward_batch` writes them and
:func:`backward_trunk` reads them back.

The per-head kernels run one of the K planes at a time: the softmax and
the log-probabilities of chosen actions, the per-head sum
(:func:`head_sum`), a per-head array's broadcast over the planes
(:func:`broadcast_planes`) and the actions' one-hot (:func:`one_hot`).
At J = 100 a reduction or a broadcast over a last axis of length 3 costs
several times a loop over its planes.  Elementwise operations and the
max give the same bits either way.  A sum does only for K < 8: numpy
sums fewer than eight values left to right, as a plane loop does, from
0.0, and eight or more pairwise, so :func:`head_sum` keeps numpy's
reduction from K = 8 on.  The softmax's own per-head sum, of positive
terms, is a plane loop for every K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

TENSOR_NAMES = ("w1", "b1", "w2", "b2", "w_pi", "b_pi", "w_v", "b_v")


@dataclass
class PolicyParameters:
    """All trainable tensors plus the shape metadata needed to rebuild them."""

    obs_dim: int
    num_ues: int
    num_actions: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_pi: np.ndarray  # (hidden2, num_ues * num_actions)
    b_pi: np.ndarray
    w_v: np.ndarray  # (hidden2,)
    b_v: np.ndarray  # (1,)

    def __post_init__(self) -> None:
        if self.w1.ndim != 2 or self.w2.ndim != 2:
            raise ValueError(
                f"w1 and w2 must be matrices, got shapes {self.w1.shape} and {self.w2.shape}"
            )
        h1 = self.w1.shape[1]
        h2 = self.w2.shape[1]
        heads = self.num_ues * self.num_actions
        expected = {
            "w1": (self.obs_dim, h1),
            "b1": (h1,),
            "w2": (h1, h2),
            "b2": (h2,),
            "w_pi": (h2, heads),
            "b_pi": (heads,),
            "w_v": (h2,),
            "b_v": (1,),
        }
        for name, shape in expected.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name} must have shape {shape}, got {actual}")
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def hidden_sizes(self) -> tuple[int, int]:
        return self.w1.shape[1], self.w2.shape[1]

    def tensors(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in TENSOR_NAMES}

    def copy(self) -> "PolicyParameters":
        """A deep copy."""
        return PolicyParameters(
            obs_dim=self.obs_dim,
            num_ues=self.num_ues,
            num_actions=self.num_actions,
            **{name: getattr(self, name).copy() for name in TENSOR_NAMES},
        )


def init_params(
    obs_dim: int,
    num_ues: int,
    num_actions: int,
    hidden: tuple[int, int] = (128, 128),
    rng: np.random.Generator | None = None,
    head_scale: float = 0.01,
) -> PolicyParameters:
    """Xavier trunk, near-zero heads so the initial policy is near uniform."""
    rng = np.random.default_rng(0) if rng is None else rng
    h1, h2 = hidden
    heads = num_ues * num_actions

    def xavier(fan_in: int, fan_out: int) -> np.ndarray:
        scale = np.sqrt(2.0 / (fan_in + fan_out))
        return scale * rng.standard_normal((fan_in, fan_out))

    return PolicyParameters(
        obs_dim=obs_dim,
        num_ues=num_ues,
        num_actions=num_actions,
        w1=xavier(obs_dim, h1),
        b1=np.zeros(h1),
        w2=xavier(h1, h2),
        b2=np.zeros(h2),
        w_pi=head_scale * rng.standard_normal((h2, heads)),
        b_pi=np.zeros(heads),
        w_v=head_scale * rng.standard_normal(h2),
        b_v=np.zeros(1),
    )


def zero_params(
    obs_dim: int, num_ues: int, num_actions: int, hidden: tuple[int, int] = (128, 128)
) -> PolicyParameters:
    h1, h2 = hidden
    heads = num_ues * num_actions
    return PolicyParameters(
        obs_dim=obs_dim,
        num_ues=num_ues,
        num_actions=num_actions,
        w1=np.zeros((obs_dim, h1)),
        b1=np.zeros(h1),
        w2=np.zeros((h1, h2)),
        b2=np.zeros(h2),
        w_pi=np.zeros((h2, heads)),
        b_pi=np.zeros(heads),
        w_v=np.zeros(h2),
        b_v=np.zeros(1),
    )


@dataclass
class TrunkBuffers:
    """The arrays of one forward and backward pass over ``rows`` observations.

    ``forward_batch(params, trunk.inputs, out=trunk)`` writes the
    activations, logits and values, and :func:`backward_trunk` reads them
    and writes the gradients, so a learner that keeps one set for a run
    makes no new arrays per update; each pass overwrites the one before.
    """

    inputs: np.ndarray  # (rows, obs_dim) observations
    h1: np.ndarray  # (rows, hidden1) post-tanh
    h2: np.ndarray  # (rows, hidden2) post-tanh
    logits: np.ndarray  # (rows, J * K)
    values: np.ndarray  # (rows,)
    spares: tuple[np.ndarray, np.ndarray]  # (rows * max(hidden),) each, see backward_trunk
    grads: dict[str, np.ndarray]  # shaped like the parameters

    @classmethod
    def allocate(cls, params: PolicyParameters, rows: int) -> "TrunkBuffers":
        h1, h2 = params.hidden_sizes
        return cls(
            inputs=np.empty((rows, params.obs_dim)),
            h1=np.empty((rows, h1)),
            h2=np.empty((rows, h2)),
            logits=np.empty((rows, params.num_ues * params.num_actions)),
            values=np.empty(rows),
            spares=(np.empty(rows * max(h1, h2)), np.empty(rows * max(h1, h2))),
            grads={name: np.empty_like(tensor) for name, tensor in params.tensors().items()},
        )


@dataclass(frozen=True)
class StackedPolicy:
    """G parameter sets stacked on a leading axis.

    Weights are (G, fan_in, fan_out) and biases (G, 1, fan_out), so
    :func:`forward_batch` runs its layer chain once over (G, B, obs_dim)
    observations, each group under its own parameters.  The stack serves
    decisions only and never runs its value head, which it keeps so that
    :meth:`group` can give each set back as :class:`PolicyParameters`.
    Each set's arrays live in the stack: a group is a view, so a set that
    is updated in place through :meth:`group` is what the next decision
    reads (the learner's parameters during training, see
    :class:`training.PassBlocks`).
    """

    obs_dim: int
    num_ues: int
    num_actions: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w_pi: np.ndarray
    b_pi: np.ndarray
    w_v: np.ndarray  # (G, hidden2)
    b_v: np.ndarray  # (G, 1)

    @classmethod
    def allocate(cls, params: PolicyParameters, groups: int) -> "StackedPolicy":
        """An unwritten stack of ``groups`` sets shaped like ``params``."""
        tensors = {
            name: np.empty((groups,) + tensor.shape) for name, tensor in params.tensors().items()
        }
        # (G, 1, fan_out) biases broadcast over each group's rows.
        tensors.update({name: tensors[name][:, None] for name in _ROW_BIASES})
        return cls(params.obs_dim, params.num_ues, params.num_actions, **tensors)

    def __len__(self) -> int:
        return self.w1.shape[0]

    def first(self, groups: int) -> "StackedPolicy":
        """The stack of its first ``groups`` sets, viewing its arrays."""
        tensors = {name: getattr(self, name)[:groups] for name in TENSOR_NAMES}
        return StackedPolicy(self.obs_dim, self.num_ues, self.num_actions, **tensors)

    def put(self, g: int, params: PolicyParameters) -> None:
        """Copy ``params`` into group ``g``, which may be unwritten."""
        for name, tensor in params.tensors().items():
            np.copyto(getattr(self, name)[g], tensor)

    def group(self, g: int) -> PolicyParameters:
        """Parameter set ``g``, as views of the stacked arrays, which must be written."""
        tensors = {name: getattr(self, name)[g] for name in TENSOR_NAMES}
        tensors.update({name: tensors[name][0] for name in _ROW_BIASES})
        return PolicyParameters(self.obs_dim, self.num_ues, self.num_actions, **tensors)


# The layer biases, which gain a row axis in a stack.
_ROW_BIASES = ("b1", "b2", "b_pi")


def stack_params(params: Sequence[PolicyParameters]) -> StackedPolicy:
    """A new :class:`StackedPolicy` of parameter sets that share their shapes."""
    stack = StackedPolicy.allocate(params[0], len(params))
    for g, p in enumerate(params):
        stack.put(g, p)
    return stack


def forward_batch(
    params: PolicyParameters | StackedPolicy,
    obs: np.ndarray,
    value_head: bool = True,
    out: TrunkBuffers | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Logits (B, J, K) and values (B,) of (B, obs_dim) observations.

    A :class:`StackedPolicy` takes (G, B, obs_dim) observations and gives
    (G, B, J, K) logits; it runs only with ``value_head=False``, which
    skips the value head and gives None for the values.  With ``out`` the
    activations, logits and values are written into its buffers, which the
    results then view; without, each is a new array.
    """
    if value_head and isinstance(params, StackedPolicy):
        raise ValueError("a stacked policy runs without its value head")
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != params.w1.ndim or obs.shape[-1] != params.obs_dim:
        raise ValueError(
            f"observations must have {params.w1.ndim} axes, the last of length "
            f"{params.obs_dim}, got {obs.shape}"
        )
    h1, h2, logits, values = (None,) * 4 if out is None else (out.h1, out.h2, out.logits, out.values)
    # Each matmul writes its result, and the bias add and tanh run in place on it.
    h1 = np.matmul(obs, params.w1, out=h1)
    h1 += params.b1
    np.tanh(h1, out=h1)
    h2 = np.matmul(h1, params.w2, out=h2)
    h2 += params.b2
    np.tanh(h2, out=h2)
    logits = np.matmul(h2, params.w_pi, out=logits)
    logits += params.b_pi
    logits = logits.reshape(obs.shape[:-1] + (params.num_ues, params.num_actions))
    if not value_head:
        return logits, None
    values = np.matmul(h2, params.w_v, out=values)
    values += params.b_v[0]
    return logits, values


def forward(params: PolicyParameters | StackedPolicy, obs: np.ndarray) -> np.ndarray:
    """Inference forward pass: (..., J, K) logits of (..., obs_dim) observations.

    A single observation gives (J, K) logits.  A :class:`StackedPolicy` of
    G sets splits the rows into G equal runs in order and gives each run
    its own set's logits.  The pass serves decisions and skips the value
    head; :func:`forward_batch` gives the values.
    """
    obs = np.asarray(obs, dtype=float)
    lead = obs.shape[:-1]
    groups = (len(params),) if isinstance(params, StackedPolicy) else ()
    rows = obs.reshape(groups + (-1, obs.shape[-1]))
    logits, _ = forward_batch(params, rows, value_head=False)
    return logits.reshape(lead + logits.shape[-2:])


def backward_trunk(
    params: PolicyParameters,
    trunk: TrunkBuffers,
    dlogits: np.ndarray,
    dvalues: np.ndarray,
) -> dict[str, np.ndarray]:
    """Exact gradients of any scalar loss given its logits/value gradients.

    ``trunk`` holds the pass ``forward_batch(params, trunk.inputs,
    out=trunk)`` made: its inputs and activations are read, its spares take
    the intermediates, and the gradients returned are its ``grads``.
    """
    b = trunk.inputs.shape[0]
    dlogits_flat = dlogits.reshape(b, -1)
    grads = trunk.grads
    first, second = trunk.spares
    np.matmul(trunk.h2.T, dlogits_flat, out=grads["w_pi"])
    np.sum(dlogits_flat, axis=0, out=grads["b_pi"])
    np.matmul(trunk.h2.T, dvalues, out=grads["w_v"])
    np.sum(dvalues, keepdims=True, out=grads["b_v"])

    # The first spare holds dz2, then h1's tanh slope once dz2 is used up;
    # the second the value head's outer product, h2's tanh slope, then dz1.
    h1_width, h2_width = params.hidden_sizes
    dz2 = np.matmul(dlogits_flat, params.w_pi.T, out=_rows(first, b, h2_width))
    outer = np.multiply(dvalues[:, None], params.w_v[None, :], out=_rows(second, b, h2_width))
    dz2 += outer
    dz2 *= _tanh_slope(trunk.h2, out=outer)
    np.matmul(trunk.h1.T, dz2, out=grads["w2"])
    np.sum(dz2, axis=0, out=grads["b2"])

    dz1 = np.matmul(dz2, params.w2.T, out=_rows(second, b, h1_width))
    dz1 *= _tanh_slope(trunk.h1, out=_rows(first, b, h1_width))
    np.matmul(trunk.inputs.T, dz1, out=grads["w1"])
    np.sum(dz1, axis=0, out=grads["b1"])
    return grads


def _rows(spare: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first ``rows * width`` cells of a spare buffer, as (rows, width)."""
    return spare[: rows * width].reshape(rows, width)


def _tanh_slope(h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``1 - h**2``, the derivative of tanh at its output ``h``, into ``out``."""
    slope = np.square(h, out=out)
    return np.subtract(1.0, slope, out=slope)


def _planes(values: np.ndarray) -> list[np.ndarray]:
    """The K planes of (..., K) values, as (...) views."""
    return [values[..., plane] for plane in range(values.shape[-1])]


def broadcast_planes(
    ufunc: np.ufunc, values: np.ndarray, per_head: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``ufunc(values, per_head[..., None], out=out)``, one plane at a time.

    ``values`` is (..., K) and ``per_head`` broadcasts against (...);
    ``out`` defaults to ``values``, in place.
    """
    out = values if out is None else out
    for plane, dest in zip(_planes(values), _planes(out)):
        ufunc(plane, per_head, out=dest)
    return out


def one_hot(actions: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``actions[..., None] == np.arange(K)`` into ``out``, (..., K), one plane at a time."""
    for action, plane in enumerate(_planes(out)):
        np.equal(actions, action, out=plane)
    return out


def _shift(
    logits: np.ndarray, out: np.ndarray | None = None, top: np.ndarray | None = None
) -> np.ndarray:
    """Logits less their per-head max, into ``out``; ``top`` is a (..., 1) buffer for the max.

    ``out`` may be ``logits`` itself.
    """
    top = _copy(logits[..., 0:1], top)
    for plane in range(1, logits.shape[-1]):
        np.maximum(top, logits[..., plane : plane + 1], out=top)
    out = np.empty_like(logits) if out is None else out
    return broadcast_planes(np.subtract, logits, top[..., 0], out=out)


def _plane_sum(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum over the last axis, kept with length one, into ``out``.

    It adds ``0.0 + v_0 + v_1 + ...`` left to right, one plane at a time,
    which is how numpy sums an axis shorter than eight, so for K < 8 the
    bits are those of ``np.sum(values, axis=-1)``, signed zeros included.
    ``out`` may be ``values[..., 0:1]`` itself.
    """
    total = np.add(values[..., 0:1], 0.0, out=out)
    for plane in range(1, values.shape[-1]):
        total += values[..., plane : plane + 1]
    return total


def head_sum(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(values, axis=-1)`` with its bits, into ``out``, a (...) buffer.

    numpy sums fewer than eight values left to right and eight or more
    pairwise, so K < 8 goes through :func:`_plane_sum`'s plane loop and
    longer heads keep numpy's reduction.
    """
    if values.shape[-1] >= 8:
        return np.sum(values, axis=-1, out=out)
    return _plane_sum(values, out=None if out is None else out[..., None])[..., 0]


def _copy(values: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``values`` copied into ``out``, or into a new array."""
    if out is None:
        return np.array(values)
    np.copyto(out, values)
    return out


def softmax_and_log_softmax(
    logits: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    per_head: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stable softmax and log-softmax over the last axis, from one pass.

    ``out`` is a (probs, logp) pair of buffers shaped like ``logits``, and
    logp may be ``logits`` itself; ``per_head`` is a (..., 1) buffer for
    the per-head max and sum.  Without them each is a new array.  The
    per-head max and sum run one plane at a time, and so do their
    broadcasts over the planes.
    """
    probs, logp = (None, None) if out is None else out
    shifted = _shift(logits, out=logp, top=per_head)
    exps = np.exp(shifted, out=probs)
    total = _plane_sum(exps, out=per_head)[..., 0]
    broadcast_planes(np.divide, exps, total)
    broadcast_planes(np.subtract, shifted, np.log(total, out=total))
    return exps, shifted


def pick(values: np.ndarray, actions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``values[..., actions]`` per head: (..., J, K) and (..., J) give (..., J), into ``out``."""
    picked = _copy(values[..., 0], out)
    for plane in range(1, values.shape[-1]):
        np.copyto(picked, values[..., plane], where=actions == plane)
    return picked


def head_log_probs(
    logits: np.ndarray, actions: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-head log-probability of the chosen actions.

    ``logits`` is (..., J, K), ``actions`` (..., J) integer; returns (..., J).
    With ``out``, a (..., J) buffer, the result goes there and the pass
    runs in place over ``logits``, which it uses up; without, the logits
    are left as they are and each array is new.
    """
    if out is None:
        shifted = _shift(logits)
    else:  # the max goes in ``out``, which the chosen log-probs then overwrite
        shifted = _shift(logits, out=logits, top=out[..., None])
    chosen = pick(shifted, actions, out=out)
    exps = np.exp(shifted, out=shifted)
    total = _plane_sum(exps, out=exps[..., 0:1])[..., 0]
    chosen -= np.log(total, out=total)
    return chosen
