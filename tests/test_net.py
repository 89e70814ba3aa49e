import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from leoho import net


def test_zero_params_give_uniform_logits_and_zero_value():
    params = net.zero_params(6, 2, 3, hidden=(8, 8))
    assert np.array_equal(net.forward(params, np.ones(6)), np.zeros((2, 3)))
    logits, values = net.forward_batch(params, np.ones((1, 6)))
    assert np.array_equal(logits, np.zeros((1, 2, 3))) and np.array_equal(values, [0.0])


def test_softmax_shift_invariance():
    logits = np.array([[1.0, 2.0, 3.0]])
    probs = net.softmax_and_log_softmax(logits)[0]
    assert np.allclose(probs, net.softmax_and_log_softmax(logits + 42.0)[0])


def test_forward_finite_on_unit_box_inputs():
    rng = np.random.default_rng(0)
    params = net.init_params(41, 10, 3, rng=rng)
    obs = rng.uniform(0, 1, size=(64, 41))
    logits, values = net.forward_batch(params, obs)
    assert np.isfinite(logits).all() and np.isfinite(values).all()


def test_forward_shape_validation():
    params = net.zero_params(5, 2, 3, hidden=(4, 4))
    with pytest.raises(ValueError):
        net.forward(params, np.zeros(4))


def test_parameter_shape_validation():
    params = net.zero_params(5, 2, 3, hidden=(4, 4))
    tensors = params.tensors()
    tensors["w_pi"] = np.zeros((4, 5))  # wrong head width
    with pytest.raises(ValueError):
        net.PolicyParameters(obs_dim=5, num_ues=2, num_actions=3, **tensors)
    bad = params.tensors()
    bad["w1"] = np.full((5, 4), np.nan)
    with pytest.raises(ValueError):
        net.PolicyParameters(obs_dim=5, num_ues=2, num_actions=3, **bad)


def test_head_log_probs_match_manual_computation():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 2, 3))
    actions = rng.integers(0, 3, size=(4, 2))
    lp = net.head_log_probs(logits, actions)
    for b in range(4):
        for j in range(2):
            row = logits[b, j]
            manual = row[actions[b, j]] - np.log(np.exp(row - row.max()).sum()) - row.max()
            assert lp[b, j] == pytest.approx(manual, abs=1e-12)


def test_copy_is_deep():
    params = net.init_params(5, 2, 3, hidden=(4, 4), rng=np.random.default_rng(0))
    clone = params.copy()
    clone.w1[0, 0] += 1.0
    assert params.w1[0, 0] != clone.w1[0, 0]


# --- the trimmed kernels against the reductions they replace ---------------------
# The plane loops and in-place chains must give the bits the plain formulas give.


def reference_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_softmax(logits):
    shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def reference_forward_batch(params, obs):
    h1 = np.tanh(obs @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    logits = (h2 @ params.w_pi + params.b_pi).reshape(
        obs.shape[0], params.num_ues, params.num_actions
    )
    values = h2 @ params.w_v + params.b_v[0]
    return logits, values, h1, h2


def reference_backward_trunk(params, trunk, dlogits, dvalues):
    b = trunk.inputs.shape[0]
    dlogits_flat = dlogits.reshape(b, -1)
    grads = {
        "w_pi": trunk.h2.T @ dlogits_flat,
        "b_pi": dlogits_flat.sum(axis=0),
        "w_v": trunk.h2.T @ dvalues,
        "b_v": np.array([dvalues.sum()]),
    }
    dh2 = dlogits_flat @ params.w_pi.T + dvalues[:, None] * params.w_v[None, :]
    dz2 = dh2 * (1.0 - trunk.h2**2)
    grads["w2"] = trunk.h1.T @ dz2
    grads["b2"] = dz2.sum(axis=0)
    dh1 = dz2 @ params.w2.T
    dz1 = dh1 * (1.0 - trunk.h1**2)
    grads["w1"] = trunk.inputs.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return grads


@st.composite
def heads(draw):
    """(..., K) logits within +-1e3, K in 2..7, with a (...) action per head.

    Half the cases round the logits to integers, so heads hold ties.
    """
    k = draw(st.integers(2, 7))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.uniform(-1.0, 1.0, size=lead + (k,)) * draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        logits = np.round(logits)
    actions = rng.integers(0, k, size=lead)
    return logits, actions


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(heads())
def test_head_kernels_match_reductions_bit_for_bit(case):
    logits, actions = case
    logp = reference_log_softmax(logits)
    probs, shared_logp = net.softmax_and_log_softmax(logits)
    assert_same_bits(probs, reference_softmax(logits))
    assert_same_bits(shared_logp, logp)
    chosen = np.take_along_axis(logp, actions[..., None], axis=-1)[..., 0]
    assert_same_bits(net.head_log_probs(logits, actions), chosen)
    assert_same_bits(net.pick(logp, actions), chosen)


@st.composite
def planes_cases(draw):
    """(..., K) values with K in 2..12, holding ties and signed zeros, a
    per-head (...) array, a row (rows, 1) array and (...) actions.

    Values are products of a probability and a log-probability, as the
    learner's entropy sums them, or plain normals; either may be rounded to
    integers, so heads hold ties, and some entries are set to -0.0 or 0.0.
    """
    k = draw(st.integers(2, 12))
    lead = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        probs, logp = net.softmax_and_log_softmax(rng.normal(scale=scale, size=lead + (k,)))
        values = probs * logp
    else:
        values = rng.normal(scale=scale, size=lead + (k,))
    if draw(st.booleans()):
        values = np.round(values)
    zeros = rng.random(values.shape)
    values[zeros < 0.2] = -0.0
    values[(zeros >= 0.2) & (zeros < 0.3)] = 0.0
    per_head = rng.normal(scale=scale, size=lead)
    per_head[rng.random(lead) < 0.2] = -0.0
    per_row = rng.normal(scale=scale, size=lead[:1] + (1,) * (len(lead) - 1))
    actions = rng.integers(0, k, size=lead)
    return values, per_head, per_row, actions


@settings(max_examples=300, deadline=None)
@given(planes_cases())
def test_plane_kernels_match_the_plain_expressions_bit_for_bit(case):
    # The per-plane kernels against the expressions they replace: the
    # entropy's sum over K (a plane loop for K < 8, numpy's reduction for
    # K >= 8), the actions' one-hot and the per-head broadcasts over K.
    values, per_head, per_row, actions = case
    k = values.shape[-1]
    assert_same_bits(net.head_sum(values), np.sum(values, axis=-1))
    assert_same_bits(net.head_sum(values, out=np.empty(per_head.shape)), np.sum(values, axis=-1))
    want = np.equal(actions[..., None], np.arange(k), out=np.empty(values.shape))
    assert_same_bits(net.one_hot(actions, out=np.full(values.shape, np.nan)), want)
    for ufunc in (np.add, np.subtract, np.multiply, np.divide):
        with np.errstate(divide="ignore", invalid="ignore"):
            for other in (per_head, per_row):
                got = net.broadcast_planes(ufunc, values.copy(), other)
                assert_same_bits(got, ufunc(values, other[..., None]))
            out = np.empty_like(values)
            assert net.broadcast_planes(ufunc, values, per_head, out=out) is out
            assert_same_bits(out, ufunc(values, per_head[..., None]))


@settings(max_examples=100, deadline=None)
@given(planes_cases())
def test_in_place_head_log_probs_match_the_allocating_pass(case):
    # With ``out`` the pass runs over the logits it is given and uses them
    # up; the log-probabilities keep the bits of the pass that allocates.
    logits, _, _, actions = case
    want = net.head_log_probs(logits, actions)
    scratch = logits.copy()
    out = np.full(actions.shape, np.nan)
    assert net.head_log_probs(scratch, actions, out=out) is out
    assert_same_bits(out, want)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 40),
    obs_dim=st.integers(1, 12),
    hidden=st.tuples(st.integers(1, 20), st.integers(1, 20)),
    num_ues=st.integers(1, 5),
    num_actions=st.integers(2, 7),
    scale=st.floats(0.01, 30.0),
)
def test_trunk_passes_match_plain_formulas_bit_for_bit(
    seed, rows, obs_dim, hidden, num_ues, num_actions, scale
):
    rng = np.random.default_rng(seed)
    params = net.init_params(obs_dim, num_ues, num_actions, hidden=hidden, rng=rng, head_scale=scale)
    for name in ("b1", "b2", "b_pi", "b_v"):
        getattr(params, name)[...] = rng.normal(scale=scale, size=getattr(params, name).shape)
    obs = rng.normal(scale=scale, size=(rows, obs_dim))
    # The learner's path: both passes run in the trunk's buffers, and the
    # trunk keeps the rows the forward pass ran on, with nothing copied.
    trunk = net.TrunkBuffers.allocate(params, rows)
    logits, values = net.forward_batch(params, obs, out=trunk)
    assert trunk.inputs is obs
    ref_logits, ref_values, ref_h1, ref_h2 = reference_forward_batch(params, obs)
    for got, want in ((logits, ref_logits), (values, ref_values), (trunk.h1, ref_h1), (trunk.h2, ref_h2)):
        assert_same_bits(got, want)

    dlogits = rng.normal(scale=scale, size=logits.shape)
    dvalues = rng.normal(scale=scale, size=values.shape)
    reference = reference_backward_trunk(params, trunk, dlogits, dvalues)
    grads = net.backward_trunk(params, trunk, dlogits, dvalues)
    assert grads is trunk.grads
    assert grads.keys() == reference.keys()
    for name, grad in grads.items():
        assert_same_bits(grad, reference[name])


@pytest.mark.parametrize("num_ues", [10, 100])
@pytest.mark.parametrize("rows", [1, 10])
def test_stacked_forward_matches_per_group_forward_bit_for_bit(rows, num_ues):
    obs_dim = 1 + num_ues + 3 * num_ues
    groups = [
        net.init_params(obs_dim, num_ues, 3, rng=np.random.default_rng(seed)) for seed in (1, 2)
    ]
    for params in groups:
        params.b1[...] = np.random.default_rng(3).normal(size=params.b1.shape)
    obs = np.random.default_rng(4).uniform(0, 1, size=(2 * rows, obs_dim))
    stack = net.stack_params(groups)
    logits = net.forward(stack, obs)
    want = np.concatenate(
        [net.forward(params, obs[g * rows : (g + 1) * rows]) for g, params in enumerate(groups)]
    )
    assert_same_bits(logits, want)
    for g, params in enumerate(groups):
        for name in net.TENSOR_NAMES:
            assert_same_bits(getattr(stack.group(g), name), getattr(params, name))
    with pytest.raises(ValueError):
        net.forward_batch(stack, obs.reshape(2, rows, obs_dim))
