import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgram import autodiff as ad
from capgram import equivariant as eq
from capgram import routing as rt
from capgram.autodiff import Tensor
from tests.test_autodiff import naive_correlate2d


# ---------------------------------------------------------------------------
# independent oracles


def naive_equal_route(S):
    """Scalar-loop uniform routing: f_j(g) = squash(sum_i S_ij(g) / n_out)."""
    I, J, D, H, W = S.shape
    out = np.zeros((J, D, H, W))
    for j in range(J):
        for y in range(H):
            for x in range(W):
                v = np.zeros(D)
                for d in range(D):
                    acc = 0.0
                    for i in range(I):
                        acc += S[i, j, d, y, x] * (1.0 / J)
                    v[d] = acc
                n = np.sqrt((v * v).sum() + 1e-16)
                out[j, :, y, x] = v * (n / (1.0 + n * n))
    return out


def composed_route(S, iters):
    """Routing as a graph of ``ad`` primitives: a node per softmax, weighted
    sum, squash and agreement update of every round."""
    b = Tensor(np.zeros(S.shape[:-3] + S.shape[-2:], dtype=S.dtype))
    coefficients = []
    for t in range(iters):
        c = ad.softmax(b, axis=-3)
        coefficients.append(c)
        c_e = ad.reshape(c, c.shape[:-2] + (1,) + c.shape[-2:])
        out = rt.squash(ad.reduce_sum(ad.mul(c_e, S), axis=-5), axis=-3)
        if t + 1 < iters:
            f_e = ad.reshape(out, out.shape[:-4] + (1,) + out.shape[-4:])
            b = ad.add(b, ad.reduce_sum(ad.mul(S, f_e), axis=-3))
    return out, coefficients


def naive_predict(caps, filters, stride=1, padding=0):
    """Per-(i, j) loop over correlate2d's quadruple-loop oracle."""
    I = caps.shape[0]
    J, Do, Di, kH, kW = filters.shape
    outs = []
    for i in range(I):
        per_j = [naive_correlate2d(caps[i], filters[j], stride, padding) for j in range(J)]
        outs.append(np.stack(per_j))
    return np.stack(outs)


# ---------------------------------------------------------------------------
# squash


def test_squash_zero_is_zero():
    out = rt.squash(Tensor(np.zeros(4)), axis=0)
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_squash_34_vector():
    out = rt.squash(Tensor(np.array([3.0, 4.0])), axis=0)
    np.testing.assert_allclose(out.data, [3.0 * 5 / 26, 4.0 * 5 / 26], atol=1e-9)
    assert np.linalg.norm(out.data) == pytest.approx(25.0 / 26.0, abs=1e-9)


def test_squash_unit_vector_halves():
    v = np.array([1.0, 0.0, 0.0])
    out = rt.squash(Tensor(v), axis=0)
    np.testing.assert_allclose(out.data, v / 2.0, atol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_squash_norm_law_property(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(scale=3.0, size=6)
    out = rt.squash(Tensor(v), axis=0).data
    n = np.linalg.norm(v)
    assert np.linalg.norm(out) == pytest.approx(n * n / (1 + n * n), abs=1e-9)
    if n > 1e-6:
        cos = out @ v / (np.linalg.norm(out) * n)
        assert cos == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# predict


def test_predict_zero_field_zero_predictions():
    rng = np.random.default_rng(0)
    caps = Tensor(np.zeros((1, 2, 3, 5, 5)))
    filters = Tensor(rng.normal(size=(4, 2, 3, 3, 3)))
    S = rt.predict(caps, filters, 1)
    assert np.all(S.data == 0.0)


def test_predict_identity_kernels_pass_through():
    rng = np.random.default_rng(1)
    caps = Tensor(rng.normal(size=(1, 1, 3, 4, 4)))
    k = np.zeros((1, 3, 3, 1, 1))
    for d in range(3):
        k[0, d, d, 0, 0] = 1.0
    S = rt.predict(caps, Tensor(k), 1)
    np.testing.assert_array_equal(S.data[0, 0, 0], caps.data[0, 0])


def test_predict_vs_loop_oracle():
    rng = np.random.default_rng(2)
    caps = rng.normal(size=(1, 3, 2, 5, 5))
    filters = rng.normal(size=(2, 4, 2, 3, 3))
    S = rt.predict(Tensor(caps), Tensor(filters), 2)
    np.testing.assert_array_equal(S.data[0], naive_predict(caps[0], filters, 2))


def test_predict_shares_bank_across_input_types():
    rng = np.random.default_rng(3)
    caps = rng.normal(size=(1, 3, 2, 4, 4))
    filters = rng.normal(size=(2, 2, 2, 1, 1))
    S = rt.predict(Tensor(caps), Tensor(filters), 1)
    for i in range(3):
        single = rt.predict(Tensor(caps[:, i : i + 1]), Tensor(filters), 1)
        np.testing.assert_array_equal(S.data[0, i], single.data[0, 0])


def test_predict_dim_mismatch_error():
    caps = Tensor(np.zeros((1, 2, 3, 4, 4)))
    with pytest.raises(ValueError, match="does not match filter input dim"):
        rt.predict(caps, Tensor(np.zeros((2, 2, 5, 1, 1))), 1)


# ---------------------------------------------------------------------------
# dynamic_route / equal_route_traced


def _random_stack(rng, I=2, J=3, D=2, H=2, W=2, scale=1.0):
    return Tensor(rng.normal(scale=scale, size=(1, I, J, D, H, W)))


def test_one_iteration_equals_equal_route_bitwise():
    rng = np.random.default_rng(4)
    S = _random_stack(rng)
    routed, _ = rt.dynamic_route(S, 1)
    equal, _ = rt.equal_route_traced(S)
    np.testing.assert_array_equal(routed.data, equal.data)


def test_hand_trace_agreement_update():
    # two shallow capsules both predicting deep type 0 with scalar value 1:
    # iteration 1 is uniform, f_0 = squash(1) = 0.5, so the agreement adds
    # 0.5 onto the type-0 logits and iteration 2 softmaxes (0.5, 0).
    S = np.zeros((1, 2, 2, 1, 1, 1))
    S[0, :, 0, 0, 0, 0] = 1.0
    _, trace = rt.dynamic_route(Tensor(S), 2)
    c2 = trace.coefficients[1].data[0]
    np.testing.assert_allclose(c2[:, 0, 0, 0], [0.62246, 0.62246], atol=1e-4)
    np.testing.assert_allclose(c2[:, 1, 0, 0], [0.37754, 0.37754], atol=1e-4)
    # iteration 1 softmaxes all-zero logits: exactly 1/n_out
    np.testing.assert_array_equal(trace.coefficients[0].data, np.full((1, 2, 2, 1, 1), 0.5))


def test_coefficients_form_simplex_every_iteration():
    rng = np.random.default_rng(5)
    S = _random_stack(rng, I=3, J=4, scale=2.0)
    _, trace = rt.dynamic_route(S, 4)
    assert len(trace.coefficients) == 4
    for c in trace.coefficients:
        assert np.all(c.data >= 0)
        np.testing.assert_allclose(c.data.sum(axis=-3), 1.0, atol=1e-9)


def test_zero_iterations_rejected():
    rng = np.random.default_rng(6)
    with pytest.raises(ValueError, match="at least one iteration"):
        rt.dynamic_route(_random_stack(rng), 0)


def test_equal_route_single_input_type():
    rng = np.random.default_rng(7)
    S = _random_stack(rng, I=1, J=3)
    out = rt.equal_route_traced(S)[0].data
    want = rt.squash(ad.mul(Tensor(S.data[:, 0]), 1.0 / 3.0), axis=-3).data
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_equal_route_vs_loop_oracle():
    rng = np.random.default_rng(8)
    S = _random_stack(rng, I=3, J=2, D=3, H=2, W=2)
    out = rt.equal_route_traced(S)[0].data
    np.testing.assert_allclose(out[0], naive_equal_route(S.data[0]), atol=1e-12)


def test_batched_routing_matches_per_sample():
    rng = np.random.default_rng(9)
    S = rng.normal(size=(3, 2, 3, 2, 2, 2))
    routed, _ = rt.dynamic_route(Tensor(S), 3)
    for n in range(3):
        single, _ = rt.dynamic_route(Tensor(S[n][None]), 3)
        np.testing.assert_array_equal(routed.data[n], single.data[0])


def test_capsule_norms_below_one_after_routing():
    rng = np.random.default_rng(10)
    S = _random_stack(rng, scale=10.0)
    routed, _ = rt.dynamic_route(S, 3)
    norms = np.linalg.norm(routed.data, axis=-3)
    assert np.all(norms < 1.0)


# ---------------------------------------------------------------------------
# the routing node against the composed graph

ROUTE_SHAPES = {
    "l0_like": (2, 3, 4, 3, 3, 3),  # [B, n_in, n_out, dim, H, W] with spatial extent
    "l1_like": (3, 4, 2, 5, 1, 1),
    "one_input_type": (2, 1, 3, 4, 2, 2),
}
# loss weights on (capsules, final-coefficient entropy)
ADJOINTS = {"capsules": (1.0, 0.0), "entropy": (0.0, 1.0), "both": (1.0, 1.0)}


def _route_loss(caps, final_coefficients, proj, weights):
    w_caps, w_ent = weights
    trace = rt.RoutingTrace(coefficients=[final_coefficients])
    terms = []
    if w_caps:
        terms.append(ad.mul(ad.reduce_sum(ad.mul(caps, Tensor(proj))), w_caps))
    if w_ent:
        terms.append(ad.mul(rt.routing_entropy(trace), w_ent))
    return terms[0] if len(terms) == 1 else ad.add(*terms)


@pytest.mark.parametrize("adjoint", sorted(ADJOINTS))
@pytest.mark.parametrize("shape", sorted(ROUTE_SHAPES))
@pytest.mark.parametrize("iters", [1, 3])
def test_route_node_matches_composed_graph(shape, adjoint, iters):
    rng = np.random.default_rng(17)
    S0 = rng.normal(scale=2.0, size=ROUTE_SHAPES[shape])
    proj = rng.normal(size=S0.shape[:1] + S0.shape[2:])
    S = Tensor(S0.copy(), requires_grad=True)
    caps, trace = rt.dynamic_route(S, iters)
    _route_loss(caps, trace.coefficients[-1], proj, ADJOINTS[adjoint]).backward()
    S_ref = Tensor(S0.copy(), requires_grad=True)
    caps_ref, coefficients_ref = composed_route(S_ref, iters)
    _route_loss(caps_ref, coefficients_ref[-1], proj, ADJOINTS[adjoint]).backward()

    np.testing.assert_allclose(caps.data, caps_ref.data, rtol=1e-10, atol=1e-14)
    assert len(trace.coefficients) == iters
    for c, c_ref in zip(trace.coefficients, coefficients_ref):
        np.testing.assert_allclose(c.data, c_ref.data, rtol=1e-10, atol=1e-14)
    if S_ref.grad is None:  # the entropy of equal routing does not depend on S
        assert iters == 1 and adjoint == "entropy"
        np.testing.assert_array_equal(S.grad, 0.0)
    else:
        np.testing.assert_allclose(S.grad, S_ref.grad, rtol=1e-10, atol=1e-14)


def test_route_is_one_node_with_one_backward_per_sweep():
    rng = np.random.default_rng(18)
    S = Tensor(rng.normal(size=(2, 3, 4, 3, 2, 2)), requires_grad=True)
    caps, trace = rt.dynamic_route(S, 3)
    (node,) = caps._parents
    assert trace.coefficients[-1]._parents == (node,)
    assert node._parents == (S,)
    # earlier rounds' coefficients are constants for the graph
    assert all(c._backward is None for c in trace.coefficients[:-1])
    calls = []
    inner = node._backward
    node._backward = lambda g: calls.append(g) or inner(g)
    loss = ad.add(ad.reduce_sum(caps), rt.routing_entropy(trace))
    loss.backward()
    assert len(calls) == 1


def test_route_node_grad_check_capsules_plus_entropy():
    rng = np.random.default_rng(19)
    shape = (2, 2, 3, 2, 2, 1)
    proj = rng.normal(size=(2, 3, 2, 2, 1))

    def f(S_flat):
        routed, trace = rt.dynamic_route(ad.reshape(S_flat, shape), 3)
        return _route_loss(routed, trace.coefficients[-1], proj, ADJOINTS["both"])

    assert ad.grad_check(f, Tensor(rng.normal(size=int(np.prod(shape)))), step=1e-5) < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_route_no_grad_forward_is_bitwise_and_keeps_no_state(dtype):
    rng = np.random.default_rng(20)
    S0 = rng.normal(size=(3, 4, 3, 2, 3, 2)).astype(dtype)
    caps, trace = rt.dynamic_route(Tensor(S0, requires_grad=True), 3)
    with ad.no_grad():
        caps_ng, trace_ng = rt.dynamic_route(Tensor(S0, requires_grad=True), 3)
    np.testing.assert_array_equal(caps_ng.data, caps.data)
    for c_ng, c in zip(trace_ng.coefficients, trace.coefficients):
        np.testing.assert_array_equal(c_ng.data, c.data)
    assert [trace_ng.entropy_mean(t) for t in range(3)] == [trace.entropy_mean(t) for t in range(3)]
    for t in [caps_ng] + trace_ng.coefficients:
        assert t._backward is None and t._parents == ()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_route_non_finite_predictions_raise(bad):
    rng = np.random.default_rng(21)
    S0 = rng.normal(size=(2, 3, 2, 2, 2, 2))
    S0[1, 2, 0, 1, 0, 1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
        ValueError, match="routing softmax requires finite inputs"
    ):
        rt.dynamic_route(Tensor(S0), 3)


# ---------------------------------------------------------------------------
# routing entropy


def _trace_with_coefficients(c):
    """A one-sample trace whose final coefficients are ``c`` [n_in, n_out, H, W]."""
    t = rt.RoutingTrace()
    t.coefficients.append(Tensor(c[None]))
    return t


def test_entropy_one_hot_is_zero():
    c = np.zeros((2, 4, 1, 1))
    c[:, 1] = 1.0
    h = rt.routing_entropy(_trace_with_coefficients(c)).item()
    assert abs(h) <= 1e-10


def test_entropy_uniform_is_log_n():
    c = np.full((3, 4, 2, 2), 0.25)
    h = rt.routing_entropy(_trace_with_coefficients(c)).item()
    assert h == pytest.approx(np.log(4.0), abs=1e-9)


def test_equal_route_trace_entropy_exact():
    rng = np.random.default_rng(11)
    for J in (2, 3, 5, 8):
        S = _random_stack(rng, J=J)
        _, trace = rt.equal_route_traced(S)
        h = rt.routing_entropy(trace).item()
        assert h == pytest.approx(np.log(J), abs=1e-9)


def test_entropy_bounds_random_traces():
    rng = np.random.default_rng(12)
    for _ in range(50):
        S = _random_stack(rng, J=4, scale=3.0)
        _, trace = rt.dynamic_route(S, 3)
        h = rt.routing_entropy(trace).item()
        assert -1e-10 <= h <= np.log(4.0) + 1e-9


def test_entropy_non_increasing_across_iterations():
    # agreement concentrates weight; statistical property over seeded trials
    rng = np.random.default_rng(2024)
    trials = 1000
    S = rng.normal(size=(trials, 2, 3, 2, 2, 2))
    _, trace = rt.dynamic_route(Tensor(S), 3)
    per_trial = []
    for c in trace.coefficients:
        h = -(c.data * np.log(c.data + rt.ENTROPY_LOG_GUARD)).sum(axis=-3)
        per_trial.append(h.mean(axis=(1, 2, 3)))
    per_trial = np.stack(per_trial)  # [iters, trials]
    monotone = np.all(np.diff(per_trial, axis=0) <= 1e-12, axis=0)
    assert monotone.mean() >= 0.95


# ---------------------------------------------------------------------------
# parse extraction


def test_extract_parse_picks_argmax():
    c = np.array([0.1, 0.7, 0.2]).reshape(1, 3, 1, 1)
    forest = rt.extract_parse(_trace_with_coefficients(c), 0)
    assert forest.parent[0, 0, 0] == 1
    assert forest.strength[0, 0, 0] == pytest.approx(0.7)


def test_extract_parse_tie_breaks_low():
    c = np.full((2, 4, 1, 1), 0.25)
    forest = rt.extract_parse(_trace_with_coefficients(c), 0)
    assert np.all(forest.parent == 0)
    assert np.all(forest.strength == 0.25)


def test_extract_parse_one_hot_pattern():
    rng = np.random.default_rng(13)
    target = rng.integers(0, 3, size=(4, 2, 2))
    c = np.zeros((4, 3, 2, 2))
    for i in range(4):
        for y in range(2):
            for x in range(2):
                c[i, target[i, y, x], y, x] = 1.0
    forest = rt.extract_parse(_trace_with_coefficients(c), 0)
    np.testing.assert_array_equal(forest.parent, target)


def test_parse_strength_at_least_uniform():
    rng = np.random.default_rng(14)
    S = _random_stack(rng, J=4)
    _, trace = rt.dynamic_route(S, 3)
    forest = rt.extract_parse(trace, 0)
    assert np.all(forest.strength >= 1.0 / 4.0 - 1e-12)


def test_parse_to_dot_empty():
    forest = rt.ParseForest(
        parent=np.zeros((0, 1, 1), dtype=int), strength=np.zeros((0, 1, 1)), n_out=2
    )
    dot = rt.parse_to_dot(forest)
    assert dot.startswith("digraph parse_forest {")
    assert "->" not in dot


def test_parse_to_dot_sorted_edges():
    parent = np.array([[[1]], [[0]]])
    strength = np.array([[[0.9]], [[0.8]]])
    dot = rt.parse_to_dot(rt.ParseForest(parent, strength, 2))
    lines = [l for l in dot.splitlines() if "->" in l]
    assert len(lines) == 2
    assert '"in0@(0,0)" -> "out1@(0,0)" [label="0.900000"]' in lines[0]
    assert '"in1@(0,0)" -> "out0@(0,0)" [label="0.800000"]' in lines[1]


def test_parse_to_dot_labels():
    parent = np.array([[[0]]])
    strength = np.array([[[1.0]]])
    dot = rt.parse_to_dot(
        rt.ParseForest(parent, strength, 1), in_labels=["eye"], out_labels=["face"]
    )
    assert '"eye@(0,0)" -> "face@(0,0)"' in dot


# ---------------------------------------------------------------------------
# gradients and equivariance through the routing block


def test_routing_block_grad_check():
    rng = np.random.default_rng(15)
    proj = rng.normal(size=(1, 3, 2, 2, 2))

    def f(S_flat):
        S = ad.reshape(S_flat, (1, 2, 3, 2, 2, 2))
        routed, trace = rt.dynamic_route(S, 3)
        score = ad.reduce_sum(ad.mul(routed, Tensor(proj)))
        return ad.add(score, rt.routing_entropy(trace))

    point = Tensor(rng.normal(size=2 * 3 * 2 * 2 * 2))
    assert ad.grad_check(f, point, step=1e-5) < 1e-4


def test_predict_route_translation_equivariance():
    rng = np.random.default_rng(16)
    caps = rng.normal(size=(1, 2, 2, 9, 9))
    filters = Tensor(rng.normal(size=(3, 2, 2, 3, 3)))

    def pipeline(arr):
        with ad.no_grad():
            S = rt.predict(Tensor(arr), filters, 1)
            routed, _ = rt.dynamic_route(S, 3)
        return routed.data

    dy, dx = 2, 1
    base = pipeline(caps)
    shifted = pipeline(eq.translate(caps, dy, dx))
    target = eq.translate(base, dy, dx)
    Ho, Wo = base.shape[-2:]
    region = np.s_[..., max(dy, 0) : Ho + min(dy, 0), max(dx, 0) : Wo + min(dx, 0)]
    dev = np.abs(shifted[region] - target[region]).max()
    assert dev < 1e-8
