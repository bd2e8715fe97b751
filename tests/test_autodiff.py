import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgram import autodiff as ad
from capgram.autodiff import Tensor


# ---------------------------------------------------------------------------
# independent oracles


def naive_correlate2d(x, w, stride=1, padding=0):
    """Quadruple-loop cross-correlation with scalar accumulation.

    Accumulates in (channel, kernel-row, kernel-col) order per output cell.
    """
    C, H, W = x.shape
    O, _, kH, kW = w.shape
    Ho = (H + 2 * padding - kH) // stride + 1
    Wo = (W + 2 * padding - kW) // stride + 1
    out = np.zeros((O, Ho, Wo))
    for o in range(O):
        for y in range(Ho):
            for xx in range(Wo):
                acc = 0.0
                for c in range(C):
                    for u in range(kH):
                        for v in range(kW):
                            iy = y * stride + u - padding
                            ix = xx * stride + v - padding
                            if 0 <= iy < H and 0 <= ix < W:
                                acc += float(x[c, iy, ix]) * float(w[o, c, u, v])
                out[o, y, xx] = acc
    return out


def naive_max_pool(x, window, stride):
    """Loop window-max then stride subsampling over the trailing two axes."""
    *lead, H, W = x.shape
    Ho = (H - window) // stride + 1
    Wo = (W - window) // stride + 1
    xf = x.reshape(-1, H, W)
    out = np.zeros((xf.shape[0], Ho, Wo))
    for n in range(xf.shape[0]):
        for y in range(Ho):
            for xx in range(Wo):
                out[n, y, xx] = xf[
                    n, y * stride : y * stride + window, xx * stride : xx * stride + window
                ].max()
    return out.reshape(tuple(lead) + (Ho, Wo))


# ---------------------------------------------------------------------------
# correlate2d


def test_correlate_zero_input_gives_zero():
    rng = np.random.default_rng(0)
    x = Tensor(np.zeros((1, 2, 5, 5)))
    w = Tensor(rng.normal(size=(3, 2, 3, 3)))
    out = ad.correlate2d(x, w)
    assert np.all(out.data == 0.0)


def test_correlate_ones_sums_kernel_support():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = ad.correlate2d(x, w)
    assert out.data.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_correlate_ramp_vs_oracle():
    x = np.arange(16, dtype=float).reshape(1, 4, 4)
    w = np.zeros((1, 1, 2, 2))
    w[0, 0, 0, 0] = 1.0
    got = ad.correlate2d(Tensor(x[None]), Tensor(w)).data[0]
    want = naive_correlate2d(x, w)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_correlate_matches_oracle_exactly(stride, padding):
    rng = np.random.default_rng(7)
    for _ in range(20):
        C, O = rng.integers(1, 4, size=2)
        H, W = rng.integers(1, 9, size=2)
        kH = rng.integers(1, H + 2 * padding + 1)
        kW = rng.integers(1, W + 2 * padding + 1)
        x = rng.normal(size=(C, H, W))
        w = rng.normal(size=(O, C, kH, kW))
        got = ad.correlate2d(Tensor(x[None]), Tensor(w), stride, padding).data[0]
        want = naive_correlate2d(x, w, stride, padding)
        np.testing.assert_array_equal(got, want)


def test_correlate_gemm_path_agrees_with_oracle():
    # Force the GEMM branch with a large workload; reassociation error only.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 8, 20, 20))
    w = rng.normal(size=(16, 8, 3, 3))
    work = 4 * 16 * 18 * 18 * 8 * 9
    assert work > ad.GEMM_WORK_THRESHOLD
    got = ad.correlate2d(Tensor(x), Tensor(w)).data
    for n in (0, 3):
        want = naive_correlate2d(x[n], w)
        np.testing.assert_allclose(got[n], want, rtol=1e-10, atol=1e-12)


def test_correlate_batched_equals_per_sample():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 2, 6, 6))
    w = rng.normal(size=(4, 2, 3, 3))
    got = ad.correlate2d(Tensor(x), Tensor(w), 2, 1).data
    for n in range(3):
        single = ad.correlate2d(Tensor(x[n][None]), Tensor(w), 2, 1).data[0]
        np.testing.assert_array_equal(got[n], single)


def test_correlate_shape_errors():
    x = Tensor(np.zeros((1, 2, 4, 4)))
    with pytest.raises(ValueError, match="channel mismatch"):
        ad.correlate2d(x, Tensor(np.zeros((1, 3, 2, 2))))
    with pytest.raises(ValueError, match="exceeds padded input"):
        ad.correlate2d(x, Tensor(np.zeros((1, 2, 5, 5))))
    with pytest.raises(ValueError, match="kernels must be"):
        ad.correlate2d(x, Tensor(np.zeros((2, 2, 2))))
    with pytest.raises(ValueError, match=r"input must be \[N, C, H, W\]"):
        ad.correlate2d(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2, 2, 2))))


def assert_same_bytes(got, want):
    np.testing.assert_array_equal(got, want, strict=True)
    assert got.tobytes() == want.tobytes()


def k_step_loop_correlate2d(x, w, stride, padding):
    """The loop path as a K-step loop: one im2col patch row of products
    added per step, onto a +0 start, in the inputs' result dtype."""
    N, _, H, W = x.shape
    O, C, kH, kW = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = (H + 2 * padding - kH) // stride + 1
    Wo = (W + 2 * padding - kW) // stride + 1
    cols = ad._im2col(xp, kH, kW, stride, Ho, Wo)
    w2 = w.reshape(O, -1)
    out = np.zeros((N, O, Ho * Wo), dtype=np.result_type(x, w))
    for k in range(w2.shape[1]):
        out += cols[:, None, k, :] * w2[None, :, k, None]
    return out.reshape(N, O, Ho, Wo)


# (input shape, kernel shape, stride, padding); each at or below
# GEMM_WORK_THRESHOLD, so on the loop path
LOOP_CASES = {
    "cnn_head": ((32, 64, 4, 4), (2, 64, 4, 4), 1, 0),
    "predict1_batch1": ((8, 8, 6, 6), (32, 8, 6, 6), 1, 0),
    "stem0_batch1_pad1": ((1, 1, 32, 32), (16, 1, 3, 3), 1, 1),
    "one_cell_k300": ((1, 12, 5, 5), (1, 12, 5, 5), 1, 0),
    "one_cell_k1": ((1, 1, 1, 1), (1, 1, 1, 1), 1, 0),
}


def _loop_case(name, dtype, seed=0):
    x_shape, w_shape, stride, padding = LOOP_CASES[name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=w_shape).astype(dtype)
    out_cells = x_shape[0] * w_shape[0] * ((x_shape[2] + 2 * padding - w_shape[2]) // stride + 1) * (
        (x_shape[3] + 2 * padding - w_shape[3]) // stride + 1
    )
    assert out_cells * int(np.prod(w_shape[1:])) <= ad.GEMM_WORK_THRESHOLD
    return x, w, stride, padding


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(LOOP_CASES))
def test_loop_path_bit_identical_to_k_step_loop(name, dtype):
    x, w, stride, padding = _loop_case(name, dtype)
    got = ad.correlate2d(Tensor(x), Tensor(w), stride, padding).data
    assert_same_bytes(got, k_step_loop_correlate2d(x, w, stride, padding))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_loop_path_all_negative_zero_products_sum_to_positive_zero(dtype):
    # every product is -0.0: a sum that started from its first product
    # would keep -0.0, the loop's +0 start gives +0.0
    for name in ("one_cell_k300", "one_cell_k1", "cnn_head"):
        x, w, stride, padding = _loop_case(name, dtype)
        x = np.full_like(x, -0.0)
        w = np.abs(w)
        got = ad.correlate2d(Tensor(x), Tensor(w), stride, padding).data
        want = k_step_loop_correlate2d(x, w, stride, padding)
        assert_same_bytes(got, want)
        assert not np.signbit(got).any()


def test_loop_path_random_shapes_bit_identical_to_k_step_loop():
    # finite inputs over random shapes, strides and paddings, many with a
    # single output cell (N = O = P = 1)
    rng = np.random.default_rng(21)
    for trial in range(300):
        dtype = (np.float32, np.float64)[trial % 2]
        N, C, O = (int(v) for v in rng.integers(1, 4, size=3))
        kH, kW = (int(v) for v in rng.integers(1, 6, size=2))
        stride, padding = int(rng.integers(1, 3)), int(rng.integers(0, 2))
        if trial % 3 == 0:
            N, O, stride, padding = 1, 1, 1, 0
            H, W = kH, kW
        else:
            H = int(rng.integers(max(1, kH - 2 * padding), 9))
            W = int(rng.integers(max(1, kW - 2 * padding), 9))
        x = (rng.normal(size=(N, C, H, W)) * 10.0 ** rng.integers(-3, 4, size=(N, C, H, W))).astype(dtype)
        w = rng.normal(size=(O, C, kH, kW)).astype(dtype)
        got = ad.correlate2d(Tensor(x), Tensor(w), stride, padding).data
        assert_same_bytes(got, k_step_loop_correlate2d(x, w, stride, padding))


def test_loop_path_special_values_keep_nan_positions_and_other_bytes():
    # inf - inf inside the sum may give a NaN of either sign; which cells
    # are NaN, and every other cell's bytes, match the K-step loop
    rng = np.random.default_rng(22)
    special = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1.0, -1.0, 2.0])
    with np.errstate(all="ignore"):
        for trial in range(200):
            dtype = (np.float32, np.float64)[trial % 2]
            x = rng.choice(special, size=(2, 3, 5, 5)).astype(dtype)
            w = rng.choice(special, size=(2, 3, 3, 3)).astype(dtype)
            got = ad.correlate2d(Tensor(x), Tensor(w), 1, 1).data
            want = k_step_loop_correlate2d(x, w, 1, 1)
            nan = np.isnan(want)
            np.testing.assert_array_equal(np.isnan(got), nan)
            assert got[~nan].tobytes() == want[~nan].tobytes()


def test_every_correlate2d_branch_returns_the_result_dtype():
    # f32 input with f64 kernels computes and returns f64 on the loop path,
    # as on both GEMM branches, bit-identical to the all-f64 call
    rng = np.random.default_rng(23)
    x = rng.normal(size=(8, 8, 6, 6)).astype(np.float32)
    shapes = {"loop": (32, 8, 6, 6), "one_by_one_gemm": (512, 8, 6, 6), "gemm": (512, 8, 3, 3)}
    for name, w_shape in shapes.items():
        w = rng.normal(size=w_shape)
        xt = Tensor(x, requires_grad=True)
        out = ad.correlate2d(xt, Tensor(w, requires_grad=True), 2)
        work = out.data.size * int(np.prod(w_shape[1:]))
        assert (work <= ad.GEMM_WORK_THRESHOLD) == (name == "loop")
        assert out.dtype == np.float64, name
        wide = ad.correlate2d(Tensor(x.astype(np.float64)), Tensor(w), 2).data
        assert_same_bytes(out.data, wide)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_on_zero_logits():
    out = ad.softmax(Tensor(np.zeros(4)), axis=0)
    np.testing.assert_array_equal(out.data, np.full(4, 0.25))


def test_softmax_two_logits_hand_value():
    out = ad.softmax(Tensor(np.array([0.5, 0.0])), axis=0)
    np.testing.assert_allclose(out.data, [0.62246, 0.37754], atol=1e-4)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 6))
    a = ad.softmax(Tensor(x), axis=1).data
    b = ad.softmax(Tensor(x + 17.25), axis=1).data
    np.testing.assert_allclose(a, b, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_simplex_property(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(4, 5))
    out = ad.softmax(Tensor(x), axis=1).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_rejects_non_finite():
    x = np.zeros((2, 3))
    x[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        ad.softmax(Tensor(x), axis=1)


# ---------------------------------------------------------------------------
# l2_norm


def test_l2_norm_345_triangle():
    assert ad.l2_norm(Tensor(np.array([3.0, 4.0])), axis=0, epsilon=0.0).item() == 5.0
    got = ad.l2_norm(Tensor(np.array([3.0, 4.0])), axis=0).item()
    assert abs(got - 5.0) <= 1e-8


def test_l2_norm_zero_vector_is_epsilon():
    got = ad.l2_norm(Tensor(np.zeros(5)), axis=0, epsilon=1e-8).item()
    assert got == pytest.approx(1e-8, abs=1e-20)


def test_l2_norm_vs_scalar_loop_oracle():
    rng = np.random.default_rng(9)
    v = rng.normal(size=16)
    acc = 0.0
    for x in v:
        acc += float(x) * float(x)
    want = np.sqrt(acc)
    got = ad.l2_norm(Tensor(v), axis=0, epsilon=0.0).item()
    assert abs(got - want) <= 1e-12


def test_l2_norm_keepdims_shape():
    x = Tensor(np.ones((2, 3, 4)))
    assert ad.l2_norm(x, axis=1).shape == (2, 4)
    assert ad.l2_norm(x, axis=1, keepdims=True).shape == (2, 1, 4)


# ---------------------------------------------------------------------------
# elementwise suite


def test_relu_values():
    out = ad.relu(Tensor(np.array([-1.0, 2.0, 0.0])))
    np.testing.assert_array_equal(out.data, [0.0, 2.0, 0.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_bit_identical_to_where_formula(dtype):
    # Pins relu's forward to np.where(x > 0, x, 0.0) bit for bit, signed
    # zeros and NaNs included; lengths 1..33 reach both the vector body and
    # the scalar tail of numpy's loops.
    info = np.finfo(dtype)
    special = np.array(
        [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, info.smallest_subnormal,
         -info.smallest_subnormal, info.tiny / 2, -info.tiny / 2, 1.5, -1.5],
        dtype=dtype,
    )
    rng = np.random.default_rng(5)
    arrays = [
        np.roll(np.resize(special, n), k)
        for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33)
        for k in range(special.size)
    ]
    arrays.append(rng.normal(size=(4, 3, 17, 19)).astype(dtype))
    for x in arrays:
        want = np.where(x > 0, x, 0.0).astype(dtype)
        got = ad.relu(Tensor(x)).data
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes(), x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scalar_first", [False, True], ids=["tensor_op_scalar", "scalar_op_tensor"])
@pytest.mark.parametrize("name", ["mul", "add"])
def test_python_scalar_operand_bit_identical_to_python_float(name, scalar_first, dtype):
    # A Python scalar becomes a 0-d constant of the tensor's dtype, so under
    # NEP 50 mul and add give the bits numpy gives for the bare float:
    # x * s and x + s forward, g * s and g backward, in x's dtype.
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.25, 0.1, 3e38]
    x = np.array(special + list(np.random.default_rng(6).normal(size=23)), dtype=dtype)
    g = np.roll(x, 3)
    op, np_op = {"mul": (ad.mul, np.multiply), "add": (ad.add, np.add)}[name]
    for s in (2.0, -1.0, 0.5, 0.1, 0.2, -0.0, 0.0, np.inf, -np.inf, 1e-12, 1e300):
        t = Tensor(x, requires_grad=True)
        with np.errstate(all="ignore"):
            out = op(s, t) if scalar_first else op(t, s)
            want = np_op(s, x) if scalar_first else np_op(x, s)
            got_grad = out._backward(g)[1 if scalar_first else 0]
            want_grad = g * s if name == "mul" else g
        assert out.data.dtype == dtype and got_grad.dtype == dtype
        assert out.data.tobytes() == want.tobytes(), s
        assert got_grad.tobytes() == want_grad.tobytes(), s


def test_reduce_mean_value():
    assert ad.reduce_mean(Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).item() == 2.5


def test_sigmoid_at_zero():
    assert ad.sigmoid(Tensor(np.array(0.0))).item() == 0.5


def test_log_rejects_non_positive_with_index():
    x = np.ones((2, 2))
    x[1, 0] = -3.0
    with pytest.raises(ValueError, match=r"\(1, 0\)"):
        ad.log(Tensor(x))


def test_max_pool_window_basic():
    out = ad.max_pool_window(Tensor(np.array([[1.0, 2.0], [3.0, 4.0]])), 2, 2)
    assert out.item() == 4.0


def test_max_pool_constant_field():
    out = ad.max_pool_window(Tensor(np.full((3, 6, 6), 2.5)), 2, 2)
    np.testing.assert_array_equal(out.data, np.full((3, 3, 3), 2.5))


def test_max_pool_vs_oracle():
    rng = np.random.default_rng(13)
    for window, stride in [(2, 2), (2, 1), (3, 2), (3, 3)]:
        x = rng.normal(size=(2, 7, 8))
        got = ad.max_pool_window(Tensor(x), window, stride).data
        np.testing.assert_array_equal(got, naive_max_pool(x, window, stride))


def naive_max_pool_grad(x, g, window, stride):
    """Loop adjoint: each output's adjoint, in row-major output order, added
    at its window's first row-major maximum."""
    H, W = x.shape[-2:]
    xf = x.reshape(-1, H, W)
    gf = g.reshape((xf.shape[0],) + g.shape[-2:])
    gx = np.zeros_like(xf)
    for n in range(xf.shape[0]):
        for y in range(gf.shape[1]):
            for xx in range(gf.shape[2]):
                win = xf[n, y * stride : y * stride + window, xx * stride : xx * stride + window]
                u, v = divmod(int(win.argmax()), window)
                gx[n, y * stride + u, xx * stride + v] += gf[n, y, xx]
    return gx.reshape(x.shape)


def _max_pool_grad(x, g, window, stride):
    xt = Tensor(x, requires_grad=True)
    ad.reduce_sum(ad.mul(ad.max_pool_window(xt, window, stride), Tensor(g))).backward()
    return xt.grad


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window", [2, 3])
def test_max_pool_grad_placement_and_ties_exact(window, dtype):
    # stride = window: every input cell is in at most one window, and small
    # integers tie within most windows
    rng = np.random.default_rng(14)
    x = rng.integers(0, 3, size=(2, 3, 7, 8)).astype(dtype)
    g = rng.normal(size=(2, 3, 7 // window, 8 // window)).astype(dtype)
    got = _max_pool_grad(x, g, window, window)
    assert got.dtype == dtype
    np.testing.assert_array_equal(got, naive_max_pool_grad(x, g, window, window))


@pytest.mark.parametrize("window, stride", [(2, 1), (3, 2)])
def test_max_pool_grad_placement_overlapping_windows(window, stride):
    rng = np.random.default_rng(15)
    x = rng.integers(0, 3, size=(2, 3, 7, 8)).astype(np.float64)
    Ho, Wo = (7 - window) // stride + 1, (8 - window) // stride + 1
    g = rng.normal(size=(2, 3, Ho, Wo))
    got = _max_pool_grad(x, g, window, stride)
    np.testing.assert_allclose(got, naive_max_pool_grad(x, g, window, stride), rtol=1e-12, atol=0)


# max-pool shapes whose windows span several PATCH_BLOCK blocks of samples,
# the last one ragged: the CNN's first pool, and overlapping windows over a
# 3-D input
BLOCKED_POOLS = {
    "pool0": ((32, 32, 28, 28), 2, 2),
    "overlapping_3d": ((2, 150, 23, 23), 2, 1),
}


def whole_batch_max_pool(x, g, window, stride):
    """Output and input gradient from the whole batch's window matrix at
    once: argmax over its rows, the adjoint put at that row, one col2im."""
    *lead, H, W = x.shape
    Ho, Wo = g.shape[-2:]
    xs = x.reshape(-1, 1, H, W)
    cols = ad._im2col(xs, window, window, stride, Ho, Wo)
    arg = cols.argmax(axis=1)[:, None]
    out = np.take_along_axis(cols, arg, axis=1)
    gcols = np.zeros_like(cols)
    np.put_along_axis(gcols, arg, g.reshape(xs.shape[0], 1, Ho * Wo), axis=1)
    gx = np.zeros_like(xs)
    ad._col2im(gcols, gx, window, window, stride, Ho, Wo)
    return out.reshape(g.shape), gx.reshape(x.shape)


def test_blocked_pools_span_several_ragged_blocks():
    for shape, window, stride in BLOCKED_POOLS.values():
        *lead, H, W = shape
        P = ((H - window) // stride + 1) * ((W - window) // stride + 1)
        block = ad.PATCH_BLOCK // (window * window * P)
        n = int(np.prod(lead))
        assert 1 <= block < n and n % block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(BLOCKED_POOLS))
def test_max_pool_blocks_bit_identical_to_whole_batch(name, dtype):
    # small integers tie within most windows; ties go to the first maximum
    shape, window, stride = BLOCKED_POOLS[name]
    rng = np.random.default_rng(16)
    x = rng.integers(0, 3, size=shape).astype(dtype)
    Ho, Wo = (shape[-2] - window) // stride + 1, (shape[-1] - window) // stride + 1
    g = rng.normal(size=shape[:-2] + (Ho, Wo)).astype(dtype)
    out = ad.max_pool_window(Tensor(x, requires_grad=True), window, stride)
    (gx,) = out._backward(g)
    want, want_gx = whole_batch_max_pool(x, g, window, stride)
    np.testing.assert_array_equal(out.data, want, strict=True)
    np.testing.assert_array_equal(gx, want_gx, strict=True)


# (input shape, window, stride): 2-, 3- and 4-D inputs; col2im adds one
# plane per window offset where the offsets are at most the outputs, else
# one window per output ("overlap_4_on_5x7": 16 offsets, 8 outputs)
SPECIAL_POOLS = {
    "2d_disjoint": ((6, 8), 2, 2),
    "3d_overlap_stride1": ((3, 7, 6), 2, 1),
    "3d_overlap_4_on_5x7": ((3, 5, 7), 4, 1),
    "3d_one_output_column": ((4, 6, 3), 3, 2),
    "4d_overlap_stride2": ((2, 3, 7, 9), 3, 2),
    "4d_whole_window": ((2, 2, 3, 3), 3, 1),
}
POOL_SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(SPECIAL_POOLS))
def test_max_pool_special_values_bit_identical_to_whole_batch(name, dtype):
    # NaN, ±inf and ±0 in inputs and adjoints: the first NaN wins a window,
    # ±0 ties keep the first zero's bits, and the adjoint's bits land there
    shape, window, stride = SPECIAL_POOLS[name]
    rng = np.random.default_rng(17)
    Ho, Wo = (shape[-2] - window) // stride + 1, (shape[-1] - window) // stride + 1
    with np.errstate(all="ignore"):
        for _ in range(25):
            x = rng.choice(POOL_SPECIALS, size=shape).astype(dtype)
            g = rng.choice(POOL_SPECIALS, size=shape[:-2] + (Ho, Wo)).astype(dtype)
            out = ad.max_pool_window(Tensor(x, requires_grad=True), window, stride)
            (gx,) = out._backward(g)
            want, want_gx = whole_batch_max_pool(x, g, window, stride)
            assert_same_bytes(out.data, want)
            assert_same_bytes(gx, want_gx)


def test_max_pool_random_shapes_bit_identical_to_whole_batch():
    rng = np.random.default_rng(18)
    with np.errstate(all="ignore"):
        for trial in range(300):
            dtype = (np.float32, np.float64)[trial % 2]
            lead = tuple(int(v) for v in rng.integers(1, 4, size=int(rng.integers(0, 3))))
            H, W = (int(v) for v in rng.integers(1, 9, size=2))
            window = int(rng.integers(1, min(H, W) + 1))
            stride = int(rng.integers(1, 4))
            Ho, Wo = (H - window) // stride + 1, (W - window) // stride + 1
            palette = POOL_SPECIALS if trial % 3 else np.arange(-2.0, 3.0)
            x = rng.choice(palette, size=lead + (H, W)).astype(dtype)
            g = rng.normal(size=lead + (Ho, Wo)).astype(dtype)
            out = ad.max_pool_window(Tensor(x, requires_grad=True), window, stride)
            (gx,) = out._backward(g)
            want, want_gx = whole_batch_max_pool(x, g, window, stride)
            assert_same_bytes(out.data, want)
            assert_same_bytes(gx, want_gx)


def test_max_pool_never_holds_whole_batch_window_temporaries():
    # The CNN's first pool at batch 32 in float32.  Blocked, the forward
    # peaks at 2.0 times its output and the backward at 1.75 times the
    # input gradient; over the whole batch at once they reach 2.5 and 2.28.
    rng = np.random.default_rng(19)
    x = Tensor(rng.normal(size=(32, 32, 28, 28)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(32, 32, 14, 14)).astype(np.float32)
    tracemalloc.start()
    try:
        out = ad.max_pool_window(x, 2, 2)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        backward_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert forward_peak < 2.25 * out.data.nbytes, forward_peak
    assert backward_peak < 2 * x.data.nbytes, backward_peak


def test_max_pool_window_too_large():
    with pytest.raises(ValueError, match="exceeds spatial extents"):
        ad.max_pool_window(Tensor(np.zeros((2, 3, 3))), 4, 1)


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.reduce_sum(x).backward()
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_sum_of_squares_gives_2x():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    ad.reduce_sum(ad.mul(x, x)).backward()
    np.testing.assert_array_equal(x.grad, 2.0 * x.data)


def test_backward_accumulates_and_resets():
    x = Tensor(np.ones(3), requires_grad=True)
    loss = ad.reduce_sum(x)
    loss.backward()
    loss2 = ad.reduce_sum(x)
    loss2.backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))
    x.zero_grad()
    assert x.grad is None


def _interior_nodes(loss):
    """Every node with a closure reachable from ``loss``."""
    nodes, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in nodes and node._backward is not None:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


def test_backward_releases_every_interior_node():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    h = ad.relu(ad.correlate2d(x, w, 1, 1))
    # a node whose only consumer gives it no adjoint is visited but never run
    dropped = ad.sigmoid(h)
    blocked = ad._node(dropped.data.copy(), (dropped,), lambda g: (None,))
    loss = ad.add(ad.reduce_mean(ad.max_pool_window(h, 2, 2)), ad.reduce_sum(blocked))
    nodes = _interior_nodes(loss)
    assert len(nodes) == 8
    loss.backward()
    assert all(n._parents == () for n in nodes)
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
    assert x._backward is None and w._backward is None


def test_backward_frees_values_only_a_closure_saved():
    x = Tensor(np.array([-1.0, 2.0, -3.0]), requires_grad=True)
    y = ad.relu(x)
    (cell,) = y._backward.__closure__
    mask = weakref.ref(cell.cell_contents)
    del cell
    assert mask().dtype == bool
    ad.reduce_sum(y).backward()
    assert mask() is None
    np.testing.assert_array_equal(y.data, [0.0, 2.0, 0.0])
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_second_sweep_through_swept_nodes_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    y = ad.mul(x, x)
    loss = ad.reduce_sum(y)
    loss.backward()
    with pytest.raises(RuntimeError, match="earlier sweep already used and freed"):
        loss.backward()
    with pytest.raises(RuntimeError, match="earlier sweep already used and freed"):
        ad.reduce_sum(ad.mul(y, 2.0)).backward()
    np.testing.assert_array_equal(x.grad, np.full(3, 2.0))


def test_backward_fanout_adds():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(x, x)  # dy/dx = 2
    ad.reduce_sum(ad.mul(y, y)).backward()  # d/dx (2x)^2 = 8x
    np.testing.assert_allclose(x.grad, [16.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.mul(x, x).backward()


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with ad.no_grad():
        y = ad.reduce_sum(ad.mul(x, x))
    assert y._backward is None


def test_broadcasting_backward():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.ones((1, 3)), requires_grad=True)
    ad.reduce_sum(ad.mul(a, b)).backward()
    assert a.grad.shape == (2, 3)
    assert b.grad.shape == (1, 3)
    np.testing.assert_array_equal(b.grad, np.full((1, 3), 2.0))


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_quadratic_is_tight():
    A = np.random.default_rng(1).normal(size=(4, 4))

    def f(x):
        y = ad.correlate2d(ad.reshape(x, (1, 1, 4, 1)), Tensor(A.reshape(4, 1, 4, 1)))
        return ad.reduce_sum(ad.mul(ad.reshape(x, (4,)), ad.reshape(y, (4,))))

    err = ad.grad_check(f, Tensor(np.array([0.3, -0.2, 0.5, 0.1])), step=1e-5)
    assert err < 1e-9


def test_grad_check_constant_function():
    def f(x):
        return Tensor(np.array(5.0))

    err = ad.grad_check(f, Tensor(np.ones(4)), step=1e-5)
    assert err < 1e-10


def test_grad_check_softmax_norm_composite():
    w = np.random.default_rng(2).normal(size=(3, 4))

    def f(x):
        s = ad.softmax(ad.reshape(x, (3, 4)), axis=1)
        n = ad.l2_norm(s, axis=0)
        return ad.reduce_sum(ad.mul(n, Tensor(w[0])))

    err = ad.grad_check(f, Tensor(np.random.default_rng(3).normal(size=12)), step=1e-5)
    assert err < 1e-4


def _project_to_scalar(op, proj_rng):
    cache = {}

    def f(x):
        y = op(x)
        if "w" not in cache:
            cache["w"] = Tensor(proj_rng.normal(size=y.data.shape))
        return ad.reduce_sum(ad.mul(y, cache["w"]))

    return f


OPS_FOR_GRADCHECK = [
    ("add_self", lambda x: ad.add(x, ad.mul(x, 0.5))),
    ("mul", lambda x: ad.mul(x, ad.add(x, 2.0))),
    ("div", lambda x: ad.div(x, ad.add(ad.mul(x, x), 4.0))),
    ("neg", lambda x: ad.mul(x, -1.0)),
    ("scale", lambda x: ad.mul(-1.7, x)),
    ("add_scalar", lambda x: ad.add(2.5, x)),
    ("relu", ad.relu),
    ("sigmoid", ad.sigmoid),
    ("log", lambda x: ad.log(ad.add(ad.mul(x, x), 1.0))),
    ("reduce_sum_axis", lambda x: ad.reduce_sum(x, axis=1, keepdims=True)),
    ("reduce_mean_axis", lambda x: ad.reduce_mean(x, axis=0)),
    ("reshape", lambda x: ad.reshape(x, (4, 6))),
    ("softmax", lambda x: ad.softmax(x, axis=1)),
    ("l2_norm", lambda x: ad.l2_norm(x, axis=1, epsilon=1e-8)),
    ("squash_like", lambda x: ad.div(x, ad.add(ad.l2_norm(x, axis=1, keepdims=True), 1.0))),
    ("correlate", lambda x: ad.correlate2d(ad.reshape(x, (1, 2, 4, 3)), Tensor(_CORR_W))),
    ("max_pool", lambda x: ad.max_pool_window(ad.reshape(x, (2, 4, 3)), 2, 1)),
]

_CORR_W = np.random.default_rng(42).normal(size=(3, 2, 2, 2))


@pytest.mark.parametrize("name,op", OPS_FOR_GRADCHECK, ids=[n for n, _ in OPS_FOR_GRADCHECK])
def test_every_primitive_passes_grad_check(name, op):
    rng = np.random.default_rng(hash(name) % (2**32))
    for trial in range(10):
        point = rng.normal(size=(6, 4)).reshape(6, 4)
        # keep clear of relu/max kinks so central differences stay valid
        point = np.where(np.abs(point) < 0.05, 0.3, point)
        if name == "max_pool":
            # separate ties so argmax selection is stable under perturbation
            point = point + np.arange(24).reshape(6, 4) * 0.01
        proj = np.random.default_rng(1000 + trial)
        err = ad.grad_check(_project_to_scalar(op, proj), Tensor(point), step=1e-5)
        assert err < 1e-4, f"{name} trial {trial}: rel err {err}"


def test_correlate_gradients_both_arguments():
    rng = np.random.default_rng(21)
    x0 = rng.normal(size=(1, 2, 5, 5))
    w0 = rng.normal(size=(3, 2, 3, 3))
    proj = rng.normal(size=(1, 3, 3, 3))

    def f_input(x):
        return ad.reduce_sum(ad.mul(ad.correlate2d(x, Tensor(w0), 2, 1), Tensor(proj)))

    def f_kernel(w):
        return ad.reduce_sum(ad.mul(ad.correlate2d(Tensor(x0), w, 2, 1), Tensor(proj)))

    assert ad.grad_check(f_input, Tensor(x0), 1e-5) < 1e-6
    assert ad.grad_check(f_kernel, Tensor(w0), 1e-5) < 1e-6


def test_gemm_path_gradients():
    rng = np.random.default_rng(22)
    x0 = rng.normal(size=(1, 4, 24, 24))
    w0 = rng.normal(size=(12, 4, 3, 3))
    proj = rng.normal(size=(1, 12, 22, 22))

    def f_kernel(w):
        return ad.reduce_sum(ad.mul(ad.correlate2d(Tensor(x0), w), Tensor(proj)))

    assert ad.grad_check(f_kernel, Tensor(w0), 1e-5) < 1e-5


def loop_correlate2d_with_grads(x, w, g, stride, padding):
    """Float64 loops over output cells: output, input and kernel gradients.

    ``x`` is [N, C, H, W]; ``g`` is the adjoint of the [N, O, Ho, Wo] output.
    """
    x, w, g = (np.asarray(t, dtype=np.float64) for t in (x, w, g))
    N = x.shape[0]
    O, _, kH, kW = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho, Wo = g.shape[-2:]
    out = np.zeros(g.shape)
    gxp = np.zeros(xp.shape)
    gw = np.zeros(w.shape)
    for n in range(N):
        for y in range(Ho):
            for xx in range(Wo):
                rows = slice(y * stride, y * stride + kH)
                cols = slice(xx * stride, xx * stride + kW)
                patch = xp[n, :, rows, cols]
                for o in range(O):
                    out[n, o, y, xx] = (patch * w[o]).sum()
                    gw[o] += g[n, o, y, xx] * patch
                    gxp[n, :, rows, cols] += g[n, o, y, xx] * w[o]
    H, W = x.shape[-2:]
    return out, gxp[:, :, padding : padding + H, padding : padding + W], gw


# (input shape, kernel shape, stride, padding); each above GEMM_WORK_THRESHOLD
GEMM_CASES = {
    "stride2_pad1": ((1, 8, 60, 60), (16, 8, 3, 3), 2, 1),
    "one_by_one_output": ((128, 8, 6, 6), (32, 8, 6, 6), 1, 0),
    "overlapping_windows_small_output": ((32, 4, 7, 7), (32, 4, 6, 6), 1, 1),
}


# GEMM cases whose patches span several PATCH_BLOCK blocks of samples, the
# last one ragged; too large for the loop oracle
BLOCKED_CASES = {
    "stem1_ragged_pad1": ((33, 16, 30, 30), (32, 16, 3, 3), 1, 1),
    "stride2_pad1_ragged": ((5, 32, 40, 40), (16, 32, 3, 3), 2, 1),
    "primary": ((32, 32, 28, 28), (64, 32, 3, 3), 2, 0),
    "predict0": ((256, 8, 13, 13), (64, 8, 3, 3), 2, 0),
}


def _gemm_case(name, dtype, seed=0, kernel_dtype=None):
    x_shape, w_shape, stride, padding = {**GEMM_CASES, **BLOCKED_CASES}[name]
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape).astype(dtype)
    w = rng.normal(size=w_shape).astype(kernel_dtype or dtype)
    H, W = x_shape[-2:]
    Ho = (H + 2 * padding - w_shape[2]) // stride + 1
    Wo = (W + 2 * padding - w_shape[3]) // stride + 1
    g = rng.normal(size=(x_shape[0], w_shape[0], Ho, Wo)).astype(np.result_type(x, w))
    work = x_shape[0] * w_shape[0] * Ho * Wo * int(np.prod(w_shape[1:]))
    assert work > ad.GEMM_WORK_THRESHOLD
    return x, w, g, stride, padding


def _run_correlate(x, w, g, stride, padding):
    xt = Tensor(x, requires_grad=True)
    wt = Tensor(w, requires_grad=True)
    out = ad.correlate2d(xt, wt, stride, padding)
    ad.reduce_sum(ad.mul(out, Tensor(g))).backward()
    return out.data, xt.grad, wt.grad


@pytest.mark.parametrize("name", sorted(GEMM_CASES))
def test_gemm_path_forward_and_gradients_vs_loop_oracle(name):
    x, w, g, stride, padding = _gemm_case(name, np.float64)
    out, gx, gw = _run_correlate(x, w, g, stride, padding)
    want, want_gx, want_gw = loop_correlate2d_with_grads(x, w, g, stride, padding)
    assert out.shape == want.shape and gx.shape == x.shape and gw.shape == w.shape
    np.testing.assert_allclose(out, want, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(gx, want_gx, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(gw, want_gw, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("name", sorted(GEMM_CASES))
def test_gemm_path_narrow_in_narrow_out(name):
    x, w, g, stride, padding = _gemm_case(name, np.float32)
    out, gx, gw = _run_correlate(x, w, g, stride, padding)
    assert out.dtype == gx.dtype == gw.dtype == np.float32
    wide_out, wide_gx, wide_gw = _run_correlate(
        x.astype(np.float64), w.astype(np.float64), g.astype(np.float64), stride, padding
    )
    for got, want in ((out, wide_out), (gx, wide_gx), (gw, wide_gw)):
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-5 * np.abs(want).max())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(GEMM_CASES))
def test_gemm_path_repeat_calls_byte_identical(name, dtype):
    case = _gemm_case(name, dtype)
    first = _run_correlate(*case)
    second = _run_correlate(*case)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


def test_correlate2d_gives_a_constant_input_no_gradient():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, 9, 9))
    w = rng.normal(size=(4, 3, 3, 3))
    g = rng.normal(size=(2, 4, 5, 5))
    const = ad.correlate2d(Tensor(x), Tensor(w, requires_grad=True), 2, 1)
    tracked = ad.correlate2d(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), 2, 1)
    gx_const, gw_const = const._backward(g)
    gx, gw = tracked._backward(g)
    assert gx_const is None and gx.shape == x.shape
    np.testing.assert_array_equal(gw_const, gw)


def whole_batch_correlate2d(x, w, g, stride, padding):
    """Output, input and kernel gradients from the whole batch's patch matrix
    at once: one GEMM (or one [N, K] GEMM for a 1×1 output) forward, the
    kernel gradient summed over all N per-sample products or contracted over
    the batch in one step, and ``kernelsᵀ @ g`` added back by one col2im."""
    N, C, H, W = x.shape
    O, _, kH, kW = w.shape
    Ho, Wo = g.shape[-2:]
    K, P = C * kH * kW, Ho * Wo
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = ad._im2col(xp, kH, kW, stride, Ho, Wo)
    w2, g3 = w.reshape(O, K), g.reshape(N, O, P)
    out = cols.reshape(N, K) @ w2.T if P == 1 else np.matmul(w2, cols)
    if P * (K + O) > O * K:
        gw = np.matmul(g3, cols.transpose(0, 2, 1)).sum(axis=0)
    else:
        gw = np.tensordot(g3, cols, axes=((0, 2), (0, 2)))
    gcols = g3.reshape(N, O) @ w2 if P == 1 else np.matmul(w2.T, g3)
    gxp = np.zeros(xp.shape, dtype=gcols.dtype)
    ad._col2im(gcols, gxp, kH, kW, stride, Ho, Wo)
    return out.reshape(g.shape), gxp[:, :, padding : padding + H, padding : padding + W], gw.reshape(w.shape)


def test_blocked_cases_span_several_ragged_blocks():
    for x_shape, w_shape, stride, padding in BLOCKED_CASES.values():
        N, C, H, W = x_shape
        P = ((H + 2 * padding - w_shape[2]) // stride + 1) * ((W + 2 * padding - w_shape[3]) // stride + 1)
        block = ad.PATCH_BLOCK // (C * w_shape[2] * w_shape[3] * P)
        assert 1 <= block < N and N % block


@pytest.mark.parametrize("input_grad", [True, False], ids=["tracked_input", "constant_input"])
@pytest.mark.parametrize(
    "dtypes",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
    ids=["f32", "f64", "f32_input_f64_kernels"],
)
@pytest.mark.parametrize("name", sorted(BLOCKED_CASES) + sorted(GEMM_CASES))
def test_gemm_path_bit_identical_to_whole_batch(name, dtypes, input_grad):
    # The cases cover blocked per-sample GEMMs, the tensordot kernel gradient
    # (overlapping_windows_small_output) and the 1×1 output (one_by_one_output).
    # Mixed precision stays wide: no buffer narrows the result to the input's.
    x, w, g, stride, padding = _gemm_case(name, dtypes[0], kernel_dtype=dtypes[1])
    out = ad.correlate2d(Tensor(x, requires_grad=input_grad), Tensor(w, requires_grad=True), stride, padding)
    gx, gw = out._backward(g)
    want, want_gx, want_gw = whole_batch_correlate2d(x, w, g, stride, padding)
    assert out.dtype == want.dtype == np.result_type(*dtypes)
    np.testing.assert_array_equal(out.data, want, strict=True)
    np.testing.assert_array_equal(gw, want_gw, strict=True)
    if input_grad:
        np.testing.assert_array_equal(gx, want_gx, strict=True)
    else:
        assert gx is None


def test_correlate2d_never_holds_a_whole_batch_patch_matrix():
    # The second stem conv's shapes at batch 32 in float32: its whole-batch
    # patch matrix [32, 144, 784] is 14.4 MB, and its output 3.2 MB.
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(32, 16, 30, 30)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)
    g = rng.normal(size=(32, 32, 28, 28)).astype(np.float32)
    whole = 32 * 144 * 784 * 4
    tracemalloc.start()
    try:
        out = ad.correlate2d(x, w)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        out._backward(g)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forward_peak < whole and backward_peak < whole, (forward_peak, backward_peak)


# ---------------------------------------------------------------------------
# determinism


def test_bit_identical_reruns():
    def pipeline():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        y = ad.relu(ad.correlate2d(x, w, 1, 1))
        y = ad.max_pool_window(y, 2, 2)
        loss = ad.reduce_mean(ad.mul(y, y))
        loss.backward()
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = pipeline()
    l2, gx2, gw2 = pipeline()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_narrow_precision_flows_through():
    x = Tensor(np.ones((2, 3), dtype=np.float32))
    y = ad.sigmoid(ad.mul(x, x))
    assert y.dtype == np.float32
