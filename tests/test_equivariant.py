import numpy as np
import pytest

from capgram import autodiff as ad
from capgram import equivariant as eq
from capgram.autodiff import Tensor
from tests.test_autodiff import naive_correlate2d, naive_max_pool


def _rand_field(rng, c=2, h=6, w=6):
    return Tensor(rng.normal(size=(1, c, h, w)))


def test_identity_kernel_is_identity():
    rng = np.random.default_rng(0)
    field = _rand_field(rng, c=3)
    k = np.zeros((3, 3, 1, 1))
    for i in range(3):
        k[i, i, 0, 0] = 1.0
    out = eq.ConvLayer(Tensor(k))(field)
    np.testing.assert_array_equal(out.data, field.data)


def test_relu_activation_nonnegative():
    rng = np.random.default_rng(1)
    field = _rand_field(rng)
    out = eq.ConvLayer(Tensor(rng.normal(size=(4, 2, 3, 3))), activation="relu")(field)
    assert np.all(out.data >= 0)


def test_conv_layer_vs_loop_oracle():
    rng = np.random.default_rng(2)
    field = _rand_field(rng, c=2, h=6, w=6)
    k = rng.normal(size=(3, 2, 3, 3))
    out = eq.ConvLayer(Tensor(k), stride=1, padding=1)(field)
    want = naive_correlate2d(field.data[0], k, stride=1, padding=1)
    np.testing.assert_array_equal(out.data[0], want)


def test_max_pool_examples():
    out = ad.max_pool_window(Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]])), 2, 2)
    assert out.data.reshape(()) == 4.0

    const = ad.max_pool_window(Tensor(np.full((2, 6, 6), 1.5)), 2, 2)
    np.testing.assert_array_equal(const.data, np.full((2, 3, 3), 1.5))


def test_max_pool_vs_oracle():
    rng = np.random.default_rng(3)
    field = _rand_field(rng, c=2, h=7, w=7)
    out = ad.max_pool_window(field, 3, 2)
    np.testing.assert_array_equal(out.data, naive_max_pool(field.data, 3, 2))


def test_pool_window_error():
    with pytest.raises(ValueError):
        ad.max_pool_window(Tensor(np.zeros((1, 3, 3))), 4, 1)


def test_translate_zero_fill():
    x = np.arange(9.0).reshape(1, 3, 3)
    t = eq.translate(x, 1, 0)
    assert np.all(t[0, 0] == 0)
    np.testing.assert_array_equal(t[0, 1:], x[0, :2])


def test_field_validation():
    # layers take plain tensors; correlate2d rejects a rank it cannot read
    layer = eq.ConvLayer(Tensor(np.ones((1, 1, 1, 1))))
    with pytest.raises(ValueError, match=r"input must be \[N, C, H, W\]"):
        layer(Tensor(np.zeros((3, 3))))


# ---------------------------------------------------------------------------
# equivariance surface


def test_zero_shift_is_exact():
    rng = np.random.default_rng(4)
    layer = eq.ConvLayer(Tensor(rng.normal(size=(3, 2, 3, 3))), stride=1)
    dev = eq.check_translation_equivariance(layer, _rand_field(rng, h=8, w=8), (0, 0))
    assert dev == 0.0


def test_conv_stride1_shift_equivariance():
    rng = np.random.default_rng(5)
    layer = eq.ConvLayer(Tensor(rng.normal(size=(3, 2, 3, 3))), stride=1)
    dev = eq.check_translation_equivariance(layer, _rand_field(rng, h=9, w=9), (2, 0))
    assert dev < 1e-10


def test_conv_stride1_padded_shift_equivariance():
    rng = np.random.default_rng(6)
    layer = eq.ConvLayer(Tensor(rng.normal(size=(3, 2, 3, 3))), stride=1, padding=1)
    dev = eq.check_translation_equivariance(layer, _rand_field(rng, h=9, w=9), (1, 2), padding=1)
    assert dev < 1e-10


def test_max_pool_stride2_shift_equivariance():
    rng = np.random.default_rng(7)

    def pool(x):
        return ad.max_pool_window(x, 2, 2)

    dev = eq.check_translation_equivariance(pool, _rand_field(rng, h=10, w=10), (2, 2), stride=2)
    assert dev < 1e-10


def test_strided_conv_stride_multiple_shift():
    rng = np.random.default_rng(8)
    layer = eq.ConvLayer(Tensor(rng.normal(size=(2, 2, 3, 3))), stride=2)
    dev = eq.check_translation_equivariance(layer, _rand_field(rng, h=12, w=12), (2, -2), stride=2)
    assert dev < 1e-10


def test_shift_must_match_stride():
    rng = np.random.default_rng(9)
    layer = eq.ConvLayer(Tensor(rng.normal(size=(2, 2, 3, 3))), stride=2)
    with pytest.raises(ValueError, match="multiple of stride"):
        eq.check_translation_equivariance(layer, _rand_field(rng, h=10, w=10), (1, 0), stride=2)


@pytest.mark.parametrize("shift", [(1, 0), (0, 1), (-2, 3), (3, -3)])
def test_equivariance_sweep_stride1(shift):
    rng = np.random.default_rng(10)
    layer = eq.ConvLayer(Tensor(rng.normal(size=(4, 3, 3, 3))), stride=1, activation="relu")
    dev = eq.check_translation_equivariance(layer, _rand_field(rng, c=3, h=10, w=10), shift)
    assert dev < 1e-10


# ---------------------------------------------------------------------------
# the fused conv node against the composition it replaces

# Pre-activations written into the correlation's output: -0.0, 0.0 and NaN
# (all three map to 0 under ReLU and get no adjoint) beside ordinary values.
SPECIAL = (0.0, np.nan, -1.5, 2.0)


def _composed(x, k, bias, stride, padding, relu):
    out = ad.correlate2d(x, k, stride, padding)
    if bias is not None:
        out = ad.add(out, ad.reshape(bias, (bias.shape[0], 1, 1)))
    return ad.relu(out) if relu else out


@pytest.fixture
def special_preactivations(monkeypatch):
    """Overwrite the first and the last plane of every correlation's output,
    in place as the fused node itself writes: SPECIAL, then -0.0 to the end.
    numpy's fmax keeps -0.0 at some positions of a float64 buffer, such as
    those near its end, and turns it into 0.0 at others."""
    real = ad.correlate2d

    def correlate2d(*args):
        out = real(*args)
        for plane in (out.data[0, 0], out.data[-1, -1]):
            plane[...] = -0.0
            plane.reshape(-1)[: len(SPECIAL)] = SPECIAL
        return out

    monkeypatch.setattr(ad, "correlate2d", correlate2d)


@pytest.mark.usefixtures("special_preactivations")
@pytest.mark.parametrize(
    "dtype, bias_dtype",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)],
    ids=["f32", "f64", "f32_f64_bias"],
)
@pytest.mark.parametrize("stride, padding", [(1, 0), (2, 1)])
@pytest.mark.parametrize("input_grad", [True, False], ids=["tracked_input", "constant_input"])
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
@pytest.mark.parametrize("activation", ["relu", "none"])
def test_conv_layer_node_bit_identical_to_composition(
    activation, with_bias, input_grad, stride, padding, dtype, bias_dtype
):
    rng = np.random.default_rng(11)
    x_data = rng.normal(size=(3, 2, 7, 7)).astype(dtype)
    k_data = rng.normal(size=(4, 2, 3, 3)).astype(dtype)
    # the first and last channels' bias is -0.0, so that the signed zeros
    # reach the ReLU unchanged
    b_data = np.array([-0.0, *rng.normal(size=2), -0.0], dtype=bias_dtype)
    relu = activation == "relu"
    results = []
    for fused in (True, False):
        x = Tensor(x_data, requires_grad=input_grad)
        k = Tensor(k_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True) if with_bias else None
        if fused:
            out = eq.ConvLayer(k, stride, padding, activation, bias=b)(x)
        else:
            out = _composed(x, k, b, stride, padding, relu)
        g = np.random.default_rng(12).normal(size=out.shape).astype(dtype)
        ad.reduce_sum(ad.mul(out, Tensor(g))).backward()
        results.append((out.data, x.grad, k.grad, None if b is None else b.grad))
    for got, want in zip(*results):
        if want is None:
            assert got is None
        else:
            np.testing.assert_array_equal(got, want, strict=True)
            assert got.tobytes() == want.tobytes()  # signed zeros too
    out_data = results[0][0]
    assert np.isnan(out_data).any() != relu
    if not input_grad:
        assert results[0][1] is None


def test_conv_layer_is_one_node_over_its_parameters():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    out = eq.ConvLayer(k, activation="relu", bias=b)(x)
    assert out._parents == (x, k, b)


def test_conv_layer_under_no_grad_is_untracked():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 2, 6, 6)), requires_grad=True)
    k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    with ad.no_grad():
        out = eq.ConvLayer(k, activation="relu", bias=b)(x)
    assert out._backward is None and out._parents == ()
