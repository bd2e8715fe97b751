import gc
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgram import autodiff as ad
from capgram import losses as ls
from capgram import models as md
from capgram.autodiff import Tensor
from capgram.config import ConfigError
from tests.helpers import flat_parameters, model_loss_fn

# miniature capsnet: 12 -> stem 10 -> primary 4 -> routed 2 -> class 1
MINI = md.CapsNetConfig(
    image_size=12,
    stem=(md.ConvSpec(4, 3),),
    primary_types=2,
    primary_dim=3,
    primary_kernel=3,
    primary_stride=2,
    routed=(md.RoutedSpec(2, 3, 3, 1), md.RoutedSpec(2, 4, 2, 1)),
    n_classes=2,
)


def _fixed_image(size=32):
    return (np.arange(size * size, dtype=np.float64).reshape(1, 1, size, size) % 17) / 16.0


# ---------------------------------------------------------------------------
# construction


def _count(model):
    return sum(t.data.size for t in model.params.values())


def test_capsnet_parameter_count_closed_form():
    m = md.CapsNet(md.CapsNetConfig(), 0)
    kernels = 16 * 1 * 9 + 32 * 16 * 9 + 64 * 32 * 9 + 8 * 8 * 8 * 9 + 2 * 16 * 8 * 36
    biases = 16 + 32 + 64  # stem and primary-capsule convs; predictions have none
    assert _count(m) == kernels + biases == 37120


def test_cnn_parameter_count_closed_form():
    m = md.CNN(md.CNNConfig(), 0)
    kernels = 16 * 1 * 9 + 32 * 16 * 9 + 64 * 32 * 9 + 64 * 64 * 9 + 2 * 64 * 16
    biases = 16 + 32 + 64 + 64 + 2
    assert _count(m) == kernels + biases == 62274


def test_baseline_within_twice_capsnet_parameters():
    caps = _count(md.CapsNet(md.CapsNetConfig(), 0))
    cnn = _count(md.CNN(md.CNNConfig(), 0))
    assert cnn <= 2 * caps


def test_same_seed_bit_identical_parameters():
    a = md.CapsNet(md.CapsNetConfig(), 11)
    b = md.CapsNet(md.CapsNetConfig(), 11)
    for (na, ta), (nb, tb) in zip(a.params.items(), b.params.items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)
    c = md.CapsNet(md.CapsNetConfig(), 12)
    assert any(
        not np.array_equal(ta.data, tc.data)
        for (_, ta), (_, tc) in zip(a.params.items(), c.params.items())
    )


def test_class_count_matches_final_types():
    m = md.CapsNet(md.CapsNetConfig(), 0)
    out = m.forward(Tensor(_fixed_image()))
    assert out.class_activations.shape == (1, 2)
    assert out.traces[-1].n_out == 2


def test_mismatched_class_layer_rejected():
    bad = md.CapsNetConfig(routed=(md.RoutedSpec(8, 8, 3, 2), md.RoutedSpec(3, 16, 6, 1)))
    with pytest.raises(ValueError, match="expected n_classes"):
        md.CapsNet(bad, 0)


def test_unknown_routing_mode_rejected():
    with pytest.raises(ValueError, match=r"routing_mode must be dynamic\|equal, got 'bogus'"):
        md.CapsNet(md.CapsNetConfig(routing_mode="bogus"), 0)


def test_wrong_extent_rejected_with_layer_trace():
    bad = md.CapsNetConfig(routed=(md.RoutedSpec(8, 8, 3, 2), md.RoutedSpec(2, 16, 4, 1)))
    with pytest.raises(ValueError, match="extent"):
        md.CapsNet(bad, 0)


# ---------------------------------------------------------------------------
# forward semantics


def test_activations_bounded_below_one():
    m = md.CapsNet(md.CapsNetConfig(), 3)
    rng = np.random.default_rng(0)
    out = m.forward(Tensor(rng.uniform(0, 1, size=(4, 1, 32, 32))))
    assert np.all(out.class_activations.data >= 0)
    assert np.all(out.class_activations.data < 1)


def test_cnn_sigmoid_head_bounded():
    m = md.CNN(md.CNNConfig(), 3)
    rng = np.random.default_rng(0)
    out = m.forward(Tensor(rng.uniform(0, 1, size=(4, 1, 32, 32))))
    assert np.all((out.class_activations.data > 0) & (out.class_activations.data < 1))
    assert out.traces == []


def test_duplicated_image_identical_outputs():
    m = md.CapsNet(md.CapsNetConfig(), 4)
    img = _fixed_image()
    batch = np.concatenate([img, img], axis=0)
    out = m.forward(Tensor(batch))
    np.testing.assert_array_equal(
        out.class_activations.data[0], out.class_activations.data[1]
    )


def test_equal_routing_mode_uniform_coefficients():
    cfg = md.CapsNetConfig(routing_mode="equal")
    m = md.CapsNet(cfg, 5)
    out = m.forward(Tensor(_fixed_image()))
    for trace in out.traces:
        c = trace.coefficients[-1].data
        np.testing.assert_array_equal(c, np.full(c.shape, 1.0 / trace.n_out))


def test_pixel_range_and_extent_validated():
    m = md.CapsNet(md.CapsNetConfig(), 0)
    with pytest.raises(ValueError, match="normalized"):
        m.forward(Tensor(np.full((1, 1, 32, 32), 1.5)))
    with pytest.raises(ValueError, match="extent"):
        m.forward(Tensor(np.zeros((1, 1, 16, 16))))


def test_nan_pixel_rejected_by_both_models():
    batch = _fixed_image()
    batch[0, 0, 5, 7] = np.nan
    for model in (md.CapsNet(md.CapsNetConfig(), 0), md.CNN(md.CNNConfig(), 0)):
        with pytest.raises(ValueError, match="pixels must be finite"):
            model.forward(Tensor(batch))


def test_golden_activation_vector():
    # frozen from the first verified run of the seed-5 default capsnet
    m = md.CapsNet(md.CapsNetConfig(), 5)
    out = m.forward(Tensor(_fixed_image()))
    np.testing.assert_allclose(
        out.class_activations.data[0], [0.11279359, 0.15258178], atol=1e-7
    )


# ---------------------------------------------------------------------------
# gradients


def test_miniature_end_to_end_grad_check():
    m = md.CapsNet(MINI, 6)
    rng = np.random.default_rng(1)
    batch = Tensor(rng.uniform(0, 1, size=(1, 1, 12, 12)))
    fn = model_loss_fn(m, batch, np.array([1]))
    # step 1e-4 balances truncation against the f64 roundoff floor, which at
    # 1e-5 already reaches 1e-4 relative on coordinates with |grad| ~ 1e-7
    err = ad.grad_check(fn, Tensor(flat_parameters(m)), step=1e-4)
    assert err < 1e-4


def test_cnn_grad_check():
    cfg = md.CNNConfig(
        image_size=10,
        layers=(md.ConvSpec(3, 3), md.PoolSpec(2, 2), md.ConvSpec(4, 3)),
    )
    m = md.CNN(cfg, 7)
    rng = np.random.default_rng(2)
    # offsets keep pool-window ties and argmax flips away from the check
    batch = Tensor(
        (rng.uniform(0.1, 0.9, size=(1, 1, 10, 10)) + np.arange(100).reshape(1, 1, 10, 10) * 1e-4).clip(0, 1)
    )
    fn = model_loss_fn(m, batch, np.array([0]))
    err = ad.grad_check(fn, Tensor(flat_parameters(m)), step=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# training-step memory


@pytest.fixture(scope="module")
def step_memory():
    """Traced bytes of one f32 batch-32 capsnet step with the 0.8caps loss:
    live after the forward, peak during ``backward()`` and still held after it
    while ``out``, ``margin`` and ``total`` stay bound, all above the memory
    before the forward."""
    model = md.CapsNet(md.CapsNetConfig(), 7, np.float32)
    rng = np.random.default_rng(0)
    images = rng.random((32, 1, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 2, 32)

    def forward():
        out = model.forward(Tensor(images))
        margin = ls.margin_loss(out.class_activations, labels)
        return out, margin, ls.combined_loss(margin, ls.entropy_loss(out.traces), 0.8)

    def drop_grads():
        for t in model.params.values():
            t.zero_grad()

    forward()[2].backward()  # warm-up
    drop_grads()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out, margin, total = forward()
        live = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        total.backward()
        peak = tracemalloc.get_traced_memory()[1] - base
        drop_grads()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return live, peak, held


def test_swept_step_holds_little_while_its_outputs_stay_bound(step_memory):
    # a tape kept until the sweep returns holds all of the forward's 17.5 MB here
    live, _, held = step_memory
    assert live > 15 * 2**20
    assert held < 2 * 2**20


def test_step_tape_holds_each_conv_output_once(step_memory):
    # a conv layer's only saved activation is its output: 17.5 MB here, where
    # a correlate2d → add → relu chain with its mask saved 29.6 MB
    live, _, _ = step_memory
    assert live < 20 * 2**20


def test_no_grad_forward_holds_only_the_layer_in_flight():
    # f32 batch 64: 14.8 MB here; holding every activation until the forward
    # returns peaked at 26.2 MB
    model = md.CapsNet(md.CapsNetConfig(), 7, np.float32)
    images = Tensor(np.random.default_rng(0).random((64, 1, 32, 32)).astype(np.float32))
    with ad.no_grad():
        model.forward(images)  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.forward(images)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < 18 * 2**20


def test_cnn_no_grad_forward_peak_stays_below_blocked_bound():
    # f32 batch 64: 10.5 MB here, where the peak is the second conv's input
    # and output, and 12.7 MB when max-pooling argmaxed blocks of im2col
    # patches and kept the winners as intp
    model = md.CNN(md.CNNConfig(), 7, np.float32)
    images = Tensor(np.random.default_rng(0).random((64, 1, 32, 32)).astype(np.float32))
    with ad.no_grad():
        model.forward(images)  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.forward(images)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak < 13.5 * 2**20


def test_backward_peak_stays_near_the_forward_tape(step_memory):
    # with the tape kept until the sweep returns, the peak is 2.10 times it
    live, peak, _ = step_memory
    assert peak < 1.6 * live


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_byte_exact(tmp_path):
    m = md.CapsNet(MINI, 8)
    # beyond f32 range, but finite for this f64 model
    m.params["routed.1.filters"].data[0, 1, 2, 0, 1] = 1e300
    p1 = tmp_path / "a.ckpt"
    md.save_checkpoint(m, p1)
    state = md.load_checkpoint(p1)
    m2 = md.CapsNet(MINI, 99)
    md.load_state(m2, state)
    p2 = tmp_path / "b.ckpt"
    md.save_checkpoint(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for (_, ta), (_, tb) in zip(m.params.items(), m2.params.items()):
        np.testing.assert_array_equal(ta.data, tb.data)


def test_checkpoint_narrow_precision_round_trip(tmp_path):
    m = md.CapsNet(MINI, 9, np.float32)
    p = tmp_path / "narrow.ckpt"
    md.save_checkpoint(m, p)
    m2 = md.CapsNet(MINI, 0, np.float32)
    md.load_state(m2, md.load_checkpoint(p))
    out1 = m.forward(Tensor(np.zeros((1, 1, 12, 12), dtype=np.float32)))
    out2 = m2.forward(Tensor(np.zeros((1, 1, 12, 12), dtype=np.float32)))
    np.testing.assert_array_equal(
        out1.class_activations.data, out2.class_activations.data
    )


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigError, match="magic"):
        md.load_checkpoint(p)
    m = md.CapsNet(MINI, 8)
    good = tmp_path / "good.ckpt"
    md.save_checkpoint(m, good)
    blob = good.read_bytes()
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(ConfigError, match="truncated"):
        md.load_checkpoint(trunc)


@pytest.fixture(scope="module")
def ckpt_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ckpt")


@pytest.fixture(scope="module")
def mini_checkpoint(ckpt_dir):
    path = ckpt_dir / "mini.ckpt"
    md.save_checkpoint(md.CapsNet(MINI, 8), path)
    return path.read_bytes(), md.load_checkpoint(path)


def _load_or_refuse(directory, blob):
    """Load ``blob`` as a checkpoint: a name -> array mapping, or None after
    a ConfigError that names the file."""
    path = directory / "fuzz.ckpt"
    path.write_bytes(blob)
    try:
        return md.load_checkpoint(path)
    except ConfigError as exc:
        assert str(path) in str(exc)
        return None


def test_checkpoint_every_truncation_loads_a_prefix_or_refuses(ckpt_dir, mini_checkpoint):
    blob, full = mini_checkpoint
    for keep in range(len(blob)):
        state = _load_or_refuse(ckpt_dir, blob[:keep])
        if state is not None:  # cut at a parameter boundary
            assert list(state) == list(full)[: len(state)]
            for name, values in state.items():
                np.testing.assert_array_equal(values, full[name])


@given(tail=st.binary(max_size=96))
@settings(max_examples=200, deadline=None)
def test_checkpoint_fuzz_bytes_after_magic(ckpt_dir, tail):
    _load_or_refuse(ckpt_dir, md.CHECKPOINT_MAGIC + tail)


# Small extents make records the loader can accept; large ones declare more
# values than any file holds, and two of them multiply past 2**64.
CKPT_EXTENT = st.one_of(st.integers(0, 3), st.sampled_from([2**32, 2**63, 2**64 - 1]))
CKPT_RECORD = st.tuples(
    st.binary(max_size=3), st.lists(CKPT_EXTENT, max_size=3), st.binary(max_size=40)
)


def ckpt_record(name, extents, payload):
    """One checkpoint parameter record: name, declared extents, then ``payload``."""
    return b"".join(
        [struct.pack("<Q", len(name)), name, struct.pack("<Q", len(extents))]
        + [struct.pack("<Q", e) for e in extents]
        + [payload]
    )


@given(records=st.lists(CKPT_RECORD, max_size=3))
@example(records=[(b"\xff", [], bytes(8))])
@example(records=[(b"w", [2**32, 2**32], b"")])
@example(records=[(b"w", [0, 2**64 - 1], b"")])
@example(records=[(b"w", [], bytes(8)), (b"w", [], bytes(8))])
@settings(max_examples=200, deadline=None)
def test_checkpoint_fuzz_declared_records(ckpt_dir, records):
    blob = md.CHECKPOINT_MAGIC + b"".join(ckpt_record(*r) for r in records)
    _load_or_refuse(ckpt_dir, blob)


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    m = md.CapsNet(MINI, 8)
    p = tmp_path / "mini.ckpt"
    md.save_checkpoint(m, p)
    other = md.CapsNet(md.CapsNetConfig(), 0)
    with pytest.raises(ValueError, match="shape"):
        md.load_state(other, md.load_checkpoint(p))


@pytest.mark.parametrize(
    "dtype, bad",
    [
        pytest.param(np.float64, np.nan, id="nan"),
        pytest.param(np.float64, np.inf, id="inf"),
        # finite in the f64 checkpoint, inf once cast to the model's f32
        pytest.param(np.float32, 1e300, id="f32-overflow"),
    ],
)
def test_checkpoint_non_finite_value_rejected(tmp_path, dtype, bad):
    m = md.CapsNet(MINI, 8)
    m.params["routed.1.filters"].data[0, 1, 2, 0, 1] = bad
    p = tmp_path / "mini.ckpt"
    md.save_checkpoint(m, p)
    with pytest.raises(ValueError, match=r"'routed.1.filters' holds non-finite"):
        md.load_state(md.CapsNet(MINI, 8, dtype), md.load_checkpoint(p))

