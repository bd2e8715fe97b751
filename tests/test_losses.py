import numpy as np
import pytest

from capgram import autodiff as ad
from capgram import experiment as ex
from capgram import losses as ls
from capgram import routing as rt
from capgram.autodiff import Tensor
from capgram.config import ConfigError


def _trace(c):
    """A one-sample trace whose final coefficients are ``c`` [n_in, n_out, H, W]."""
    t = rt.RoutingTrace()
    t.coefficients.append(Tensor(c[None]))
    return t


# ---------------------------------------------------------------------------
# margin loss


def test_margin_zero_when_hinges_inactive():
    loss = ls.margin_loss(Tensor(np.array([[0.9, 0.1]])), 0)
    assert loss.item() == 0.0


def test_margin_all_zero_activations():
    loss = ls.margin_loss(Tensor(np.array([[0.0, 0.0]])), 0)
    assert loss.item() == pytest.approx(0.81, abs=1e-12)


def test_margin_hand_value():
    loss = ls.margin_loss(Tensor(np.array([[0.5, 0.5]])), 0)
    assert loss.item() == pytest.approx(0.24, abs=1e-12)


def test_margin_batched_is_mean_of_per_sample():
    a = np.array([[0.5, 0.5], [0.9, 0.1]])
    loss = ls.margin_loss(Tensor(a), np.array([0, 0]))
    assert loss.item() == pytest.approx(0.12, abs=1e-12)


def test_margin_target_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        ls.margin_loss(Tensor(np.array([[0.5, 0.5]])), 2)


def test_margin_rejects_unbatched_activations():
    with pytest.raises(ValueError, match=r"activations must be \[B, K\]"):
        ls.margin_loss(Tensor(np.array([0.5, 0.5])), 0)


def test_margin_nonnegative_and_zero_condition():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.uniform(0, 1, size=4)
        t = rng.integers(0, 4)
        val = ls.margin_loss(Tensor(a[None]), int(t)).item()
        assert val >= 0.0
        if a[t] >= 0.9 and all(a[k] <= 0.1 for k in range(4) if k != t):
            assert val == 0.0


def test_margin_gradients():
    rng = np.random.default_rng(1)

    def f(x):
        return ls.margin_loss(ad.sigmoid(x), 1)

    # sigmoid keeps activations off the hinge corners for these points
    err = ad.grad_check(f, Tensor(rng.normal(size=(1, 4))), step=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# entropy loss


def test_entropy_loss_one_hot_layers_zero():
    c = np.zeros((2, 4, 1, 1))
    c[:, 2] = 1.0
    total = ls.entropy_loss([_trace(c), _trace(c)]).item()
    assert abs(total) <= 1e-10


def test_entropy_loss_two_uniform_layers():
    c = np.full((2, 4, 1, 1), 0.25)
    total = ls.entropy_loss([_trace(c), _trace(c)]).item()
    assert total == pytest.approx(2 * np.log(4.0), abs=1e-9)


def test_entropy_loss_half_half():
    c = np.full((3, 2, 2, 2), 0.5)
    total = ls.entropy_loss([_trace(c)]).item()
    assert total == pytest.approx(np.log(2.0), abs=1e-9)


def test_entropy_loss_empty_rejected():
    with pytest.raises(ValueError, match="at least one"):
        ls.entropy_loss([])


# ---------------------------------------------------------------------------
# combined loss


def test_combined_identities():
    m = Tensor(np.array(0.7))
    e = Tensor(np.array(1.3))
    assert ls.combined_loss(m, e, 0.0).item() == 0.7
    assert ls.combined_loss(m, e, 1.0).item() == 1.3


def test_combined_hand_value():
    m = Tensor(np.array(0.24))
    e = Tensor(np.array(np.log(2.0)))
    got = ls.combined_loss(m, e, 0.4).item()
    assert got == pytest.approx(0.42126, abs=1e-5)


def test_combined_linear_in_both():
    w = 0.7
    a = ls.combined_loss(Tensor(np.array(2.0)), Tensor(np.array(0.0)), w).item()
    b = ls.combined_loss(Tensor(np.array(0.0)), Tensor(np.array(2.0)), w).item()
    ab = ls.combined_loss(Tensor(np.array(2.0)), Tensor(np.array(2.0)), w).item()
    assert ab == pytest.approx(a + b, abs=1e-12)


# ---------------------------------------------------------------------------
# the entropy-weight ramp (RunConfig.w_ent)


def _run(start=0.0, end=0.8, epochs=50):
    return ex.RunConfig("d", "o", w_ent_start=start, w_ent_end=end, epochs=epochs)


def test_ramp_start_is_pure_classification():
    assert _run().w_ent(0) == 0.0


def test_ramp_final_epoch():
    assert _run().w_ent(49) == pytest.approx(0.8, abs=1e-12)


def test_ramp_midpoint_value():
    assert _run().w_ent(25) == pytest.approx(0.8 * 25 / 49, abs=1e-9)


def test_fixed_mode_constant():
    cfg = _run(0.4, 0.4, 30)
    for epoch in (0, 15, 29):
        assert cfg.w_ent(epoch) == 0.4


def test_schedule_monotone_in_entropy_weight():
    cfg = _run(epochs=30)
    weights = [cfg.w_ent(e) for e in range(30)]
    assert all(b >= a for a, b in zip(weights, weights[1:]))


def test_epoch_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        _run(epochs=50).w_ent(50)
    with pytest.raises(ValueError, match="out of range"):
        _run(epochs=50).w_ent(-1)


def test_invalid_schedules_rejected():
    with pytest.raises(ConfigError):
        _run(0.9, 0.1, 10)
    with pytest.raises(ConfigError):
        _run(-0.1, 0.5)


# ---------------------------------------------------------------------------
# end-to-end gradient through margin + entropy


def test_margin_plus_entropy_grad_check():
    rng = np.random.default_rng(2)
    proj = rng.normal(size=(1, 2, 3, 2, 1, 1))

    def f(x):
        S = ad.mul(ad.reshape(x, (1, 2, 3, 2, 1, 1)), Tensor(proj))
        routed, trace = rt.dynamic_route(S, 3)
        acts = ad.reshape(
            ad.l2_norm(routed, axis=-3, epsilon=1e-8), (1, 3)
        )
        m = ls.margin_loss(acts, 1)
        e = ls.entropy_loss([trace])
        return ls.combined_loss(m, e, 0.4)

    err = ad.grad_check(f, Tensor(rng.normal(size=12)), step=1e-5)
    assert err < 1e-4
