"""Convolutional layers on the 2-D translation group.

Layers take and return plain tensors [N, channels, H, W]: per sample, a
function sampled on translations of an H x W grid, one scalar per channel.
``check_translation_equivariance`` measures how far a correlation layer, or
any such map, is from translation equivariance on the interior region
unaffected by zero padding.  Two-step max-pooling (window maximum over a
coset, then subsampling onto the stride subgroup) is no layer object here:
callers call ``autodiff.max_pool_window`` with its window and stride.

A conv layer is one graph node whose only saved activation is its output:
it adds its bias and applies its ReLU in place, in the buffer
``correlate2d`` allocated for that call, which nothing else holds.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


class ConvLayer:
    """Correlation with a kernel bank, optional per-channel bias, then an
    optional pointwise activation. The bias is constant over the grid, so it
    leaves translation equivariance intact.

    With a bias or a ReLU the layer is one graph node whose only saved
    activation is its output.  It adds the bias and applies the ReLU in
    place, in the buffer ``correlate2d`` has just allocated for its output:
    no other node, view or caller holds that buffer, so nothing else sees it
    change.  The node takes over the correlate2d node's backward closure: it
    masks the adjoint by ``out > 0``, which holds exactly where the
    pre-activation is positive (``fmax`` maps NaN to 0), reduces the bias
    gradient as ``ad.add`` would, and hands the masked adjoint to the
    correlation's closure.  Outputs and gradients are bit-identical to
    ``relu(add(correlate2d(x, k), reshape(bias, (O, 1, 1))))``.
    """

    def __init__(self, kernels, stride=1, padding=0, activation="none", bias=None):
        self.kernels = kernels if isinstance(kernels, Tensor) else Tensor(kernels)
        self.stride = int(stride)
        self.padding = int(padding)
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.bias = bias

    def __call__(self, x):
        conv = ad.correlate2d(x, self.kernels, self.stride, self.padding)
        bias, relu = self.bias, self.activation == "relu"
        if bias is None and not relu:
            return conv
        out = conv.data
        if bias is not None:
            # a bias wider than the correlation widens the output, as add does
            out = out.astype(np.result_type(out, bias.data), copy=False)
            out += bias.data.reshape(-1, 1, 1)
        if relu:
            # as ad.relu: fmax sends NaN to 0, and adding +0.0 turns -0.0 into +0.0
            zero = np.zeros((), out.dtype)
            np.fmax(out, zero, out=out)
            out += zero
        conv_backward = conv._backward
        parents = conv._parents if bias is None else conv._parents + (bias,)

        def backward(g):
            if relu:
                g = g * (out > 0)
            grads = () if conv_backward is None else conv_backward(g)
            if bias is not None:
                grads += (ad._unbroadcast(g, (out.shape[1], 1, 1)).reshape(bias.shape),)
            return grads

        return ad._node(out, parents, backward)


def translate(values, dy, dx):
    """Shift an [..., H, W] array by (dy, dx), filling vacated cells with 0."""
    values = np.asarray(values)
    out = np.zeros_like(values)
    H, W = values.shape[-2:]
    ys = slice(max(dy, 0), H + min(dy, 0))
    xs = slice(max(dx, 0), W + min(dx, 0))
    ys_src = slice(max(-dy, 0), H + min(-dy, 0))
    xs_src = slice(max(-dx, 0), W + min(-dx, 0))
    out[..., ys, xs] = values[..., ys_src, xs_src]
    return out


def check_translation_equivariance(fn, x, shift, stride=1, padding=0):
    """Max abs deviation between fn(translate(f)) and translate(fn(f)).

    ``fn`` maps a tensor [N, C, H, W] to one on the stride subgroup; it
    subsamples by ``stride`` and zero-pads by ``padding``, which the caller
    states (a ``ConvLayer``'s own, or the stride of a max-pool).  Compared on
    the interior region unaffected by zero padding and by the shift itself.
    The shift must be a multiple of the stride so the output-side
    translation is well defined.
    """
    dy, dx = shift
    if dy % stride or dx % stride:
        raise ValueError(f"shift {shift} must be a multiple of stride {stride}")
    with ad.no_grad():
        out_base = fn(x).data
        out_shifted = fn(Tensor(translate(x.data, dy, dx))).data
    dyo, dxo = dy // stride, dx // stride
    target = translate(out_base, dyo, dxo)
    border = -(-padding // stride)  # ceil: outputs whose window touched padding
    Ho, Wo = out_base.shape[-2:]
    y0, y1 = border + max(dyo, 0), Ho + min(dyo, 0) - border
    x0, x1 = border + max(dxo, 0), Wo + min(dxo, 0) - border
    if y1 <= y0 or x1 <= x0:
        raise ValueError(f"no interior left for shift {shift} on output {Ho}x{Wo}")
    diff = out_shifted[..., y0:y1, x0:x1] - target[..., y0:y1, x0:x1]
    return float(np.abs(diff).max())
