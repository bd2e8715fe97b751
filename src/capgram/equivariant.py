"""Convolutional layers on the 2-D translation group.

A feature field samples a function on translations of an H x W grid, one
scalar per channel. Correlation layers and two-step max-pooling (window
maximum over a coset, then subsampling onto the stride subgroup) come with
a test surface that measures translation equivariance on the interior
region unaffected by zero padding.

The definitions are group-general; only the translation instance is built.
A p4 (quarter-rotation) extension would add a group axis to the field and
rotate kernels in the correlation — the interfaces here leave that slot
open but do not implement it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class FeatureField:
    """Per-channel scalar field over grid translations.

    values has shape [..., channels, H, W]; a leading batch axis is allowed.
    """

    values: Tensor

    def __post_init__(self):
        if not isinstance(self.values, Tensor):
            self.values = Tensor(self.values)
        if self.values.ndim < 3:
            raise ValueError(f"field needs [..., C, H, W], got {self.values.shape}")
        if min(self.values.shape[-3:]) < 1:
            raise ValueError(f"extents must be positive, got {self.values.shape}")
        if not np.all(np.isfinite(self.values.data)):
            raise ValueError("field values must be finite")

    @property
    def channels(self):
        return self.values.shape[-3]

    @property
    def height(self):
        return self.values.shape[-2]

    @property
    def width(self):
        return self.values.shape[-1]


class ConvLayer:
    """Correlation with a kernel bank, optional per-channel bias, then an
    optional pointwise activation. The bias is constant over the grid, so it
    leaves translation equivariance intact."""

    def __init__(self, kernels, stride=1, padding=0, activation="none", bias=None):
        self.kernels = kernels if isinstance(kernels, Tensor) else Tensor(kernels)
        self.stride = int(stride)
        self.padding = int(padding)
        if activation not in ("relu", "none"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.bias = bias

    def __call__(self, field):
        out = ad.correlate2d(field.values, self.kernels, self.stride, self.padding)
        if self.bias is not None:
            out = ad.add(out, ad.reshape(self.bias, (self.bias.shape[0], 1, 1)))
        if self.activation == "relu":
            out = ad.relu(out)
        return FeatureField(out)


class MaxPoolLayer:
    """Window maximum over each position's coset, then stride subsampling."""

    padding = 0

    def __init__(self, window, stride):
        self.window = int(window)
        self.stride = int(stride)

    def __call__(self, field):
        return FeatureField(ad.max_pool_window(field.values, self.window, self.stride))


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


def translate_field(field, dy, dx):
    return FeatureField(Tensor(translate(field.values.data, dy, dx)))


def check_translation_equivariance(layer, field, shift):
    """Max abs deviation between layer(translate(f)) and translate(layer(f)).

    Compared on the interior region unaffected by zero padding and by the
    shift itself. The shift must be a multiple of the layer stride so the
    output-side translation is well defined.
    """
    dy, dx = shift
    stride = getattr(layer, "stride", 1)
    padding = getattr(layer, "padding", 0)
    if dy % stride or dx % stride:
        raise ValueError(f"shift {shift} must be a multiple of stride {stride}")
    with ad.no_grad():
        out_base = layer(field).values.data
        out_shifted = layer(translate_field(field, dy, dx)).values.data
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
