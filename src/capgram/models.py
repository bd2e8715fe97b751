"""Model assembly: capsule network and a plain CNN baseline.

The capsule network runs a small convolutional stem, forms primary capsules
by reshaping a strided correlation and squashing, then stacks routed
capsule layers until the class layer has spatial extent 1x1. The class
activation is the norm of the (spatially averaged) class capsule, which the
squash keeps below 1.

The CNN baseline matches depth/width, uses max-pooling, and scores classes
through a full-extent correlation head and a sigmoid.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import autodiff as ad
from . import routing as rt
from .autodiff import Tensor
from .config import ConfigError
from .equivariant import ConvLayer

CHECKPOINT_MAGIC = b"CGL1"
ROUTING_ITERS = 3


@dataclass(frozen=True)
class ConvSpec:
    channels: int
    kernel: int
    stride: int = 1
    padding: int = 0


@dataclass(frozen=True)
class PoolSpec:
    window: int
    stride: int


@dataclass(frozen=True)
class RoutedSpec:
    n_out: int
    dim: int
    kernel: int
    stride: int


@dataclass(frozen=True)
class CapsNetConfig:
    image_size: int = 32
    in_channels: int = 1
    stem: tuple = (ConvSpec(16, 3), ConvSpec(32, 3))
    primary_types: int = 8
    primary_dim: int = 8
    primary_kernel: int = 3
    primary_stride: int = 2
    routed: tuple = (RoutedSpec(8, 8, 3, 2), RoutedSpec(2, 16, 6, 1))
    routing_mode: str = "dynamic"  # dynamic | equal
    n_classes: int = 2


@dataclass(frozen=True)
class CNNConfig:
    image_size: int = 32
    in_channels: int = 1
    layers: tuple = (
        ConvSpec(16, 3),
        ConvSpec(32, 3),
        PoolSpec(2, 2),
        ConvSpec(64, 3),
        PoolSpec(2, 2),
        ConvSpec(64, 3),
    )
    n_classes: int = 2


@dataclass
class ModelOutput:
    class_activations: Tensor  # [B, n_classes], in [0, 1)
    traces: list = dc_field(default_factory=list)


def _conv_out(extent, kernel, stride, padding):
    return (extent + 2 * padding - kernel) // stride + 1


class _Model:
    """Parameter registry shared by CapsNet and CNN.

    params is an insertion-ordered name -> Tensor dict; its order is the
    checkpoint order and the order the seeded PCG64 stream fills weights in.
    Forward passes look parameters up by name, so assigning a new dict with
    the same names rebinds the whole model.
    """

    def __init__(self, cfg, seed, dtype):
        self.cfg = cfg
        self.dtype = np.dtype(dtype)
        self.rng = np.random.default_rng(np.random.PCG64(seed))
        self.params = {}

    def _weight(self, name, shape):
        """He-uniform weights; fan-in is the input channels times the window."""
        bound = np.sqrt(6.0 / int(np.prod(shape[-3:])))
        values = self.rng.uniform(-bound, bound, size=shape).astype(self.dtype)
        self.params[name] = Tensor(values, requires_grad=True)

    def _conv(self, prefix, out_channels, in_channels, kernel):
        self._weight(f"{prefix}.kernels", (out_channels, in_channels, kernel, kernel))
        self.params[f"{prefix}.bias"] = Tensor(
            np.zeros(out_channels, dtype=self.dtype), requires_grad=True
        )

    def _conv_stack(self, prefix, specs, extent, channels):
        """Register the convs of a ConvSpec/PoolSpec stack (each conv is
        followed by relu); returns its output extent and channel count."""
        for n, spec in enumerate(specs):
            if isinstance(spec, PoolSpec):
                extent = (extent - spec.window) // spec.stride + 1
            else:
                self._conv(f"{prefix}.{n}", spec.channels, channels, spec.kernel)
                extent = _conv_out(extent, spec.kernel, spec.stride, spec.padding)
                channels = spec.channels
            if extent < 1:
                raise ValueError(f"{prefix}.{n} shrinks extent to {extent}")
        return extent, channels

    def _conv_layer(self, prefix, x, stride=1, padding=0, activation="none"):
        p = self.params
        layer = ConvLayer(
            p[f"{prefix}.kernels"], stride, padding, activation, bias=p[f"{prefix}.bias"]
        )
        return layer(x)

    def _run_stack(self, prefix, specs, x):
        for n, spec in enumerate(specs):
            if isinstance(spec, PoolSpec):
                x = ad.max_pool_window(x, spec.window, spec.stride)
            else:
                x = self._conv_layer(f"{prefix}.{n}", x, spec.stride, spec.padding, "relu")
        return x


class CapsNet(_Model):
    def __init__(self, cfg, seed, dtype=np.float64):
        super().__init__(cfg, seed, dtype)
        extent, ch = self._conv_stack("stem", cfg.stem, cfg.image_size, cfg.in_channels)
        # the bias keeps blank canvas regions from producing exactly-zero
        # capsules, whose routing rows would be stuck at uniform forever
        self._conv("primary", cfg.primary_types * cfg.primary_dim, ch, cfg.primary_kernel)
        extent = _conv_out(extent, cfg.primary_kernel, cfg.primary_stride, 0)
        if extent < 1:
            raise ValueError(f"primary capsule layer shrinks extent to {extent}")

        dim = cfg.primary_dim
        for n, spec in enumerate(cfg.routed):
            self._weight(
                f"routed.{n}.filters", (spec.n_out, spec.dim, dim, spec.kernel, spec.kernel)
            )
            extent = _conv_out(extent, spec.kernel, spec.stride, 0)
            if extent < 1:
                raise ValueError(
                    f"routed layer {n} shrinks extent to {extent} "
                    f"(kernel {spec.kernel}, stride {spec.stride})"
                )
            dim = spec.dim
        if cfg.routed[-1].n_out != cfg.n_classes:
            raise ValueError(
                f"final routed layer has {cfg.routed[-1].n_out} types, "
                f"expected n_classes={cfg.n_classes}"
            )
        if extent != 1:
            raise ValueError(
                f"class capsule layer must end at extent 1, got {extent}; "
                f"adjust kernels/strides"
            )

    def forward(self, batch):
        # Each activation is dropped once the next layer has consumed it, so
        # under no_grad only the layer in flight is alive; in training the
        # tape keeps what the backward needs anyway.
        cfg = self.cfg
        x = self._run_stack("stem", cfg.stem, _check_batch(batch, cfg, self.dtype))
        x = self._conv_layer("primary", x, cfg.primary_stride)
        B, _, Hp, Wp = x.shape
        caps = rt.squash(ad.reshape(x, (B, cfg.primary_types, cfg.primary_dim, Hp, Wp)), axis=-3)
        del x
        traces = []
        for n, spec in enumerate(cfg.routed):
            S = rt.predict(caps, self.params[f"routed.{n}.filters"], spec.stride)
            del caps
            if cfg.routing_mode == "equal":
                caps, trace = rt.equal_route_traced(S)
            else:
                caps, trace = rt.dynamic_route(S, ROUTING_ITERS)
            del S
            traces.append(trace)
        # class capsules are [B, K, D, 1, 1]: spatial mean is trivial by
        # construction, then the vector norm is the class activation
        agg = ad.reduce_mean(caps, axis=(-2, -1))
        acts = ad.l2_norm(agg, axis=-1, epsilon=1e-8)
        return ModelOutput(class_activations=acts, traces=traces)


class CNN(_Model):
    def __init__(self, cfg, seed, dtype=np.float64):
        super().__init__(cfg, seed, dtype)
        extent, ch = self._conv_stack("layers", cfg.layers, cfg.image_size, cfg.in_channels)
        self._conv("head", cfg.n_classes, ch, extent)

    def forward(self, batch):
        x = self._run_stack("layers", self.cfg.layers, _check_batch(batch, self.cfg, self.dtype))
        scores = self._conv_layer("head", x)
        scores = ad.reshape(scores, (scores.shape[0], self.cfg.n_classes))
        return ModelOutput(class_activations=ad.sigmoid(scores))


def _check_batch(batch, cfg, dtype):
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=dtype))
    if x.ndim != 4:
        raise ValueError(f"batch must be [B, C, H, W], got {x.shape}")
    if x.shape[1:] != (cfg.in_channels, cfg.image_size, cfg.image_size):
        raise ValueError(
            f"batch extent {x.shape[1:]} does not match configured "
            f"({cfg.in_channels}, {cfg.image_size}, {cfg.image_size})"
        )
    lo, hi = float(x.data.min()), float(x.data.max())
    # written so that a NaN pixel (NaN min or max) fails it too
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError(f"pixels must be finite and normalized to [0, 1], got [{lo}, {hi}]")
    return x


# ---------------------------------------------------------------------------
# checkpoints: magic "CGL1", then per parameter
#   u64 name length | name utf-8 | u64 rank | u64 extents... | f64 values
# all little-endian; values are stored wide regardless of training precision


def save_checkpoint(model, path):
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, t in model.params.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<Q", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<Q", t.data.ndim))
            for extent in t.data.shape:
                fh.write(struct.pack("<Q", extent))
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint into an ordered name -> float64 array mapping.

    A file that does not follow the format raises ConfigError naming it.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    pos = 4
    out = {}

    def take(n):
        nonlocal pos
        if n > len(blob) - pos:
            raise ConfigError(f"{path}: truncated checkpoint at byte {pos}")
        chunk = blob[pos : pos + n]
        pos += n
        return chunk

    def u64():
        return struct.unpack("<Q", take(8))[0]

    while pos < len(blob):
        raw = take(u64())
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: parameter name {raw!r} is not UTF-8") from exc
        if name in out:
            raise ConfigError(f"{path}: parameter {name!r} appears twice")
        rank = u64()
        shape = tuple(u64() for _ in range(rank))
        data = take(8 * math.prod(shape))  # Python ints: (2**32, 2**32) cannot wrap to 0
        try:
            values = np.frombuffer(data, dtype="<f8").reshape(shape)
        except ValueError as exc:  # a shape numpy cannot hold, such as (0, 2**63)
            raise ConfigError(f"{path}: parameter {name!r} cannot be read: {exc}") from exc
        out[name] = values.copy()
    return out


def load_state(model, state):
    """Load checkpoint arrays into a model, casting to its precision."""
    for name, t in model.params.items():
        if name not in state:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        arr = state[name]
        if arr.shape != t.data.shape:
            raise ValueError(
                f"checkpoint parameter {name!r} has shape {arr.shape}, "
                f"model expects {t.data.shape}"
            )
        # checked after the cast: a wide value can overflow a narrow model
        values = arr.astype(model.dtype)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"checkpoint parameter {name!r} holds non-finite values")
        t.data = values
    extra = set(state) - set(model.params)
    if extra:
        raise ValueError(f"checkpoint has unexpected parameters: {sorted(extra)}")
