"""Dynamic routing-by-agreement over convolutional capsule predictions.

Capsules are plain tensors [..., types, dim, H, W]: one vector per capsule
type and position. Deeper capsules are built by letting every shallow type
predict every deep type through a shared convolutional bank (predictions
[..., n_in, n_out, dim, H, W]), then iterating: softmax the routing logits
over deep types, combine predictions with the resulting coefficients,
squash, and add the prediction/output agreement back onto the logits.
Gradients flow through all iterations, including the coefficients'
dependence on the logits — the entropy loss needs that path. Equal routing
is one iteration of the same loop: softmax of the zero starting logits.

The coefficient rows are a distribution over deep types for each shallow
capsule and position; their argmax defines a parse forest, and their
Shannon entropy (in nats) measures how tree-like the connection pattern is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

ENTROPY_LOG_GUARD = 1e-12
SQUASH_NORM_EPSILON = 1e-8


@dataclass
class RoutingTrace:
    """Routing state, one list entry per iteration.

    coefficients[t] has shape [..., n_in, n_out, H, W]. entropy_mean[t] is
    the mean coefficient-row entropy in nats at iteration t (reporting only;
    the differentiable entropy is recomputed from coefficients[-1]).
    """

    coefficients: list = field(default_factory=list)
    entropy_mean: list = field(default_factory=list)

    @property
    def n_out(self):
        return self.coefficients[-1].shape[-3]


@dataclass
class ParseForest:
    """Argmax parent assignment per (shallow type, position)."""

    parent: np.ndarray  # [n_in, H, W] int
    strength: np.ndarray  # [n_in, H, W] float
    n_out: int


def squash(v, axis=-1):
    """Norm-bounding nonlinearity (n / (1 + n^2)) * v with n = ||v|| along axis.

    Output norm is n^2 / (1 + n^2) < 1; direction is preserved. The norm is
    epsilon-guarded so the map stays differentiable at the zero vector.
    """
    n = ad.l2_norm(v, axis=axis, epsilon=SQUASH_NORM_EPSILON, keepdims=True)
    factor = ad.div(n, ad.add_scalar(ad.mul(n, n), 1.0))
    return ad.mul(v, factor)


def predict(caps, filters, stride=1, padding=0):
    """Convolutional predictions of every deep type from every shallow type.

    ``caps`` is [..., n_in, dim_in, H, W]; ``filters`` is one bank per deep
    type, [n_out, dim_out, dim_in, kH, kW]. The same bank j is applied to
    each shallow type independently (weights are shared across shallow
    types). Returns predictions [..., n_in, n_out, dim_out, Ho, Wo].
    """
    if not isinstance(caps, Tensor):
        caps = Tensor(caps)
    if caps.ndim < 4:
        raise ValueError(f"capsule input needs [..., I, D, H, W], got {caps.shape}")
    if not isinstance(filters, Tensor):
        filters = Tensor(np.asarray(filters))
    if filters.ndim != 5:
        raise ValueError(
            f"filters must be [n_out, dim_out, dim_in, kH, kW], got {filters.shape}"
        )
    lead = caps.shape[:-4]
    I, D, H, W = caps.shape[-4:]
    J, Do, Di, kH, kW = filters.shape
    if Di != D:
        raise ValueError(
            f"capsule dim {D} does not match filter input dim {Di} "
            f"(filters {filters.shape})"
        )
    batch = int(np.prod(lead)) if lead else 1
    x = ad.reshape(caps, (batch * I, D, H, W))
    k = ad.reshape(filters, (J * Do, D, kH, kW))
    y = ad.correlate2d(x, k, stride, padding)
    Ho, Wo = y.shape[-2:]
    return ad.reshape(y, tuple(lead) + (I, J, Do, Ho, Wo))


def _entropy_stat(c):
    """Mean coefficient-row entropy in nats, plain float (no graph).

    Evaluated in wide precision whatever the routing dtype, so reported
    entropies are comparable at 1e-9 even for narrow-precision runs.
    """
    c = c.astype(np.float64, copy=False)
    h = -(c * np.log(c + ENTROPY_LOG_GUARD)).sum(axis=-3)
    return float(h.mean())


def _route(S, iters):
    """Route predictions S [..., n_in, n_out, dim, H, W] for ``iters`` rounds.

    Coefficients are the softmax of the logits over deep types. The logits
    start at zero, so the first round's coefficients are exactly 1/n_out.
    """
    if S.ndim < 5:
        raise ValueError(f"predictions need [..., in, out, dim, H, W], got {S.shape}")
    logits_shape = S.shape[:-3] + S.shape[-2:]  # drop the dim axis
    b = Tensor(np.zeros(logits_shape, dtype=S.dtype))
    trace = RoutingTrace()
    out = None
    for t in range(iters):
        c = ad.softmax(b, axis=-3)
        trace.coefficients.append(c)
        trace.entropy_mean.append(_entropy_stat(c.data))
        c_e = ad.reshape(c, c.shape[:-2] + (1,) + c.shape[-2:])
        f = ad.reduce_sum(ad.mul(c_e, S), axis=-5)
        out = squash(f, axis=-3)
        if t + 1 < iters:  # the last round's agreement would feed no softmax
            f_e = ad.reshape(out, out.shape[:-4] + (1,) + out.shape[-4:])
            agreement = ad.reduce_sum(ad.mul(S, f_e), axis=-3)
            b = ad.add(b, agreement)
    return out, trace


def dynamic_route(S, iters):
    """Full routing-by-agreement; returns deep capsules and the trace."""
    iters = int(iters)
    if iters < 1:
        raise ValueError(f"routing needs at least one iteration, got {iters}")
    return _route(S, iters)


def equal_route_traced(S):
    """Uniform-coefficient baseline: one round of routing, whose coefficients
    are 1/n_out; returns deep capsules and the single-iteration trace."""
    return _route(S, 1)


def routing_entropy(trace):
    """Mean entropy of the final-iteration coefficient rows, in nats.

    H_i(g) = -sum_j c * ln(c + 1e-12), averaged over every shallow type,
    position, and batch element. Returns a scalar Tensor so the entropy can
    be used as a differentiable loss term.
    """
    c = trace.coefficients[-1]
    h = ad.neg(ad.reduce_sum(ad.mul(c, ad.log(ad.add_scalar(c, ENTROPY_LOG_GUARD))), axis=-3))
    return ad.reduce_mean(h)


def extract_parse(trace, sample=None):
    """Argmax parent per (shallow type, position) from the final coefficients.

    Ties break toward the lowest deep-type index. For batched traces pass
    ``sample`` to select one element.
    """
    c = trace.coefficients[-1].data
    if c.ndim > 4:
        flat = c.reshape((-1,) + c.shape[-4:])
        if sample is None:
            if flat.shape[0] != 1:
                raise ValueError("batched trace: pass sample= to extract one parse")
            sample = 0
        c = flat[sample]
    parent = c.argmax(axis=-3)
    strength = np.take_along_axis(c, parent[:, None], axis=-3)[:, 0]
    return ParseForest(parent=parent, strength=strength, n_out=c.shape[-3])


def parse_to_dot(forest, in_labels=None, out_labels=None, name="parse_forest"):
    """Render a parse forest as a DOT digraph, one edge per (type, position).

    Node order is sorted by (type, row, col) so output is deterministic.
    """
    def in_name(i):
        return in_labels[i] if in_labels else f"in{i}"

    def out_name(j):
        return out_labels[j] if out_labels else f"out{j}"

    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    n_in = forest.parent.shape[0]
    H, W = forest.parent.shape[1:]
    for i in range(n_in):
        for y in range(H):
            for x in range(W):
                j = int(forest.parent[i, y, x])
                s = forest.strength[i, y, x]
                lines.append(
                    f'  "{in_name(i)}@({y},{x})" -> "{out_name(j)}@({y},{x})"'
                    f' [label="{s:.6f}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
