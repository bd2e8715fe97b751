"""Dynamic routing-by-agreement over convolutional capsule predictions.

Capsules are plain tensors [B, types, dim, H, W]: one vector per sample,
capsule type and position. Deeper capsules are built by letting every
shallow type predict every deep type through a shared convolutional bank
(predictions S [B, n_in, n_out, dim, H, W]), then iterating: softmax the
routing logits over deep types, combine predictions with the resulting
coefficients, squash, and add the prediction/output agreement back onto
the logits. Equal routing is one iteration of the same loop: softmax of
the zero starting logits, exactly 1/n_out.

The loop is one graph node over S. Its forward copies S once to
[B, n_out, H·W, n_in, dim], so that for each (sample, deep type,
position) the weighted sum over shallow types and the agreement with the
output are one batched matrix product each. The node's data is one flat
buffer holding the deep capsules and the last round's coefficients; the
two are returned as reshaped views of it, so the backward sweep reaches
the node once however many of them the loss uses. Its backward is written
by hand: it runs back through every round (softmax Jacobian, squash,
agreement) and assembles dL/dS from the per-round outer products in one
matrix product. Gradients flow through the coefficients' dependence on
the logits, the path the entropy loss needs.

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

    coefficients[t] has shape [B, n_in, n_out, H, W]; only the last is a
    graph node, earlier rounds' are constants.
    """

    coefficients: list = field(default_factory=list)

    @property
    def n_out(self):
        return self.coefficients[-1].shape[-3]

    def entropy_mean(self, t=-1):
        """Mean coefficient-row entropy in nats at iteration ``t``, a plain
        float for reporting (``routing_entropy`` is the differentiable one).

        Evaluated in wide precision whatever the routing dtype, so reported
        entropies are comparable at 1e-9 even for narrow-precision runs.
        """
        c = self.coefficients[t].data.astype(np.float64, copy=False)
        h = -(c * np.log(c + ENTROPY_LOG_GUARD)).sum(axis=-3)
        return float(h.mean())


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
    factor = ad.div(n, ad.add(ad.mul(n, n), 1.0))
    return ad.mul(v, factor)


def predict(caps, filters, stride):
    """Convolutional predictions of every deep type from every shallow type.

    ``caps`` is a Tensor [B, n_in, dim_in, H, W]; ``filters`` is a Tensor
    holding one bank per deep type, [n_out, dim_out, dim_in, kH, kW]. The
    same bank j is applied to each shallow type independently (weights are
    shared across shallow types). Returns predictions
    [B, n_in, n_out, dim_out, Ho, Wo].
    """
    if caps.ndim != 5:
        raise ValueError(f"capsule input needs [B, I, D, H, W], got {caps.shape}")
    if filters.ndim != 5:
        raise ValueError(
            f"filters must be [n_out, dim_out, dim_in, kH, kW], got {filters.shape}"
        )
    B, I, D, H, W = caps.shape
    J, Do, Di, kH, kW = filters.shape
    if Di != D:
        raise ValueError(
            f"capsule dim {D} does not match filter input dim {Di} "
            f"(filters {filters.shape})"
        )
    x = ad.reshape(caps, (B * I, D, H, W))
    k = ad.reshape(filters, (J * Do, D, kH, kW))
    y = ad.correlate2d(x, k, stride)
    Ho, Wo = y.shape[-2:]
    return ad.reshape(y, (B, I, J, Do, Ho, Wo))


def _route(S, iters):
    """Route predictions S [B, n_in, n_out, dim, H, W] for ``iters`` rounds
    as one graph node (see the module docstring); returns the deep capsules
    [B, n_out, dim, H, W] and the trace."""
    if S.ndim != 6:
        raise ValueError(f"predictions need [B, in, out, dim, H, W], got {S.shape}")
    B, I, J, D, H, W = S.shape
    P = H * W
    # one [n_in, dim] block per (sample, deep type, position), so the
    # weighted sum over shallow types and the agreement are batched matmuls
    s = np.ascontiguousarray(S.data.reshape(B, I, J, D, P).transpose(0, 2, 4, 1, 3))
    coeff_shape = (B, I, J, H, W)
    n_caps, n_coeff = B * J * D * P, B * I * J * P
    flat = np.empty(n_caps + n_coeff, dtype=S.dtype)

    saved = [] if ad._tracked((S,)) else None
    trace = RoutingTrace()
    b = np.zeros((B, J, P, I), dtype=S.dtype)
    for t in range(iters):
        last = t + 1 == iters
        if t:
            bc = b.transpose(0, 3, 1, 2).reshape(coeff_shape)
            ad._reject(~np.isfinite(bc), bc, "routing softmax requires finite inputs")
        c = ad._softmax(b, axis=1)
        f = np.matmul(c[..., None, :], s)  # [B, J, P, 1, D]
        n = np.sqrt(np.matmul(f, f.swapaxes(-1, -2)) + SQUASH_NORM_EPSILON**2)
        v = f * (n / (n * n + 1.0))
        if saved is not None:
            saved.append((c, f, n, v))
        c_out = flat[n_caps:] if last else np.empty(n_coeff, dtype=S.dtype)
        c_out.reshape(B, I, J, P)[...] = c.transpose(0, 3, 1, 2)
        c_out = c_out.reshape(coeff_shape)
        if not last:  # the last round's agreement would feed no softmax
            trace.coefficients.append(Tensor(c_out))
            b = b + np.matmul(s, v.swapaxes(-1, -2))[..., 0]
    flat[:n_caps].reshape(B, J, D, P)[...] = v[..., 0, :].swapaxes(-1, -2)

    def backward(g):
        gv = np.ascontiguousarray(g[:n_caps].reshape(B, J, D, P).swapaxes(-1, -2))[..., None, :]
        gc = g[n_caps:].reshape(B, I, J, P).transpose(0, 2, 3, 1)
        # dL/dS is a sum of 2 * iters - 1 outer products per block (one per
        # weighted sum, one per agreement); stack their factors for one matmul
        left = np.empty((B, J, P, I, 2 * iters - 1), dtype=s.dtype)
        right = np.empty((B, J, P, 2 * iters - 1, D), dtype=s.dtype)
        gb = None  # adjoint of the logits of round t + 1
        for t in reversed(range(iters)):
            c, f, n, v = saved[t]
            if t + 1 < iters:  # agreement: b_{t+1} = b_t + S v_t
                gv = np.matmul(gb[..., None, :], s)
                left[..., 2 * t + 1] = gb
                right[..., 2 * t + 1, :] = v[..., 0, :]
            # squash v = f k(n), k = n / (1 + n^2), n = sqrt(|f|^2 + eps^2)
            nn1 = n * n + 1.0
            dk_n = (1.0 - n * n) / (nn1 * nn1 * n)
            gf = gv * (n / nn1) + f * (np.matmul(gv, f.swapaxes(-1, -2)) * dk_n)
            left[..., 2 * t] = c
            right[..., 2 * t, :] = gf[..., 0, :]
            if t == 0:  # the first logits are constant zeros
                break
            gc_t = np.matmul(s, gf.swapaxes(-1, -2))[..., 0]
            if t + 1 == iters:
                gc_t += gc
            gl = c * (gc_t - (gc_t * c).sum(axis=1, keepdims=True))
            gb = gl if gb is None else gb + gl
        gs = np.matmul(left, right)
        return (gs.transpose(0, 3, 1, 4, 2).reshape(S.shape),)

    node = ad._node(flat, (S,), backward)

    def view(lo, hi, shape):
        def backward(g):
            full = np.zeros_like(flat)
            full[lo:hi] = g.reshape(-1)
            return (full,)

        return ad._node(flat[lo:hi].reshape(shape), (node,), backward)

    trace.coefficients.append(view(n_caps, flat.size, coeff_shape))
    return view(0, n_caps, (B, J, D, H, W)), trace


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
    h = ad.mul(ad.reduce_sum(ad.mul(c, ad.log(ad.add(c, ENTROPY_LOG_GUARD))), axis=-3), -1.0)
    return ad.reduce_mean(h)


def extract_parse(trace, sample):
    """Argmax parent per (shallow type, position) of one sample's final
    coefficients.

    Ties break toward the lowest deep-type index.
    """
    c = trace.coefficients[-1].data[sample]
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
