"""Margin classification loss, routing-entropy loss, and their weighted sum.

The entropy term sums the mean coefficient-row entropies of every routing
layer; driving it down pushes each shallow capsule toward a single strong
parent. The two terms are mixed by one entropy weight w_ent, which the run
configuration sets per epoch.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import routing as rt
from .autodiff import Tensor

MARGIN_POS = 0.9
MARGIN_NEG = 0.1
MARGIN_LAMBDA = 0.5


def margin_loss(activations, target):
    """Two-sided hinge-squared loss on class activations, averaged over samples.

    activations is a [B, K] Tensor with values in [0, 1); target is a class
    index array of length B (a single index when B is 1). Per sample:
      sum_k [k == t] * max(0, m+ - a_k)^2 + lambda * [k != t] * max(0, a_k - m-)^2
    with m+ = MARGIN_POS, m- = MARGIN_NEG and lambda = MARGIN_LAMBDA.
    Hinge corners take subgradient 0.
    """
    if activations.ndim != 2:
        raise ValueError(f"activations must be [B, K], got {activations.shape}")
    B, K = activations.shape
    if K < 2:
        raise ValueError(f"need at least two classes, got {K}")
    t = np.atleast_1d(np.asarray(target, dtype=np.int64))
    if np.any(t < 0) or np.any(t >= K):
        raise ValueError(f"target {target} out of range for {K} classes")
    if t.size != B:
        raise ValueError(f"{t.size} targets for batch of {B}")
    onehot = np.zeros((B, K), dtype=activations.dtype)
    onehot[np.arange(B), t] = 1.0
    pos = ad.relu(ad.add(ad.mul(activations, -1.0), MARGIN_POS))
    neg = ad.relu(ad.add(activations, -MARGIN_NEG))
    per = ad.add(
        ad.mul(Tensor(onehot), ad.mul(pos, pos)),
        ad.mul(ad.mul(Tensor(1.0 - onehot), ad.mul(neg, neg)), MARGIN_LAMBDA),
    )
    return ad.reduce_mean(ad.reduce_sum(per, axis=1))


def entropy_loss(traces):
    """Sum of the mean routing entropies across routing layers (nats).

    Differentiable into the coefficients and through them into the logits.
    """
    if not traces:
        raise ValueError("entropy_loss needs at least one routing trace")
    total = rt.routing_entropy(traces[0])
    for trace in traces[1:]:
        total = ad.add(total, rt.routing_entropy(trace))
    return total


def combined_loss(margin, entropy, w_ent):
    """(1 - w_ent) * margin + w_ent * entropy."""
    return ad.add(ad.mul(margin, 1.0 - w_ent), ad.mul(entropy, w_ent))
