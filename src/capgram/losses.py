"""Margin classification loss, routing-entropy loss, and their weighted sum.

The entropy term sums the mean coefficient-row entropies of every routing
layer; driving it down pushes each shallow capsule toward a single strong
parent. The entropy weight follows a linear schedule over training; a
schedule whose two ends are equal holds it fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import routing as rt
from .autodiff import Tensor

MARGIN_POS = 0.9
MARGIN_NEG = 0.1
MARGIN_LAMBDA = 0.5


@dataclass(frozen=True)
class LossWeights:
    w_cls: float
    w_ent: float

    def __post_init__(self):
        if self.w_cls < 0 or self.w_ent < 0:
            raise ValueError(f"loss weights must be non-negative: {self}")


@dataclass(frozen=True)
class LossSchedule:
    """Per-epoch weighting of the classification/entropy mix.

    w_ent ramps linearly from w_ent_start at the first epoch to w_ent_end at
    the last, and w_cls = 1 - w_ent; equal ends hold the weight fixed.
    """

    w_ent_start: float = 0.0
    w_ent_end: float = 0.0
    total_epochs: int = 1

    def __post_init__(self):
        if not (0.0 <= self.w_ent_start <= 1.0 and 0.0 <= self.w_ent_end <= 1.0):
            raise ValueError(f"entropy weights must lie in [0, 1]: {self}")
        if self.w_ent_start > self.w_ent_end:
            raise ValueError(f"schedule must be non-decreasing: {self}")
        if self.total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1: {self}")


def schedule_weights(epoch, schedule):
    """Loss weights for one epoch; epochs are 0-based and must be in range."""
    epoch = int(epoch)
    if epoch < 0 or epoch >= schedule.total_epochs:
        raise ValueError(
            f"epoch {epoch} out of range for {schedule.total_epochs} epochs"
        )
    if schedule.total_epochs == 1:
        w_ent = schedule.w_ent_end
    else:
        span = schedule.w_ent_end - schedule.w_ent_start
        w_ent = schedule.w_ent_start + span * epoch / (schedule.total_epochs - 1)
    return LossWeights(1.0 - w_ent, w_ent)


def margin_loss(
    activations,
    target,
    m_plus=MARGIN_POS,
    m_minus=MARGIN_NEG,
    lambda_neg=MARGIN_LAMBDA,
):
    """Two-sided hinge-squared loss on class activations.

    activations is [K] or [B, K] with values in [0, 1); target is a class
    index or an index array. Per sample:
      sum_k [k == t] * max(0, m+ - a_k)^2 + lambda * [k != t] * max(0, a_k - m-)^2
    Batched input returns the mean over samples. Hinge corners take
    subgradient 0.
    """
    if not isinstance(activations, Tensor):
        activations = Tensor(np.asarray(activations))
    batched = activations.ndim == 2
    if not batched and activations.ndim != 1:
        raise ValueError(f"activations must be [K] or [B, K], got {activations.shape}")
    K = activations.shape[-1]
    if K < 2:
        raise ValueError(f"need at least two classes, got {K}")
    t = np.atleast_1d(np.asarray(target, dtype=np.int64))
    if np.any(t < 0) or np.any(t >= K):
        raise ValueError(f"target {target} out of range for {K} classes")
    B = activations.shape[0] if batched else 1
    if t.size != B:
        raise ValueError(f"{t.size} targets for batch of {B}")
    onehot = np.zeros((B, K), dtype=activations.dtype)
    onehot[np.arange(B), t] = 1.0
    if not batched:
        onehot = onehot[0]
    pos = ad.relu(ad.add_scalar(ad.neg(activations), float(m_plus)))
    neg = ad.relu(ad.add_scalar(activations, -float(m_minus)))
    per = ad.add(
        ad.mul(Tensor(onehot), ad.mul(pos, pos)),
        ad.scale(ad.mul(Tensor(1.0 - onehot), ad.mul(neg, neg)), float(lambda_neg)),
    )
    if batched:
        return ad.reduce_mean(ad.reduce_sum(per, axis=1))
    return ad.reduce_sum(per)


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


def combined_loss(margin, entropy, weights):
    """w_cls * margin + w_ent * entropy."""
    return ad.add(ad.scale(margin, weights.w_cls), ad.scale(entropy, weights.w_ent))
