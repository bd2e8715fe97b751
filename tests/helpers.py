"""Shared test utilities: whole-model gradient checking."""

import numpy as np

from capgram import autodiff as ad
from capgram import losses as ls


def take_segment(a, start, stop):
    """Contiguous slice [start, stop) of the flattened tensor."""
    a = ad._as_tensor(a)
    start, stop = int(start), int(stop)
    if not (0 <= start <= stop <= a.data.size):
        raise ValueError(f"segment [{start}, {stop}) out of range for size {a.data.size}")
    out = a.data.reshape(-1)[start:stop].copy()

    def backward(g):
        gx = np.zeros(a.data.size, dtype=a.data.dtype)
        gx[start:stop] = g
        return (gx.reshape(a.data.shape),)

    return ad._node(out, (a,), backward)


def flat_parameters(model):
    return np.concatenate([t.data.ravel() for t in model.params.values()]).astype(np.float64)


def model_loss_fn(model, batch, targets):
    """Map a flat parameter vector to the training loss of a model, with
    the entropy weight at 0.4.

    Rebinding the parameters to graph-connected views of the vector makes
    the whole model differentiable with respect to one point, which is what
    ``grad_check`` expects.
    """
    originals = model.params

    def fn(x):
        params = {}
        off = 0
        for name, t in originals.items():
            params[name] = ad.reshape(take_segment(x, off, off + t.data.size), t.data.shape)
            off += t.data.size
        model.params = params
        try:
            out = model.forward(batch)
            margin = ls.margin_loss(out.class_activations, targets)
            if out.traces:
                entropy = ls.entropy_loss(out.traces)
                return ls.combined_loss(margin, entropy, 0.4)
            return margin
        finally:
            model.params = originals

    return fn
