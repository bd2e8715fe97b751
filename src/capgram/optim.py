"""Adaptive moment estimation for the parameter tensors of a model."""

from __future__ import annotations

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        """One update from the accumulated gradients; missing grads are skipped."""
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            mhat = m / bc1
            vhat = v / bc2
            p.data -= self.lr * mhat / (np.sqrt(vhat) + EPS)

    def zero_grad(self):
        for p in self.params:
            p.grad = None
