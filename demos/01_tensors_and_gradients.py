"""Tensors with reverse-mode gradients, and checking them by finite differences.

The engine is a small tape: every primitive records its parents and an
adjoint closure; backward walks the tape in reverse topological order and
frees each node's saved values once it has used them.
"""

import numpy as np

from capgram import autodiff as ad
from capgram.autodiff import Tensor

print("== a tiny computation graph ==")
x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
y = ad.reduce_sum(ad.mul(x, x))  # sum of squares
y.backward()
print("x          :", x.data)
print("sum(x*x)   :", y.item())
print("grad (=2x) :", x.grad)

print("\n== gradients through a convolution ==")
rng = np.random.default_rng(0)
image = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
kernel = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
feat = ad.relu(ad.correlate2d(image, kernel))
loss = ad.reduce_mean(ad.mul(feat, feat))
loss.backward()
print("loss:", round(loss.item(), 6))
print("image grad norm :", round(float(np.linalg.norm(image.grad)), 6))
print("kernel grad norm:", round(float(np.linalg.norm(kernel.grad)), 6))

print("\n== the finite-difference check ==")

# grad_check re-evaluates the function, so the projection must be frozen
proj = Tensor(np.random.default_rng(1).normal(size=(2, 4)))


def softmax_score(t):
    s = ad.softmax(ad.reshape(t, (2, 4)), axis=1)
    return ad.reduce_sum(ad.mul(s, proj))


err = ad.grad_check(softmax_score, Tensor(rng.normal(size=8)), step=1e-5)
print(f"max relative error analytic vs central differences: {err:.2e}")
assert err < 1e-4
print("gradients verified.")
