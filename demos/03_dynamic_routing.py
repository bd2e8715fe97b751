"""Routing-by-agreement, step by step on a scalar example.

Two shallow capsules both predict deep type 0 with value 1 and deep type 1
with value 0. Agreement concentrates the routing coefficients onto type 0
over iterations, and the coefficient-row entropy falls. Predictions and
routed capsules are plain tensors; equal routing is the first iteration of
the same loop.
"""

import numpy as np

from capgram import routing as rt
from capgram.autodiff import Tensor

S = np.zeros((1, 2, 2, 1, 1, 1))  # [batch, in, out, dim, H, W]
S[0, :, 0, 0, 0, 0] = 1.0
S_t = Tensor(S)

print("predictions S[i, j]:", S[0, :, :, 0, 0, 0].tolist())
routed, trace = rt.dynamic_route(S_t, iters=5)
print("\niter   c[i=0, j=0]   row entropy (nats)")
for t, c in enumerate(trace.coefficients):
    print(f"{t + 1:3d}    {c.data[0, 0, 0, 0, 0]:.5f}       {trace.entropy_mean(t):.5f}")
print("\ndeep capsule values:", routed.data[0, :, 0, 0, 0].round(5).tolist())
print("squash keeps norms below 1:", float(np.abs(routed.data).max()) < 1.0)

print("\n== uniform (equal) routing is one averaged step ==")
equal, _ = rt.equal_route_traced(S_t)
one_iter, _ = rt.dynamic_route(S_t, 1)
print("equal_route_traced == dynamic_route(S, 1):",
      np.array_equal(equal.data, one_iter.data))

print("\n== the coefficient argmax is a parse forest ==")
rng = np.random.default_rng(0)
big = Tensor(rng.normal(size=(1, 3, 2, 4, 2, 2)))
_, trace = rt.dynamic_route(big, 3)
forest = rt.extract_parse(trace, 0)
print(rt.parse_to_dot(forest, in_labels=["partA", "partB", "partC"],
                      out_labels=["whole0", "whole1"]))
