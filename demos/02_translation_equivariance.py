"""Translation equivariance of correlation and two-step max-pooling.

Shifting the input then applying a layer matches applying the layer then
shifting the output (on the interior the padding never touched). Strided
layers are equivariant to shifts that are multiples of their stride.
Layers take and return plain tensors [N, channels, H, W].
"""

import numpy as np

from capgram import autodiff as ad
from capgram import equivariant as eq
from capgram.autodiff import Tensor

rng = np.random.default_rng(3)
x = Tensor(rng.normal(size=(1, 2, 12, 12)))

conv = eq.ConvLayer(Tensor(rng.normal(size=(4, 2, 3, 3))), stride=1, activation="relu")
conv_padded = eq.ConvLayer(Tensor(rng.normal(size=(4, 2, 3, 3))), stride=1, padding=1)
strided = eq.ConvLayer(Tensor(rng.normal(size=(4, 2, 3, 3))), stride=2)


def pool(t):
    return ad.max_pool_window(t, 2, 2)


# (name, map, shift, stride, padding)
cases = [
    ("conv stride 1, shift (2, 0)", conv, (2, 0), 1, 0),
    ("conv stride 1, shift (0, 3)", conv, (0, 3), 1, 0),
    ("padded conv,   shift (1, 1)", conv_padded, (1, 1), 1, 1),
    ("conv stride 2, shift (2, -2)", strided, (2, -2), 2, 0),
    ("max-pool s=2,  shift (2, 2)", pool, (2, 2), 2, 0),
]
print(f"{'case':34s} max abs deviation on interior")
for name, fn, shift, stride, padding in cases:
    dev = eq.check_translation_equivariance(fn, x, shift, stride, padding)
    print(f"{name:34s} {dev:.3e}")
    assert dev < 1e-10

print("\nA shift that is not a stride multiple is rejected:")
try:
    eq.check_translation_equivariance(strided, x, (1, 0), stride=2)
except ValueError as exc:
    print("  ValueError:", exc)
