"""Dense tensors with reverse-mode differentiation.

Wide precision (float64) is the default and is what the test suite pins its
tolerances to; narrow precision (float32) is available for training speed.
Primitives fix their floating-point evaluation order, so identical inputs
produce bit-identical outputs on a given platform.

``correlate2d`` cuts its input into windows as rows of a batch-major im2col
patch matrix [n, C·kH·kW, Ho·Wo] (Chellapilla et al., 2006), and both
spatial primitives add window gradients back one way, with its adjoint
col2im, into an input gradient the caller has zeroed.  ``correlate2d``'s
forward sums all patch-row products in one ordered reduction at or below
``GEMM_WORK_THRESHOLD`` and multiplies the flattened kernels into the
patches above; the backward always rebuilds the patches, contracts them
with the adjoint for the kernel gradient, and, unless the input is a
constant, adds ``kernelsᵀ @ g`` back into the input gradient with col2im.
Above the threshold both directions build the patch matrix for one block
of about ``PATCH_BLOCK`` elements' worth of samples at a time, so no
whole-batch patch matrix or patch gradient exists.  ``max_pool_window``
reads no patch matrix: block by block, it compares the strided view of
each window offset with the best so far and keeps each window's winning
offset as a small integer; its backward builds each block's window
gradients from those offsets and adds them back with col2im.

Primitives never write into an array they did not allocate in the same
call.  The one in-place writer is ``equivariant.ConvLayer``: it adds its
bias and applies its ReLU inside the output buffer ``correlate2d`` has just
allocated, which no node, view or caller holds yet, and its node takes over
the correlate2d node's backward closure, which reads the input and the
kernels but never the output.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

WIDE = np.float64
NARROW = np.float32

# correlate2d's forward reads the im2col patch matrix either way and picks
# its evaluation by work count.  Up to this many multiply-accumulates it
# takes the loop path: every product in one [K, N·O·P] array, summed over K
# in row order from +0, so each output cell is bit for bit what a scalar
# (c, u, v) loop gives for finite inputs, an order the loop-oracle tests pin
# exactly (all of their inputs are small); above it, one GEMM per sample.
# All three branches compute and return np.result_type(input, kernels).
# Backward always uses im2col and col2im, whatever the size.  It rebuilds the
# patches rather than keeping the forward's: the GEMM paths only ever hold
# one block of them (below), and keeping them would hold whole-batch
# matrices, 24.7 MB for the five capsnet sites per f32 step at batch 32,
# until the sweep reached each call.  Rebuilding them block by block costs
# 0.01-1.2 ms a call (the second stem conv's are the dearest), about 3 ms a
# f32 step (2-core Xeon, one BLAS thread).
GEMM_WORK_THRESHOLD = 1_000_000
# Patch elements per block of samples on the GEMM paths, and window
# elements per block in max-pooling (1 MiB in float32).
# Each sample's GEMM is the same BLAS call as over the whole batch, so the
# block size changes no output bit; it bounds the patches and patch
# gradients alive at once, which at batch 32 would otherwise reach 14.4 MB
# each at the second stem conv.  The whole-batch GEMMs (a 1×1 output, or
# one kernel-gradient contraction over the batch) keep one block: their
# patches are small.
PATCH_BLOCK = 1 << 18

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (forward evaluation only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A dense n-dimensional array with an optional gradient accumulator.

    Leaves are tensors created directly (parameters, inputs); interior nodes
    carry a closure that maps the incoming adjoint to per-parent adjoints.
    ``backward`` accumulates gradients additively into ``grad`` of every
    ``requires_grad`` leaf reachable from the loss and frees the graph it
    swept; backward calls on fresh graphs over the same leaves, without
    ``zero_grad``, keep accumulating.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(WIDE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Reverse-mode sweep from a scalar loss.

        Visits nodes in exact reverse topological order; fan-out adjoints
        are accumulated additively before a node is processed.  The sweep
        frees the graph behind it: once a node's closure has run, or the node
        turned out to get no adjoint, it drops its parents and its closure
        (and with them every value the forward saved for the backward), so a
        swept graph holds only the ``data`` of the nodes still bound.  A second
        sweep through a swept node, from the same loss or from a new graph
        built on a swept tensor, raises ``RuntimeError``.  Gradients keep
        accumulating across sweeps of fresh graphs over the same leaves.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and (p._backward is not None or p.requires_grad):
                    stack.append((p, False))

        adjoints = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = adjoints.pop(id(node), None)
            if node._backward is None:
                if g is not None and node.requires_grad:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            if g is not None:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if pg is None:
                        continue
                    if parent._backward is None and not parent.requires_grad:
                        continue
                    key = id(parent)
                    adjoints[key] = pg if key not in adjoints else adjoints[key] + pg
            node._parents = ()
            node._backward = _swept

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _swept(g):
    """Closure of a node a backward sweep has passed: its saved values are gone."""
    raise RuntimeError("backward reached a node an earlier sweep already used and freed")


def _as_tensor(x, like=None):
    """A non-tensor operand becomes a constant of ``like``'s dtype, so under
    NEP 50 ``mul(x, s)`` and ``add(x, s)`` with a Python scalar give the bits
    of ``x.data * s`` and ``x.data + s``."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else WIDE
    return Tensor(np.asarray(x, dtype=dtype))


def _tracked(parents):
    """Whether a node built on ``parents`` joins the graph (else it is a constant)."""
    return _grad_enabled and any(p.requires_grad or p._backward is not None for p in parents)


def _node(data, parents, backward):
    if _tracked(parents):
        return Tensor(data, _parents=tuple(parents), _backward=backward)
    return Tensor(data)


def _reject(bad, x, what):
    """Raise ``what`` if ``bad`` marks any entry of ``x``, naming the first."""
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{what}; value {x[idx]!r} at index {idx}")


def _unbroadcast(grad, shape):
    """Reduce an adjoint back to the operand shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _node(out, (a, b), backward)


def mul(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _node(out, (a, b), backward)


def div(a, b):
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    out = a.data / b.data

    def backward(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _node(out, (a, b), backward)


def relu(a):
    a = _as_tensor(a)
    mask = a.data > 0
    # fmax maps NaN to 0 like the mask does; its scalar loop keeps -0.0,
    # which adding +0.0 turns into +0.0 without touching any other value.
    zero = np.zeros((), a.data.dtype)
    out = np.fmax(a.data, zero)
    out += zero

    def backward(g):
        return (g * mask,)

    return _node(out, (a,), backward)


def sigmoid(a):
    a = _as_tensor(a)
    x = a.data
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        return (g * out * (1.0 - out),)

    return _node(out, (a,), backward)


def log(a):
    a = _as_tensor(a)
    _reject(~(a.data > 0), a.data, "log requires positive inputs")
    out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _node(out, (a,), backward)


# ---------------------------------------------------------------------------
# shape and reduction primitives


def _normalize_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def _spread(g, shape, axes, keepdims):
    """Adjoint of a reduction over ``axes``: ``g`` copied along them."""
    if not keepdims:
        g = g.reshape([1 if i in axes else n for i, n in enumerate(shape)])
    return np.broadcast_to(g, shape).copy()


def reduce_sum(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        return (_spread(g, a.data.shape, axes, keepdims),)

    return _node(out, (a,), backward)


def reduce_mean(a, axis=None, keepdims=False):
    a = _as_tensor(a)
    axes = _normalize_axes(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]
    out = a.data.sum(axis=axes, keepdims=keepdims) / count

    def backward(g):
        return (_spread(g / count, a.data.shape, axes, keepdims),)

    return _node(out, (a,), backward)


def reshape(a, shape):
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _node(out, (a,), backward)


# ---------------------------------------------------------------------------
# normalization primitives


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a, axis):
    """Numerically stable softmax along one axis.

    Subtracts the per-slice maximum before exponentiation; rejects
    non-finite inputs, naming the first offending index.
    """
    a = _as_tensor(a)
    _reject(~np.isfinite(a.data), a.data, "softmax requires finite inputs")
    out = _softmax(a.data, axis)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (a,), backward)


def l2_norm(a, axis, epsilon=1e-8, keepdims=False):
    """sqrt(sum of squares + epsilon^2) along ``axis``.

    Strictly positive for epsilon > 0, which keeps the gradient finite at
    the zero vector.
    """
    a = _as_tensor(a)
    eps = float(epsilon)
    sq = (a.data * a.data).sum(axis=axis, keepdims=True)
    normk = np.sqrt(sq + eps * eps)
    out = normk if keepdims else np.squeeze(normk, axis=axis)

    def backward(g):
        gk = g if keepdims else np.expand_dims(g, axis)
        return (gk * a.data / normk,)

    return _node(out, (a,), backward)


# ---------------------------------------------------------------------------
# spatial primitives


def max_pool_window(a, window, stride):
    """Window maximum over the trailing two axes, then stride subsampling.

    Each window's maximum is its first row-major maximum, the one ``argmax``
    picks: a later window offset wins only if it is strictly greater, or if
    it is NaN and the best so far is not.  The output holds the winner's
    own bits, so ±0 ties keep the first zero's sign.  The backward routes
    each adjoint to its window's winner, exact +0.0 to every other offset,
    and adds those window gradients back with col2im, so ties and
    overlapping windows get a deterministic gradient.
    """
    a = _as_tensor(a)
    if a.data.ndim < 2:
        raise ValueError(f"max_pool_window needs >= 2 dims, got {a.data.shape}")
    window = int(window)
    stride = int(stride)
    *lead, H, W = a.data.shape
    if window > H or window > W:
        raise ValueError(
            f"pool window {window} exceeds spatial extents ({H}, {W})"
        )
    Ho = (H - window) // stride + 1
    Wo = (W - window) // stride + 1
    n_lead = int(np.prod(lead)) if lead else 1
    x = a.data.reshape(n_lead, H, W)
    R = window * window
    block = max(1, PATCH_BLOCK // (R * Ho * Wo))  # samples per block
    # the [n, Ho, Wo] view of each window offset r = u·window + v
    views = [
        x[:, u : u + stride * Ho : stride, v : v + stride * Wo : stride]
        for u in range(window)
        for v in range(window)
    ]
    # Winners are picked bit for bit in same-width integer views times a 0/1
    # mask: where, copyto and putmask cost 20-40 times a contiguous compare.
    bits = np.dtype(f"i{x.itemsize}")
    out = np.empty((n_lead, Ho, Wo), dtype=x.dtype)
    # the backward keeps only each window's winning offset
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(R - 1))
    for n0 in range(0, n_lead, block):
        n = slice(n0, n0 + block)
        best, won = out[n], arg[n]
        best[...] = views[0][n]
        best_bits = best.view(bits)
        for r in range(1, R):
            cand = views[r][n]
            # r wins where it is greater, or NaN over a best that is not
            take = (best == best) > (cand <= best)
            best_bits ^= (cand.view(bits) ^ best_bits) * take
            np.maximum(won, np.multiply(take, r, dtype=won.dtype), out=won)
    out = out.reshape(tuple(lead) + (Ho, Wo))

    def backward(g):
        g = np.ascontiguousarray(g.reshape(n_lead, 1, Ho * Wo), dtype=x.dtype).view(bits)
        gx = np.zeros((n_lead, 1, H, W), dtype=x.dtype)
        offsets = np.arange(R, dtype=arg.dtype)[:, None]
        for n0 in range(0, n_lead, block):
            n = slice(n0, n0 + block)
            # each window's adjoint at its winning offset, +0.0 at the others
            hit = arg[n].reshape(-1, 1, Ho * Wo) == offsets
            gcols = np.multiply(g[n], hit, dtype=bits).view(x.dtype)
            _col2im(gcols, gx[n], window, window, stride, Ho, Wo)
        return (gx.reshape(a.data.shape),)

    return _node(out, (a,), backward)


def _im2col(xp, kH, kW, stride, Ho, Wo):
    """Batch-major patch matrix [N, C·kH·kW, Ho·Wo] of a padded input.

    Row ``c·kH·kW + u·kW + v`` of sample n holds channel c shifted by (u, v),
    the order of ``kernels.reshape(O, -1)``; each sample's block is
    contiguous, so per-sample GEMMs read it without a transposed copy.
    ``xp`` is the whole batch or one block of its samples.
    """
    N, C = xp.shape[:2]
    win = sliding_window_view(xp, (kH, kW), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3))
    return cols.reshape(N, C * kH * kW, Ho * Wo)


def _col2im(gcols, gxp, kH, kW, stride, Ho, Wo):
    """Adjoint of ``_im2col``: add patch gradients into ``gxp``, the
    gradient of the padded input (or of one block of its samples), which
    the caller has zeroed.

    Adds one [N, C, Ho, Wo] plane per kernel offset, or one [N, C, kH, kW]
    block per output position when those are fewer (a 1×1 output is a
    single block).  Each element receives its additions in that order,
    whichever samples ``gxp`` holds.
    """
    N, C = gxp.shape[:2]
    gc = gcols.reshape(N, C, kH, kW, Ho, Wo)
    if kH * kW <= Ho * Wo:
        for u in range(kH):
            for v in range(kW):
                gxp[:, :, u : u + stride * Ho : stride, v : v + stride * Wo : stride] += (
                    gc[:, :, u, v]
                )
    else:
        for y in range(Ho):
            for x in range(Wo):
                gxp[:, :, y * stride : y * stride + kH, x * stride : x * stride + kW] += (
                    gc[..., y, x]
                )


def correlate2d(a, kernels, stride=1, padding=0):
    """Cross-correlation of a batch of multi-channel images.

    ``a`` is [N, C, H, W]; ``kernels`` is [O, C, kH, kW].
    Zero padding; out-of-range input reads as 0.  Differentiable with
    respect to both arguments.
    """
    a = _as_tensor(a)
    kernels = _as_tensor(kernels, like=a)
    stride = int(stride)
    padding = int(padding)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if kernels.data.ndim != 4:
        raise ValueError(
            f"kernels must be [out, in, kH, kW], got shape {kernels.data.shape}"
        )
    if a.data.ndim != 4:
        raise ValueError(f"input must be [N, C, H, W], got shape {a.data.shape}")
    N, C, H, W = a.data.shape
    O, Ck, kH, kW = kernels.data.shape
    if Ck != C:
        raise ValueError(
            f"channel mismatch: input has {C} channels (shape {a.data.shape}), "
            f"kernels expect {Ck} (shape {kernels.data.shape})"
        )
    Hp, Wp = H + 2 * padding, W + 2 * padding
    if kH > Hp or kW > Wp:
        raise ValueError(
            f"kernel ({kH}, {kW}) exceeds padded input ({Hp}, {Wp}) "
            f"for input shape {a.data.shape}, padding {padding}"
        )
    Ho = (Hp - kH) // stride + 1
    Wo = (Wp - kW) // stride + 1
    if padding:
        xp = np.pad(a.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    else:
        xp = a.data
    w = kernels.data
    K, P = C * kH * kW, Ho * Wo
    w2 = w.reshape(O, K)
    block = max(1, PATCH_BLOCK // (K * P))  # samples per patch block
    if N * O * P * K <= GEMM_WORK_THRESHOLD:
        # All products in one C-ordered [K, M] array (M = N·O·P), row k =
        # c·kH·kW + u·kW + v, then one sum over k from +0: numpy adds the rows
        # of such an array in order, so each output cell gets the multiplies
        # and adds of a scalar (c, u, v) loop, bit for bit.  It would sum a
        # lone column pairwise, so M = 1 gets a zero column; multiplying into
        # the buffer keeps K outermost (a plain * of these views puts it
        # innermost, which sums pairwise too).
        pad = int(N * O * P == 1)
        prod = np.zeros((K, N, O, P + pad), dtype=np.result_type(w2, xp))
        cols = _im2col(xp, kH, kW, stride, Ho, Wo).transpose(1, 0, 2)
        np.multiply(cols[:, :, None, :], w2.T[:, None, :, None], out=prod[..., :P])
        out = prod.reshape(K, -1).sum(axis=0, initial=0).reshape(N, O, P + pad)[..., :P]
    elif P == 1:
        # With a 1×1 output the patches are one [N, K] matrix: one GEMM
        # instead of N matrix-vector products.
        out = _im2col(xp, kH, kW, stride, Ho, Wo).reshape(N, K) @ w2.T
    else:
        out = np.empty((N, O, P), dtype=np.result_type(w2, xp))
        for n0 in range(0, N, block):
            n = slice(n0, n0 + block)
            np.matmul(w2, _im2col(xp[n], kH, kW, stride, Ho, Wo), out=out[n])
    out = out.reshape(N, O, Ho, Wo)
    # a constant input (the image batch) gets no gradient: skip the GEMM and
    # col2im that would build one only for the sweep to drop it
    input_grad = a.requires_grad or a._backward is not None

    def backward(g):
        g3 = g.reshape(N, O, P)
        # Per-sample GEMMs read the patches as they are but leave N partial
        # [O, K] kernel gradients to sum; one GEMM over the batch first
        # copies the patches to [N·P, K] and g to [O, N·P].  Take whichever
        # moves fewer elements per sample.  Only the per-sample GEMMs, and
        # only with more than one output position, run block by block.
        per_sample = P * (K + O) > O * K
        step = block if per_sample and P > 1 else N
        # Row 0 carries the sum over earlier blocks and rows 1.. this block's
        # per-sample products: summing them over axis 0 adds the samples in
        # order onto that sum, the running sum one sum(axis=0) over all N
        # would make, bit for bit, without an [N, O, K] stack.
        gws = np.empty((step + 1, O, K), dtype=np.result_type(g3, xp)) if per_sample else None
        gxp = np.zeros((N, C, Hp, Wp), dtype=np.result_type(w2, g3)) if input_grad else None
        for n0 in range(0, N, step):
            n = slice(n0, n0 + step)
            cols = _im2col(xp[n], kH, kW, stride, Ho, Wo)
            if per_sample:
                rows = gws[: 1 + cols.shape[0]]
                np.matmul(g3[n], cols.transpose(0, 2, 1), out=rows[1:])
                gw = (rows if n0 else rows[1:]).sum(axis=0)
                rows[0] = gw
            else:
                gw = np.tensordot(g3, cols, axes=((0, 2), (0, 2)))
            if input_grad:
                gcols = g3[n].reshape(-1, O) @ w2 if P == 1 else np.matmul(w2.T, g3[n])
                _col2im(gcols, gxp[n], kH, kW, stride, Ho, Wo)
        if input_grad and padding:
            gxp = gxp[:, :, padding : padding + H, padding : padding + W]
        return (gxp, gw.reshape(w.shape))

    return _node(out, (a, kernels), backward)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(function, point, step=1e-5):
    """Compare analytic gradients against central finite differences.

    Returns the maximum over coordinates of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    ``function`` must map a Tensor to a scalar Tensor, deterministically.
    """
    base = np.array(point.data if isinstance(point, Tensor) else point, dtype=WIDE)
    step = float(step)
    x = Tensor(base.copy(), requires_grad=True)
    out = function(x)
    if out.data.size != 1:
        raise ValueError(f"function must return a scalar, got shape {out.data.shape}")
    out.backward()
    analytic = (
        np.zeros(base.size) if x.grad is None else x.grad.reshape(-1).astype(WIDE)
    )
    numeric = np.empty(base.size, dtype=WIDE)
    flat = base.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            xp = flat.copy()
            xp[i] += step
            fp = function(Tensor(xp.reshape(base.shape))).item()
            xm = flat.copy()
            xm[i] -= step
            fm = function(Tensor(xm.reshape(base.shape))).item()
            numeric[i] = (fp - fm) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
