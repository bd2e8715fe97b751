"""Span tracing of capgram's public functions, installed from outside.

Each traced function is replaced by a wrapper on the module or class that
defines it (``capgram.autodiff.correlate2d``, ``capgram.optim.Adam.step``,
...). Callers inside capgram look these names up at call time, so the
wrappers see every call without any change to the package.

A span is ``(id, name, start, end, parent id, op id)``; all spans of one
workload operation (a training step, a probe round, an inspect call) share
the op id. Backward closures are wrapped when ``autodiff._node`` builds a
graph node and are charged, as ``<owner>.bwd`` spans, to the innermost span
open at that moment, i.e. the layer call that created the node.

Spans stay in memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

CAPSNET_SITES = ("stem0", "stem1", "primary", "predict0", "predict1")
CNN_SITES = ("conv0", "conv1", "conv2", "conv3", "head")


def corr_work(x_shape, k_shape, stride, padding):
    """Multiply-accumulates of one correlate2d forward, as autodiff counts them."""
    N = x_shape[0] if len(x_shape) == 4 else 1
    H, W = x_shape[-2:]
    O, C, kH, kW = k_shape
    Ho = (H + 2 * padding - kH) // stride + 1
    Wo = (W + 2 * padding - kW) // stride + 1
    return N * O * Ho * Wo * C * kH * kW


class Tracer:
    def __init__(self, capgram_modules):
        self.m = capgram_modules
        self.spans = []
        self.counts = defaultdict(int)
        self.op = "none"
        self._stack = []  # (span id, name, extra) of open spans
        self._forwards = []  # per open models.forward: [sites, corr index, route index]
        self._next_id = 0
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def _run(self, name, fn, args, kwargs, extra=None):
        parent = self._stack[-1][0] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name, extra))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def _patch(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _simple(self, owner, attr, name, count=None):
        def make(fn):
            def traced(*args, **kwargs):
                if count:
                    self.counts[count] += 1
                return self._run(name, fn, args, kwargs)

            return traced

        self._patch(owner, attr, make)

    # -- installation -----------------------------------------------------

    def install(self):
        m = self.m
        ad, rt, md = m["autodiff"], m["routing"], m["models"]
        self._simple(ad, "max_pool_window", "autodiff.max_pool_window")
        self._simple(ad.Tensor, "backward", "autodiff.backward")
        self._patch(ad, "correlate2d", self._make_correlate2d)
        self._patch(ad, "_node", self._make_node)
        self._simple(rt, "predict", "routing.predict")
        self._patch(rt, "dynamic_route", lambda fn: self._make_routed(fn, "routing.dynamic_route"))
        self._patch(
            rt, "equal_route_traced", lambda fn: self._make_routed(fn, "routing.equal_route_traced")
        )
        self._simple(rt, "extract_parse", "routing.extract_parse")
        self._simple(rt, "parse_to_dot", "routing.parse_to_dot")
        self._simple(m["losses"], "margin_loss", "losses.margin_loss")
        self._simple(m["losses"], "entropy_loss", "losses.entropy_loss")
        self._simple(m["optim"].Adam, "step", "optim.Adam.step")
        self._simple(m["equivariant"].ConvLayer, "__call__", "equivariant.ConvLayer")
        self._patch(md.CapsNet, "forward", lambda fn: self._make_forward(fn, CAPSNET_SITES))
        self._patch(md.CNN, "forward", lambda fn: self._make_forward(fn, CNN_SITES))
        self._patch(md, "save_checkpoint", lambda fn: self._make_checkpoint(fn, "models.save_checkpoint"))
        self._patch(md, "load_checkpoint", lambda fn: self._make_checkpoint(fn, "models.load_checkpoint"))
        ex = m["experiment"]
        for fn in ("train", "evaluate_model", "evaluate", "probe", "inspect", "build_model"):
            self._simple(ex, fn, f"experiment.{fn}")
        ds = m["dataset"]
        self._simple(ds, "load_dataset", "dataset.load_dataset", count="dataset.load_dataset.calls")
        self._simple(ds, "generate_dataset", "dataset.generate_dataset")
        self._simple(
            ds.DatasetBundle, "images_float", "dataset.images_float", count="dataset.images_float.calls"
        )
        self._simple(m["grammar"], "sample_scene", "grammar.sample_scene", count="grammar.sample_scene.calls")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers with extra bookkeeping ----------------------------------

    def _make_forward(self, fn, sites):
        def traced(model, *args, **kwargs):
            self._forwards.append([sites, 0, 0])
            try:
                return self._run("models.forward", fn, (model,) + args, kwargs)
            finally:
                self._forwards.pop()

        return traced

    def _make_correlate2d(self, fn):
        def traced(a, kernels, stride=1, padding=0):
            site = "other"
            if self._forwards:
                ctx = self._forwards[-1]
                sites = ctx[0]
                site = sites[ctx[1]] if ctx[1] < len(sites) else f"extra{ctx[1]}"
                ctx[1] += 1
            work = corr_work(a.shape, kernels.shape, int(stride), int(padding))
            self.counts["autodiff.correlate2d.calls"] += 1
            self.counts["autodiff.correlate2d.fwd_macs"] += work
            if work > self.m["autodiff"].GEMM_WORK_THRESHOLD:
                self.counts["autodiff.correlate2d.gemm_calls"] += 1
            return self._run(
                f"autodiff.correlate2d.{site}", fn, (a, kernels, stride, padding), {}, extra=work
            )

        return traced

    def _make_routed(self, fn, name):
        def traced(*args, **kwargs):
            layer = 0
            if self._forwards:
                layer = self._forwards[-1][2]
                self._forwards[-1][2] += 1
            return self._run(f"{name}.L{layer}", fn, args, kwargs)

        return traced

    def _make_checkpoint(self, fn, name):
        def traced(*args, **kwargs):
            result = self._run(name, fn, args, kwargs)
            # save_checkpoint(model, path) and load_checkpoint(path)
            self.counts["models.checkpoint_bytes"] = os.path.getsize(args[-1])
            return result

        return traced

    def _make_node(self, fn):
        def traced(data, parents, backward):
            node = fn(data, parents, backward)
            if node._backward is not None:
                self.counts["autodiff.graph_nodes"] += 1
                owner, work = ("untraced", None)
                if self._stack:
                    owner, work = self._stack[-1][1], self._stack[-1][2]
                node._backward = self._wrap_backward(owner + ".bwd", node._backward, work)
            return node

        return traced

    def _wrap_backward(self, name, closure, work):
        def traced(g):
            if work is not None:
                # gradients with respect to the input and to the kernels
                self.counts["autodiff.correlate2d.bwd_macs"] += 2 * work
            return self._run(name, closure, (g,), {})

        return traced

    # -- output -----------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                record = {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                fh.write(json.dumps(record) + "\n")


def summarise(spans):
    """Per span name: call count, inclusive seconds, and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent, so this is the part of
    the interval no child covers.
    """
    child = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, _, _ in spans:
        row = out[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[sid]
    return out
