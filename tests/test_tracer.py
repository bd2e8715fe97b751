"""The benchmark's span tracer and harness against the package they use.

``perfbench/tracer.py`` replaces capgram functions by attribute name, so a
renamed or removed function breaks ``perfbench/run.py --trace 1``. These
tests install the tracer on the capgram modules, run one forward and
backward pass, and check the spans and the restored attributes.
``perfbench/run.py`` reads model-config fields by name to derive the parse
it expects from ``inspect``; the last test checks that derivation against
a real forward pass.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from capgram import (
    autodiff, dataset, equivariant, experiment, grammar, losses, models, optim, routing
)
from capgram.autodiff import Tensor
from tests.test_models import MINI

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
MODULES = dict(
    autodiff=autodiff, dataset=dataset, equivariant=equivariant, experiment=experiment,
    grammar=grammar, losses=losses, models=models, optim=optim, routing=routing,
)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _load("perfbench_tracer", TRACER_PATH)


@pytest.mark.parametrize("mode", ["dynamic", "equal"])
def test_tracer_spans_one_capsnet_step(mode):
    patched = {
        (routing, "predict"): routing.predict,
        (routing, "dynamic_route"): routing.dynamic_route,
        (routing, "equal_route_traced"): routing.equal_route_traced,
        (autodiff, "correlate2d"): autodiff.correlate2d,
        (autodiff, "_node"): autodiff._node,
        (equivariant.ConvLayer, "__call__"): equivariant.ConvLayer.__call__,
        (models.CapsNet, "forward"): models.CapsNet.forward,
    }
    model = models.CapsNet(replace(MINI, routing_mode=mode), 0)
    tracer = _tracer_module().Tracer(MODULES)
    tracer.install()
    try:
        out = model.forward(Tensor(np.full((2, 1, 12, 12), 0.5)))
        autodiff.reduce_sum(out.class_activations).backward()
    finally:
        tracer.uninstall()
    for (owner, attr), original in patched.items():
        assert getattr(owner, attr) is original, attr

    spans = {sid: (name, parent) for sid, name, _, _, parent, _ in tracer.spans}
    (forward_id,) = [sid for sid, (name, _) in spans.items() if name == "models.forward"]
    route = "routing.dynamic_route" if mode == "dynamic" else "routing.equal_route_traced"
    routing_calls = sorted(
        (name, parent)
        for name, parent in spans.values()
        if name.startswith("routing.") and name.endswith(("L0", "L1"))
    )
    # one span per routed layer, directly under the forward: none nests another
    assert routing_calls == [(f"{route}.L0", forward_id), (f"{route}.L1", forward_id)]
    names = {name for name, _ in spans.values()}
    assert {"equivariant.ConvLayer", "routing.predict", "autodiff.backward"} <= names
    assert f"{route}.L0.bwd" in names
    assert tracer.counts["autodiff.correlate2d.calls"] == 4  # stem, primary, 2 predictions


def test_tracer_spans_one_cnn_step():
    model = models.CNN(models.CNNConfig(), 0, np.float32)
    optimizer = optim.Adam(model.params.values())
    tracer = _tracer_module().Tracer(MODULES)
    tracer.install()
    patched = list(tracer._saved)
    try:
        out = model.forward(Tensor(np.full((2, 1, 32, 32), 0.5, np.float32)))
        losses.margin_loss(out.class_activations, [0, 1]).backward()
        optimizer.step()
    finally:
        tracer.uninstall()
    assert (autodiff, "max_pool_window", autodiff.max_pool_window) in patched
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr

    spans = {sid: (name, parent) for sid, name, _, _, parent, _ in tracer.spans}
    (forward_id,) = [sid for sid, (name, _) in spans.items() if name == "models.forward"]
    pools = [parent for name, parent in spans.values() if name == "autodiff.max_pool_window"]
    assert pools == [forward_id, forward_id]  # the CNN's two pools, directly under the forward
    names = [name for name, _ in spans.values()]
    assert names.count("autodiff.max_pool_window.bwd") == 2
    assert {"losses.margin_loss", "autodiff.backward", "optim.Adam.step"} <= set(names)
    assert tracer.counts["autodiff.correlate2d.calls"] == 5  # four convs and the head


def test_run_parse_edges_match_inspect_parse(monkeypatch):
    # run.py imports its sibling as ``tracer``
    monkeypatch.setitem(sys.modules, "tracer", _tracer_module())
    run = _load("perfbench_run", PERFBENCH / "run.py")
    model = models.CapsNet(models.CapsNetConfig(), 0)
    with autodiff.no_grad():
        out = model.forward(Tensor(np.full((1, 1, 32, 32), 0.5)))
    edges = [routing.parse_to_dot(routing.extract_parse(t, 0)).count("->") for t in out.traces]
    assert run.parse_edges_per_layer(MODULES) == edges
