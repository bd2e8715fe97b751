#!/usr/bin/env python3
"""Time forward and forward + backward of both routed layers of the capsnet.

Usage, from the repository root (capgram is imported from ``src/``):

    python3 scripts/bench_routing.py [--out BENCH_routing.json]

The layers are the dynamic_route calls one forward pass of the default
CapsNet makes at batch 32, recorded with the shapes of their predictions S
and their iteration count. Each layer runs in float32 and float64 on fixed
random predictions that require gradients: forward is one dynamic_route
call; forward + backward adds the loss the regularised variants take
through routing (a fixed projection of the capsules plus the routing
entropy) and one backward sweep. Each time is the minimum of 15 calls after
one warm-up call, with BLAS pinned to one thread. The run, with its
environment, is appended to the list of runs of the commit it ran on
(``git describe --always --dirty``) in the JSON at ``--out``; runs already
in that file are kept, so running the script on two commits in turn puts
their runs side by side.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from bench_conv import commit, environment

ROOT = Path(__file__).resolve().parent.parent
DTYPES = ("float32", "float64")
BATCH = 32
REPS = 15
BLAS_THREADS = 1


def find_layers(np, ad, rt, models):
    """Record the predictions' shape and iteration count of each routed layer."""
    original = rt.dynamic_route
    calls = []

    def spy(S, iters):
        calls.append((tuple(S.shape), int(iters)))
        return original(S, iters)

    net = models.CapsNet(models.CapsNetConfig(), 0)
    size = net.cfg.image_size
    rt.dynamic_route = spy
    try:
        with ad.no_grad():
            net.forward(np.zeros((BATCH, net.cfg.in_channels, size, size)))
    finally:
        rt.dynamic_route = original
    return [dict(layer=f"L{n}", predictions=shape, iters=iters) for n, (shape, iters) in enumerate(calls)]


def min_ms(fn):
    fn()
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def time_layer(np, ad, rt, layer, dtype):
    rng = np.random.default_rng(0)
    S = ad.Tensor(rng.standard_normal(layer["predictions"]).astype(dtype), requires_grad=True)
    iters = layer["iters"]
    caps, _ = rt.dynamic_route(S, iters)
    proj = ad.Tensor(rng.standard_normal(caps.shape).astype(dtype))

    def forward_backward():
        S.zero_grad()
        caps, trace = rt.dynamic_route(S, iters)
        ad.add(ad.reduce_sum(ad.mul(caps, proj)), rt.routing_entropy(trace)).backward()

    return {
        "fwd_ms": min_ms(lambda: rt.dynamic_route(S, iters)),
        "fwd_bwd_ms": min_ms(forward_backward),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_routing.json"))
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from capgram import autodiff as ad
    from capgram import models
    from capgram import routing as rt

    layers = find_layers(np, ad, rt, models)
    totals = {dt: {"fwd_ms": 0.0, "fwd_bwd_ms": 0.0} for dt in DTYPES}
    print(f"{'layer':5s} {'predictions':24s} it  " + "  ".join(f"{dt} fwd/fwd+bwd ms" for dt in DTYPES))
    for layer in layers:
        for dt in DTYPES:
            layer[dt] = time_layer(np, ad, rt, layer, dt)
            for key in ("fwd_ms", "fwd_bwd_ms"):
                totals[dt][key] += layer[dt][key]
        print(
            f"{layer['layer']:5s} {str(layer['predictions']):24s} {layer['iters']:2d}  "
            + "  ".join(f"{layer[dt]['fwd_ms']:8.3f} {layer[dt]['fwd_bwd_ms']:8.3f}" for dt in DTYPES),
            flush=True,
        )
    out = Path(args.out)
    result = json.loads(out.read_text()) if out.exists() else {"benchmark": "routing", "runs": {}}
    result["runs"].setdefault(commit(), []).append(
        {"batch": BATCH, "reps": REPS, "statistic": "min", "environment": environment(np), "layers": layers, "totals": totals}
    )
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
