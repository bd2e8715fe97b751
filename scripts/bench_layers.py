#!/usr/bin/env python3
"""Time every conv, pool and routing call site of the capsnet and the CNN.

Usage, from the repository root (capgram is imported from ``src/``):

    python3 scripts/bench_layers.py [--out-dir .]

The sites are the calls one forward pass of the default CapsNet and CNN
makes at batch 32, recorded in call order with their shapes: correlate2d
(capsnet stem0, stem1, primary, predict0, predict1; CNN conv0..conv3,
head), the CNN's max_pool_window (pool0, pool1) and the capsnet's
dynamic_route (L0, L1, with their iteration count). Each site runs in
float32 and float64 on fixed random inputs that require gradients. Each
time is the minimum of 15 calls after one warm-up call, with BLAS pinned
to one thread.

- A conv or pool site's forward is one call, its backward one call of the
  node's backward closure with a fixed adjoint. Its memory is the
  tracemalloc peak, in MB, of one more forward and one more backward call,
  made apart from the timed ones so that tracing does not slow them; the
  forward's includes the output node it returns.
- A routed layer's forward is one dynamic_route call; its forward +
  backward adds the loss the regularised variants take through routing (a
  fixed projection of the capsules plus the routing entropy) and one
  backward sweep.

One run appends an entry for the conv and pool sites to
BENCH_correlate2d.json and one for the routed layers to BENCH_routing.json,
both in ``--out-dir``. Each entry holds the per-site times, totals per
model and function, and the environment (numpy version, BLAS configuration
and threads, nproc), and goes to the list of runs of the commit it ran on
(``git describe --always --dirty``); runs already in those files are kept,
so running the script on two commits in turn puts their runs side by side.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
SITES = {  # (model, function): site names in call order
    ("capsnet", "correlate2d"): ("stem0", "stem1", "primary", "predict0", "predict1"),
    ("capsnet", "dynamic_route"): ("L0", "L1"),
    ("cnn", "correlate2d"): ("conv0", "conv1", "conv2", "conv3", "head"),
    ("cnn", "max_pool_window"): ("pool0", "pool1"),
}
ROUTED = "capsnet.dynamic_route"
DTYPES = ("float32", "float64")
BATCH = 32
REPS = 15
BLAS_THREADS = 1


def environment(np):
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                env["blas_threads"] = getter()
                break
    return env


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def find_sites(np, ad, rt, models):
    """Record each correlate2d, max_pool_window and dynamic_route call of one
    capsnet and one CNN forward pass, named by ``SITES``."""

    def conv(a, kernels, stride=1, padding=0):
        O, C, kH, kW = kernels.shape
        N, _, H, W = a.shape
        macs = N * O * ((H + 2 * padding - kH) // stride + 1) * ((W + 2 * padding - kW) // stride + 1) * C * kH * kW
        return dict(
            input=tuple(a.shape), kernels=tuple(kernels.shape), stride=int(stride), padding=int(padding),
            macs=macs, forward_path="gemm" if macs > ad.GEMM_WORK_THRESHOLD else "loop",
        )

    describe = {
        "correlate2d": (ad, conv),
        "max_pool_window": (ad, lambda a, window, stride: dict(input=tuple(a.shape), window=int(window), stride=int(stride))),
        "dynamic_route": (rt, lambda S, iters: dict(predictions=tuple(S.shape), iters=int(iters))),
    }
    sites = []
    nets = {"capsnet": models.CapsNet(models.CapsNetConfig(), 0), "cnn": models.CNN(models.CNNConfig(), 0)}
    for model, net in nets.items():
        size = net.cfg.image_size
        with contextlib.ExitStack() as stack, ad.no_grad():
            calls = {
                fn: stack.enter_context(mock.patch.object(module, fn, wraps=getattr(module, fn)))
                for fn, (module, _) in describe.items()
            }
            net.forward(np.zeros((BATCH, net.cfg.in_channels, size, size)))
        for fn, (_, record) in describe.items():
            names, seen = SITES.get((model, fn), ()), calls[fn].call_args_list
            if len(seen) != len(names):
                raise RuntimeError(f"{model}: expected {len(names)} {fn} calls, saw {len(seen)}")
            sites.extend(dict(model=model, site=name, function=fn, **record(*c.args, **c.kwargs)) for name, c in zip(names, seen))
    return sites


def min_ms(fn):
    fn()
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def time_site(np, ad, rt, site, dtype):
    rng = np.random.default_rng(0)
    if site["function"] == "dynamic_route":
        S = ad.Tensor(rng.standard_normal(site["predictions"]).astype(dtype), requires_grad=True)
        iters = site["iters"]
        caps, _ = rt.dynamic_route(S, iters)
        proj = ad.Tensor(rng.standard_normal(caps.shape).astype(dtype))

        def forward_backward():
            S.zero_grad()
            caps, trace = rt.dynamic_route(S, iters)
            ad.add(ad.reduce_sum(ad.mul(caps, proj)), rt.routing_entropy(trace)).backward()

        return {"fwd_ms": min_ms(lambda: rt.dynamic_route(S, iters)), "fwd_bwd_ms": min_ms(forward_backward)}
    x = ad.Tensor(rng.standard_normal(site["input"]).astype(dtype), requires_grad=True)
    if site["function"] == "correlate2d":
        w = ad.Tensor(rng.standard_normal(site["kernels"]).astype(dtype), requires_grad=True)
        args = (x, w, site["stride"], site["padding"])
    else:
        args = (x, site["window"], site["stride"])
    fn = getattr(ad, site["function"])
    out = fn(*args)
    g = rng.standard_normal(out.shape).astype(dtype)
    return {
        "fwd_ms": min_ms(lambda: fn(*args)),
        "bwd_ms": min_ms(lambda: out._backward(g)),
        "fwd_peak_mb": peak_mb(lambda: fn(*args)),
        "bwd_peak_mb": peak_mb(lambda: out._backward(g)),
    }


def append_run(path, benchmark, run):
    result = json.loads(path.read_text()) if path.exists() else {"benchmark": benchmark, "runs": {}}
    result["runs"].setdefault(commit(), []).append(run)
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", default=str(ROOT))
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from capgram import autodiff as ad
    from capgram import models
    from capgram import routing as rt

    sites = find_sites(np, ad, rt, models)
    totals = {dt: {f"{m}.{fn}": {} for m, fn in SITES} for dt in DTYPES}
    print(f"{'model':7s} {'site':9s} {'input':24s}  per dtype: fwd bwd ms, fwd bwd peak MB; routed: fwd fwd+bwd ms")
    for site in sites:
        for dt in DTYPES:
            site[dt] = time_site(np, ad, rt, site, dt)
            total = totals[dt][f"{site['model']}.{site['function']}"]
            for key, ms in site[dt].items():
                if key.endswith("_ms"):
                    total[key] = total.get(key, 0.0) + ms
        shape = site.get("input", site.get("predictions"))
        print(
            f"{site['model']:7s} {site['site']:9s} {str(shape):24s}"
            + "".join(f"  {dt}" + "".join(f" {v:8.3f}" for v in site[dt].values()) for dt in DTYPES),
            flush=True,
        )
    run = {"batch": BATCH, "reps": REPS, "statistic": "min", "environment": environment(np)}
    out_dir = Path(args.out_dir)
    append_run(out_dir / "BENCH_correlate2d.json", "correlate2d", {
        **run,
        "sites": [site for site in sites if site["function"] != "dynamic_route"],
        "totals": {dt: {k: v for k, v in by_site.items() if k != ROUTED} for dt, by_site in totals.items()},
    })
    append_run(out_dir / "BENCH_routing.json", "routing", {
        **run,
        "layers": [
            dict(layer=site["site"], predictions=site["predictions"], iters=site["iters"], **{dt: site[dt] for dt in DTYPES})
            for site in sites if site["function"] == "dynamic_route"
        ],
        "totals": {dt: by_site[ROUTED] for dt, by_site in totals.items()},
    })


if __name__ == "__main__":
    main()
