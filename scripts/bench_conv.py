#!/usr/bin/env python3
"""Time every correlate2d call site of the capsnet and the CNN, forward and backward.

Usage, from the repository root (capgram is imported from ``src/``):

    python3 scripts/bench_conv.py [--out BENCH_correlate2d.json]

The sites are the correlate2d calls one forward pass of the default CapsNet
(stem0, stem1, primary, predict0, predict1) and CNN (conv0..conv3, head)
makes at batch 32, recorded in call order with their shapes. Each site runs
in float32 and float64 on fixed random inputs: forward is one correlate2d
call on inputs that require gradients, backward one call of the node's
backward closure with a fixed adjoint. Each time is the minimum of 15 calls
after one warm-up call, with BLAS pinned to one thread. The JSON written to
``--out`` holds the per-site times, per-model totals and the environment
(numpy version, BLAS configuration and threads, nproc).
"""

import argparse
import ctypes
import glob
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SITES = {
    "capsnet": ("stem0", "stem1", "primary", "predict0", "predict1"),
    "cnn": ("conv0", "conv1", "conv2", "conv3", "head"),
}
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


def find_sites(np, ad, models):
    """Record each correlate2d call of one capsnet and one CNN forward pass."""
    original = ad.correlate2d
    calls = []

    def spy(a, kernels, stride=1, padding=0):
        calls.append((tuple(a.shape), tuple(kernels.shape), int(stride), int(padding)))
        return original(a, kernels, stride, padding)

    sites = []
    for model, build in (("capsnet", models.build_capsnet), ("cnn", models.build_cnn)):
        net = build(seed=0)
        size = net.cfg.image_size
        calls.clear()
        ad.correlate2d = spy
        try:
            with ad.no_grad():
                net.forward(np.zeros((BATCH, net.cfg.in_channels, size, size)))
        finally:
            ad.correlate2d = original
        if len(calls) != len(SITES[model]):
            raise RuntimeError(f"{model}: expected {len(SITES[model])} correlate2d calls, saw {len(calls)}")
        for name, (x_shape, w_shape, stride, padding) in zip(SITES[model], calls):
            sites.append(dict(model=model, site=name, input=x_shape, kernels=w_shape, stride=stride, padding=padding))
    return sites


def min_ms(fn):
    fn()
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def time_site(np, ad, site, dtype):
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.standard_normal(site["input"]).astype(dtype), requires_grad=True)
    w = ad.Tensor(rng.standard_normal(site["kernels"]).astype(dtype), requires_grad=True)
    args = (x, w, site["stride"], site["padding"])
    out = ad.correlate2d(*args)
    g = rng.standard_normal(out.shape).astype(dtype)
    return {"fwd_ms": min_ms(lambda: ad.correlate2d(*args)), "bwd_ms": min_ms(lambda: out._backward(g))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_correlate2d.json"))
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from capgram import autodiff as ad
    from capgram import models

    sites = find_sites(np, ad, models)
    totals = {dt: {m: {"fwd_ms": 0.0, "bwd_ms": 0.0} for m in SITES} for dt in DTYPES}
    print(f"{'site':9s} {'input':18s} {'kernels':16s} s p  " + "  ".join(f"{dt} fwd/bwd ms" for dt in DTYPES))
    for site in sites:
        O, C, kH, kW = site["kernels"]
        N, _, H, W = site["input"]
        Ho = (H + 2 * site["padding"] - kH) // site["stride"] + 1
        Wo = (W + 2 * site["padding"] - kW) // site["stride"] + 1
        site["macs"] = N * O * Ho * Wo * C * kH * kW
        site["forward_path"] = "gemm" if site["macs"] > ad.GEMM_WORK_THRESHOLD else "reference"
        for dt in DTYPES:
            site[dt] = time_site(np, ad, site, dt)
            for key in ("fwd_ms", "bwd_ms"):
                totals[dt][site["model"]][key] += site[dt][key]
        print(
            f"{site['site']:9s} {str(site['input']):18s} {str(site['kernels']):16s} "
            f"{site['stride']} {site['padding']}  "
            + "  ".join(f"{site[dt]['fwd_ms']:8.3f} {site[dt]['bwd_ms']:8.3f}" for dt in DTYPES),
            flush=True,
        )
    result = {
        "benchmark": "correlate2d",
        "batch": BATCH,
        "reps": REPS,
        "statistic": "min",
        "environment": environment(np),
        "sites": sites,
        "totals": totals,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
