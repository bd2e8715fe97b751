#!/usr/bin/env python3
"""Time every spatial call site of the capsnet and the CNN, forward and backward.

Usage, from the repository root (capgram is imported from ``src/``):

    python3 scripts/bench_conv.py [--out BENCH_correlate2d.json]

The sites are the correlate2d calls one forward pass of the default CapsNet
(stem0, stem1, primary, predict0, predict1) and CNN (conv0..conv3, head)
makes at batch 32, and the CNN's max_pool_window calls (pool0, pool1),
recorded in call order with their shapes. Each site runs in float32 and
float64 on fixed random inputs: forward is one call on inputs that require
gradients, backward one call of the node's backward closure with a fixed
adjoint. Each time is the minimum of 15 calls after one warm-up call, with
BLAS pinned to one thread. Each site's memory is the tracemalloc peak, in
MB, of one more forward and one more backward call, made apart from the
timed ones so that tracing does not slow them; the forward's includes the
output node it returns. The run (per-site times
and peaks, totals per model and function, and the environment: numpy
version, BLAS configuration and
threads, nproc) is appended to the list of runs of the commit it ran on
(``git describe --always --dirty``) in the JSON at ``--out``; runs already
in that file are kept, so running the script on two commits in turn puts
their runs side by side.
"""

import argparse
import ctypes
import glob
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SITES = {  # (model, function): site names in call order
    ("capsnet", "correlate2d"): ("stem0", "stem1", "primary", "predict0", "predict1"),
    ("cnn", "correlate2d"): ("conv0", "conv1", "conv2", "conv3", "head"),
    ("cnn", "max_pool_window"): ("pool0", "pool1"),
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


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def find_sites(np, ad, models):
    """Record each correlate2d and max_pool_window call of one capsnet and
    one CNN forward pass."""
    correlate2d, max_pool_window = ad.correlate2d, ad.max_pool_window
    calls = []

    def conv_spy(a, kernels, stride=1, padding=0):
        calls.append(dict(
            function="correlate2d", input=tuple(a.shape), kernels=tuple(kernels.shape),
            stride=int(stride), padding=int(padding),
        ))
        return correlate2d(a, kernels, stride, padding)

    def pool_spy(a, window, stride):
        calls.append(dict(function="max_pool_window", input=tuple(a.shape), window=int(window), stride=int(stride)))
        return max_pool_window(a, window, stride)

    sites = []
    nets = {"capsnet": models.CapsNet(models.CapsNetConfig(), 0), "cnn": models.CNN(models.CNNConfig(), 0)}
    for model, net in nets.items():
        size = net.cfg.image_size
        calls.clear()
        ad.correlate2d, ad.max_pool_window = conv_spy, pool_spy
        try:
            with ad.no_grad():
                net.forward(np.zeros((BATCH, net.cfg.in_channels, size, size)))
        finally:
            ad.correlate2d, ad.max_pool_window = correlate2d, max_pool_window
        for fn in ("correlate2d", "max_pool_window"):
            names = SITES.get((model, fn), ())
            seen = [call for call in calls if call["function"] == fn]
            if len(seen) != len(names):
                raise RuntimeError(f"{model}: expected {len(names)} {fn} calls, saw {len(seen)}")
            sites.extend(dict(model=model, site=name, **call) for name, call in zip(names, seen))
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


def time_site(np, ad, site, dtype):
    rng = np.random.default_rng(0)
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
    totals = {dt: {f"{m}.{fn}": {"fwd_ms": 0.0, "bwd_ms": 0.0} for m, fn in SITES} for dt in DTYPES}
    print(f"{'site':9s} {'input':18s} {'kernels':16s} s p  " + "  ".join(f"{dt} fwd/bwd ms, peak MB" for dt in DTYPES))
    for site in sites:
        if site["function"] == "correlate2d":
            O, C, kH, kW = site["kernels"]
            N, _, H, W = site["input"]
            Ho = (H + 2 * site["padding"] - kH) // site["stride"] + 1
            Wo = (W + 2 * site["padding"] - kW) // site["stride"] + 1
            site["macs"] = N * O * Ho * Wo * C * kH * kW
            site["forward_path"] = "gemm" if site["macs"] > ad.GEMM_WORK_THRESHOLD else "loop"
        for dt in DTYPES:
            site[dt] = time_site(np, ad, site, dt)
            for key in ("fwd_ms", "bwd_ms"):
                totals[dt][f"{site['model']}.{site['function']}"][key] += site[dt][key]
        window = site.get("kernels", f"window {site.get('window')}")
        print(
            f"{site['site']:9s} {str(site['input']):18s} {str(window):16s} "
            f"{site['stride']} {site.get('padding', 0)}  "
            + "  ".join(
                f"{site[dt]['fwd_ms']:8.3f} {site[dt]['bwd_ms']:8.3f} {site[dt]['fwd_peak_mb']:6.2f} {site[dt]['bwd_peak_mb']:6.2f}"
                for dt in DTYPES
            ),
            flush=True,
        )
    out = Path(args.out)
    result = json.loads(out.read_text()) if out.exists() else {"benchmark": "correlate2d", "runs": {}}
    result["runs"].setdefault(commit(), []).append(
        {"batch": BATCH, "reps": REPS, "statistic": "min", "environment": environment(np), "sites": sites, "totals": totals}
    )
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
