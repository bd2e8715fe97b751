#!/usr/bin/env python3
"""capgram benchmark: training throughput, step latency, probe/inspect latency.

Run from the repository root; capgram is imported from ``src/``:

    python3 perfbench/run.py --workload capsnet-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload is one process running a closed loop: a single caller issues
the next public-API call of ``capgram.experiment`` only after the previous
one returned. ``--seed`` generates the dataset; the program sees only the
generated files. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics taken from spans recorded by ``tracer.py`` (see
perfbench/README.md for every metric). Output checks failing, or any call
raising, make the command exit with status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import CAPSNET_SITES, CNN_SITES, Tracer, summarise

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("capsnet-train", "cnn-train", "probe-inspect")

# Pinned, and recorded with each run, so that timings do not follow
# OpenBLAS's default thread count, which is the machine's core count.
BLAS_THREADS = 1

DATA = dict(n_train=512, n_val=256, n_probe=256)
# Variant and epochs per call of the train workloads. Capsnets train two
# epochs: after one, the 0.8caps val accuracy still swings between 0.5 and
# 0.98 with the dataset; after two it has settled at 0.5. The CNN reaches
# val accuracy 1.0 within one epoch, and after a second its loss (~5e-4)
# varies twofold between datasets. The probe-inspect checkpoints are
# capsnets and train two epochs too.
TRAIN = {"capsnet-train": ("0.8caps", 2), "cnn-train": ("cnn", 1)}
PROBE_EPOCHS = 2
# The experiment matrix's run seeds. --seed picks the dataset; final_loss and
# val_accuracy average over these model initialisations, so that one unlucky
# initialisation does not swing the quality guard from dataset to dataset.
RUN_SEEDS = (7, 8, 9)
PROBE_VARIANTS = ("0.8caps", "equalcaps")
INSPECTS_PER_CHECKPOINT = 8
SETUP_REPS = 3
MIN_OPS = 3
ENTROPY_TOL = 1e-9


def load_capgram():
    """Pin BLAS threads, then import numpy and capgram from ROOT/src."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import capgram  # noqa: F401

    origin = Path(capgram.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"capgram imported from {origin}, not from {src}")
    layers = ("autodiff", "dataset", "equivariant", "experiment", "grammar", "losses", "models", "optim", "routing")
    return {name: importlib.import_module(f"capgram.{name}") for name in layers}


def environment():
    import ctypes
    import glob

    import numpy as np

    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads_requested": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        try:
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            env["blas"] = lib.scipy_openblas_get_config64_().decode()
            env["blas_threads"] = lib.scipy_openblas_get_num_threads64_()
        except AttributeError:
            pass
    return env


# ---------------------------------------------------------------------------
# helpers


def metrics_digest(h, metrics_path):
    """Feed metrics.jsonl into h without its wall-clock column."""
    with open(metrics_path) as fh:
        for line in fh:
            record = json.loads(line)
            record.pop("wall_time_s", None)
            h.update(json.dumps(record, sort_keys=True).encode())


def parse_edges_per_layer(cg):
    """Expected DOT edges per routed layer: n_in * H * W of its input grid."""
    cfg = cg["models"].CapsNetConfig()
    extent = cfg.image_size
    for spec in cfg.stem:
        extent = (extent + 2 * spec.padding - spec.kernel) // spec.stride + 1
    extent = (extent - cfg.primary_kernel) // cfg.primary_stride + 1
    n_in = cfg.primary_types
    edges = []
    for spec in cfg.routed:
        extent = (extent - spec.kernel) // spec.stride + 1
        edges.append(n_in * extent * extent)
        n_in = spec.n_out
    return edges


class Checks:
    def __init__(self):
        self.problems = []

    def require(self, ok, message):
        if not ok and len(self.problems) < 20:
            self.problems.append(message)

    def entropies(self, variant, per_layer, n_outs, where):
        self.require(len(per_layer) == len(n_outs), f"{where}: {len(per_layer)} entropy layers")
        for layer, (h, n_out) in enumerate(zip(per_layer, n_outs)):
            if variant == "equalcaps":
                self.require(
                    abs(h - math.log(n_out)) <= ENTROPY_TOL,
                    f"{where}: equalcaps layer {layer} entropy {h!r} != ln {n_out}",
                )
            else:
                self.require(
                    -ENTROPY_TOL <= h <= math.log(n_out) + ENTROPY_TOL,
                    f"{where}: layer {layer} entropy {h!r} outside [0, ln {n_out}]",
                )

    def metrics_file(self, variant, path, n_outs, epochs):
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        self.require(len(records) == epochs, f"{path}: {len(records)} epochs")
        for r in records:
            for key in ("loss_total", "loss_margin", "loss_entropy"):
                self.require(math.isfinite(r[key]), f"{path}: epoch {r['epoch']} {key} = {r[key]}")
            self.entropies(variant, r["entropy_per_layer"], n_outs, f"{path} epoch {r['epoch']}")
        return records[-1]


class StepClock:
    """One timestamp per optimiser step: the untraced run's only instrumentation."""

    def __init__(self, adam_cls):
        self.stamps = []
        self.on_step = None
        original = adam_cls.step

        def step(opt):
            original(opt)
            self.stamps.append(time.perf_counter())
            if self.on_step is not None:
                self.on_step(len(self.stamps))

        adam_cls.step = step


# ---------------------------------------------------------------------------
# workloads


class TrainWorkload:
    """ex.train on one variant, f32, batch 32, a fixed number of epochs per call."""

    def __init__(self, cg, work, seed, variant, epochs, checks):
        self.cg, self.work, self.seed, self.checks = cg, work, seed, checks
        self.variant, self.epochs = variant, epochs
        ex = cg["experiment"]
        self.n_outs = [] if variant == "cnn" else [s.n_out for s in cg["models"].CapsNetConfig().routed]
        self.data_dir = None
        self.digests = {}
        self.finals = {}
        self.steps_per_epoch = -(-DATA["n_train"] // ex.variant_config(variant, "", "").batch_size)

    def setup(self, root):
        ds, ex = self.cg["dataset"], self.cg["experiment"]
        data_dir = root / "data"
        ds.generate_dataset(ds.DatasetConfig(seed=self.seed, **DATA), out_dir=data_dir)
        for run_seed in RUN_SEEDS:
            ex.build_model(ex.variant_config(self.variant, data_dir, root, seed=run_seed))
        self.data_dir = data_dir

    def op(self, i, clock, tracer):
        ex = self.cg["experiment"]
        run_seed = RUN_SEEDS[i % len(RUN_SEEDS)]
        # a fresh directory per call, as each run of the experiment matrix has;
        # rewriting the previous call's checkpoints would time the file
        # system's wait on their write-back instead of capgram
        out = self.work / f"call{i}"
        cfg = ex.variant_config(self.variant, self.data_dir, out, seed=run_seed, epochs=self.epochs)
        clock.stamps.clear()
        if tracer is not None:
            tracer.op = f"call{i}.step0"
            clock.on_step = lambda k: setattr(tracer, "op", f"call{i}.step{k}")
        start = time.perf_counter()
        ex.train(cfg, log=lambda msg: None)
        wall = time.perf_counter() - start
        clock.on_step = None
        stamps = list(clock.stamps)
        self.checks.require(
            len(stamps) == self.ops_per_call(), f"train call {i}: {len(stamps)} optimiser steps"
        )
        last = self.checks.metrics_file(self.variant, out / "metrics.jsonl", self.n_outs, self.epochs)
        h = hashlib.sha256()
        metrics_digest(h, out / "metrics.jsonl")
        h.update((out / "final.ckpt").read_bytes())
        digest = h.hexdigest()
        first = self.digests.setdefault(run_seed, digest)
        self.checks.require(digest == first, f"run seed {run_seed}: outputs differ between calls")
        self.finals.setdefault(run_seed, last)
        # gaps within an epoch only: the one across an epoch boundary holds
        # the val pass and checkpoint writes
        k = self.steps_per_epoch
        gaps = [b - a for e in range(0, len(stamps), k) for a, b in zip(stamps[e : e + k], stamps[e + 1 : e + k])]
        return dict(wall=wall, images=self.epochs * DATA["n_train"], images_s=wall, lat=gaps)

    def ops_per_call(self):
        return self.epochs * self.steps_per_epoch

    def quality(self):
        losses = [self.finals[s]["loss_total"] for s in RUN_SEEDS]
        accs = [self.finals[s]["val_accuracy"] for s in RUN_SEEDS]
        return statistics.fmean(losses), statistics.fmean(accs)

    def output_digest(self):
        h = hashlib.sha256()
        for s in RUN_SEEDS:
            h.update(self.digests[s].encode())
        return h.hexdigest()

    names = dict(
        images="train_samples_per_s: training images per second over whole ex.train calls",
        latency="step_ms: gap between consecutive Adam.step returns",
        op="train call",
    )


class ProbeInspectWorkload:
    """ex.evaluate + ex.probe, then per-sample ex.inspect, on two checkpoints."""

    def __init__(self, cg, seed, checks):
        self.cg, self.seed, self.checks = cg, seed, checks
        self.n_outs = [s.n_out for s in cg["models"].CapsNetConfig().routed]
        self.edges = parse_edges_per_layer(cg)
        self.n_val_faces = round(DATA["n_val"] * cg["dataset"].DatasetConfig().face_fraction)
        self.data_dir = None
        self.ckpts = {}
        self.finals = {}
        self.accuracy = {}
        self.round_digest = None
        self.setup_digest = None
        self.indices = sorted(random.Random(seed).sample(range(DATA["n_val"]), INSPECTS_PER_CHECKPOINT))

    def setup(self, root):
        ds, ex = self.cg["dataset"], self.cg["experiment"]
        data_dir = root / "data"
        ds.generate_dataset(ds.DatasetConfig(seed=self.seed, **DATA), out_dir=data_dir)
        h = hashlib.sha256()
        for variant in PROBE_VARIANTS:
            out = root / variant
            cfg = ex.variant_config(variant, data_dir, out, seed=RUN_SEEDS[0], epochs=PROBE_EPOCHS)
            ex.train(cfg, log=lambda msg: None)
            self.finals[variant] = self.checks.metrics_file(variant, out / "metrics.jsonl", self.n_outs, PROBE_EPOCHS)
            self.ckpts[variant] = (cfg, out / "final.ckpt")
            metrics_digest(h, out / "metrics.jsonl")
            h.update((out / "final.ckpt").read_bytes())
        self.data_dir = data_dir
        digest = h.hexdigest()
        self.setup_digest = self.setup_digest or digest
        self.checks.require(digest == self.setup_digest, f"set-up {root.name}: outputs differ from the first")

    def op(self, i, clock, tracer):
        ex = self.cg["experiment"]
        h = hashlib.sha256()
        eval_s, images, latencies = 0.0, 0, []
        round_start = time.perf_counter()
        for variant in PROBE_VARIANTS:
            cfg, ckpt = self.ckpts[variant]
            if tracer is not None:
                tracer.op = f"round{i}.eval"
            start = time.perf_counter()
            ev = ex.evaluate(cfg, ckpt, split="val")
            report = ex.probe(cfg, ckpt)
            eval_s += time.perf_counter() - start
            meta = report.metadata
            images += ev["n_samples"] + meta["n_intact"] + meta["n_swapped"]
            self.checks.require(
                meta["n_intact"] == self.n_val_faces,
                f"{variant}: probe n_intact {meta['n_intact']} != {self.n_val_faces} val faces",
            )
            self.checks.entropies(variant, ev["entropy_per_layer"], self.n_outs, f"evaluate {variant}")
            self.accuracy[variant] = ev["accuracy"]
            h.update(json.dumps([ev, report.mean_activation_intact, report.mean_activation_swapped]).encode())
            for index in self.indices:
                if tracer is not None:
                    tracer.op = f"round{i}.inspect.{variant}.{index}"
                start = time.perf_counter()
                dots, table = ex.inspect(cfg, ckpt, index)
                latencies.append(time.perf_counter() - start)
                graphs = dots.split("digraph ")[1:]
                self.checks.require(
                    [g.count(" -> ") for g in graphs] == self.edges,
                    f"inspect {variant} sample {index}: edges {[g.count(' -> ') for g in graphs]} != {self.edges}",
                )
                h.update(dots.encode() + table.encode())
        digest = h.hexdigest()
        self.round_digest = self.round_digest or digest
        self.checks.require(digest == self.round_digest, f"round {i}: outputs differ from round 0")
        wall = time.perf_counter() - round_start
        return dict(wall=wall, images=images, images_s=eval_s, lat=latencies)

    def ops_per_call(self):
        return 1

    def quality(self):
        losses = [self.finals[v]["loss_total"] for v in PROBE_VARIANTS]
        return statistics.fmean(losses), statistics.fmean(self.accuracy[v] for v in PROBE_VARIANTS)

    def output_digest(self):
        return hashlib.sha256((self.setup_digest + self.round_digest).encode()).hexdigest()

    names = dict(
        images="eval_images_per_s: images through ex.evaluate + ex.probe per second",
        latency="inspect_ms: one ex.inspect call (dataset and checkpoint reload included)",
        op="probe round",
    )


def make_workload(name, cg, work, seed, checks):
    if name in TRAIN:
        return TrainWorkload(cg, work, seed, *TRAIN[name], checks)
    return ProbeInspectWorkload(cg, seed, checks)


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def per_layer_metrics(cg, tracer, setup_tracer, n_ops, n_setups, op_wall_s, overhead):
    spans = summarise(tracer.spans)
    counts = tracer.counts

    def incl(name):
        return spans[name][1] * 1e3 / n_ops if name in spans else 0.0

    def self_ms(name):
        return spans[name][2] * 1e3 / n_ops if name in spans else 0.0

    m = {}
    corr_s = 0.0
    for site in CAPSNET_SITES + CNN_SITES:
        base = f"autodiff.correlate2d.{site}"
        m[f"{base}.fwd_ms"] = incl(base)
        m[f"{base}.bwd_ms"] = incl(base + ".bwd")
        corr_s += (m[f"{base}.fwd_ms"] + m[f"{base}.bwd_ms"]) * n_ops / 1e3
    macs = counts["autodiff.correlate2d.fwd_macs"] + counts["autodiff.correlate2d.bwd_macs"]
    m["autodiff.correlate2d.macs"] = macs / n_ops
    m["autodiff.correlate2d.gflops"] = 2 * macs / corr_s / 1e9 if corr_s else 0.0
    calls = counts["autodiff.correlate2d.calls"]
    m["autodiff.correlate2d.gemm_share"] = counts["autodiff.correlate2d.gemm_calls"] / calls if calls else 0.0
    m["autodiff.max_pool_window.fwd_ms"] = incl("autodiff.max_pool_window")
    m["autodiff.max_pool_window.bwd_ms"] = incl("autodiff.max_pool_window.bwd")
    m["autodiff.backward.sweep_ms"] = incl("autodiff.backward")
    m["autodiff.backward.self_ms"] = self_ms("autodiff.backward")
    m["autodiff.graph_nodes"] = counts["autodiff.graph_nodes"] / n_ops
    m["routing.predict.self_ms"] = self_ms("routing.predict")
    for layer in range(len(cg["models"].CapsNetConfig().routed)):
        base = f"routing.dynamic_route.L{layer}"
        m[f"{base}.fwd_ms"] = incl(base)
        m[f"{base}.bwd_ms"] = incl(base + ".bwd")
    m["routing.equal_route_traced.fwd_ms"] = sum(
        incl(name) for name in spans if name.startswith("routing.equal_route_traced.L") and not name.endswith(".bwd")
    )
    m["routing.extract_parse_ms"] = incl("routing.extract_parse")
    m["routing.parse_to_dot_ms"] = incl("routing.parse_to_dot")
    for fn in ("margin_loss", "entropy_loss"):
        m[f"losses.{fn}_ms"] = incl(f"losses.{fn}")
        m[f"losses.{fn}.bwd_ms"] = incl(f"losses.{fn}.bwd")
    m["optim.Adam.step_ms"] = incl("optim.Adam.step")
    m["equivariant.ConvLayer.self_ms"] = self_ms("equivariant.ConvLayer")
    m["equivariant.ConvLayer.bwd_ms"] = incl("equivariant.ConvLayer.bwd")
    m["models.forward.self_ms"] = self_ms("models.forward")
    m["models.forward.bwd_ms"] = incl("models.forward.bwd")
    m["models.save_checkpoint_ms"] = incl("models.save_checkpoint")
    m["models.load_checkpoint_ms"] = incl("models.load_checkpoint")
    m["models.checkpoint_bytes"] = counts["models.checkpoint_bytes"]
    m["experiment.evaluate_model_ms"] = incl("experiment.evaluate_model")
    m["experiment.evaluate_model.share"] = (
        spans["experiment.evaluate_model"][1] / op_wall_s if "experiment.evaluate_model" in spans else 0.0
    )
    m["experiment.train.self_ms"] = self_ms("experiment.train")
    m["experiment.build_model_ms"] = incl("experiment.build_model")
    m["experiment.inspect.self_ms"] = self_ms("experiment.inspect")
    m["dataset.load_dataset.calls"] = counts["dataset.load_dataset.calls"] / n_ops
    m["dataset.load_dataset_ms"] = incl("dataset.load_dataset")
    m["dataset.images_float.calls"] = counts["dataset.images_float.calls"] / n_ops
    m["dataset.images_float_ms"] = incl("dataset.images_float")
    setup = summarise(setup_tracer.spans)
    m["dataset.generate_dataset_ms"] = setup["dataset.generate_dataset"][1] * 1e3 / n_setups
    m["grammar.sample_scene.calls"] = setup_tracer.counts["grammar.sample_scene.calls"] / n_setups
    m["grammar.sample_scene_ms"] = setup["grammar.sample_scene"][1] * 1e3 / n_setups
    m["trace.spans"] = len(tracer.spans) / n_ops
    m.update(overhead)
    return m


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(name, seed, seconds, trace):
    cg = load_capgram()
    env = environment()
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    checks = Checks()
    setup_tracer = Tracer(cg) if trace else None
    tracer = Tracer(cg) if trace else None
    try:
        wl = make_workload(name, cg, work, seed, checks)
        setup_s = []
        for rep in range(SETUP_REPS):
            if setup_tracer is not None:
                setup_tracer.op = f"setup{rep}"
                setup_tracer.install()
            start = time.perf_counter()
            try:
                wl.setup(work / f"setup{rep}")
            finally:
                setup_s.append(time.perf_counter() - start)
                if setup_tracer is not None:
                    setup_tracer.uninstall()
            if rep:
                shutil.rmtree(work / f"setup{rep - 1}")

        clock = StepClock(cg["optim"].Adam)
        wl.op(0, clock, None)  # warm-up: fills caches, checked but not timed
        # Keep the objects of the imports, the set-up and the harness out of
        # the collector's full passes. Otherwise every full pass scans them
        # all, an ex.inspect call that takes one (load_dataset's JSON parsing
        # triggers them) runs about twice as long, and the latency
        # percentiles jump between the two modes from run to run.
        gc.collect()
        gc.freeze()
        attempted = failed = 0
        plain, traced = [], []
        deadline = time.perf_counter() + seconds
        i = 1
        # at least MIN_OPS calls, so every run seed and, when tracing, both
        # the traced and the untraced side are measured
        while i <= MIN_OPS or time.perf_counter() < deadline:
            use_tracer = tracer is not None and i % 2 == 1
            if use_tracer:
                tracer.install()
            attempted += 1
            try:
                result = wl.op(i, clock, tracer if use_tracer else None)
            except Exception:  # one failed call is counted, the loop goes on
                failed += 1
                traceback.print_exc()
            else:
                (traced if use_tracer else plain).append(result)
            finally:
                if use_tracer:
                    tracer.uninstall()
            i += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        final_loss, val_acc = wl.quality()
    finally:
        spans_path = WORK / f"spans-{name}-seed{seed}.jsonl"
        if trace:
            tracer.write(spans_path)
            setup_tracer.write(spans_path.with_suffix(".setup.jsonl"))
        shutil.rmtree(work, ignore_errors=True)

    if not plain or (trace and not traced):
        print(f"perfbench: every call of {name} failed", file=sys.stderr)
        return 1

    def e2e(results):
        lat_ms = [x * 1e3 for r in results for x in r["lat"]]
        return {
            "images_per_s": statistics.median(r["images"] / r["images_s"] for r in results),
            "latency_ms.p50": statistics.median(lat_ms),
            "latency_ms.p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        }

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"output_digest {wl.output_digest()}")
    untraced = e2e(plain)
    n_lat = sum(len(r["lat"]) for r in plain)
    rows = [
        ("setup_s", statistics.median(setup_s), "s", f"median of {SETUP_REPS} set-ups"),
        ("images_per_s", untraced["images_per_s"], "1/s", f"{wl.names['images']}; median of {len(plain)} calls"),
        ("latency_ms.p50", untraced["latency_ms.p50"], "ms", f"{wl.names['latency']}; n={n_lat}"),
        ("latency_ms.p90", untraced["latency_ms.p90"], "ms", f"n={n_lat}, {n_lat - math.ceil(0.9 * n_lat)} beyond"),
        ("peak_rss_mb", rss_mb, "MB", "ru_maxrss of the process"),
        ("final_loss", final_loss, "loss", "mean total loss over the last epoch"),
        ("val_accuracy", val_acc, "share", "validation accuracy"),
    ]
    for metric, value, unit, note in rows:
        print(f"  {metric:16s} {value:14.6f} {unit:6s} {note}")
    print(f"  {'failed_share':16s} {failed / max(attempted, 1):14.6f} {'share':6s} {failed} of {attempted} calls")
    if n_lat < 100:
        print(f"  warning: only {n_lat} latency samples; p90 has fewer than ten beyond it")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")

    if trace:
        traced_e2e = e2e(traced)
        overhead = {
            "trace.overhead.latency_ms.p50": traced_e2e["latency_ms.p50"] - untraced["latency_ms.p50"],
            "trace.overhead.images_per_s": traced_e2e["images_per_s"] - untraced["images_per_s"],
        }
        n_ops = len(traced) * wl.ops_per_call()
        metrics = per_layer_metrics(
            cg, tracer, setup_tracer, n_ops, SETUP_REPS, sum(r["wall"] for r in traced), overhead
        )
        print(f"traced {wl.names['op']}s: {len(traced)}, per-layer values per {n_ops} ops; spans in {spans_path}")
        print(f"  {'span':44s} {'calls':>8s} {'total_ms':>11s} {'self_ms':>11s}")
        for span, (n, total, own) in sorted(summarise(tracer.spans).items()):
            print(f"  {span:44s} {n:8d} {total * 1e3:11.3f} {own * 1e3:11.3f}")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: value for name, value, _, _ in rows}
        units = {name: unit for name, _, unit, _ in rows}
    correct = not checks.problems and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


# (name, unit, better) of every per-layer metric; documented in README.md
PER_LAYER = [
    *[
        (f"autodiff.correlate2d.{site}.{part}_ms", "ms", "lower")
        for site in CAPSNET_SITES + CNN_SITES
        for part in ("fwd", "bwd")
    ],
    ("autodiff.correlate2d.macs", "count", "lower"),
    ("autodiff.correlate2d.gflops", "GFLOP/s", "higher"),
    ("autodiff.correlate2d.gemm_share", "share", "higher"),
    ("autodiff.max_pool_window.fwd_ms", "ms", "lower"),
    ("autodiff.max_pool_window.bwd_ms", "ms", "lower"),
    ("autodiff.backward.sweep_ms", "ms", "lower"),
    ("autodiff.backward.self_ms", "ms", "lower"),
    ("autodiff.graph_nodes", "count", "lower"),
    ("routing.predict.self_ms", "ms", "lower"),
    ("routing.dynamic_route.L0.fwd_ms", "ms", "lower"),
    ("routing.dynamic_route.L0.bwd_ms", "ms", "lower"),
    ("routing.dynamic_route.L1.fwd_ms", "ms", "lower"),
    ("routing.dynamic_route.L1.bwd_ms", "ms", "lower"),
    ("routing.equal_route_traced.fwd_ms", "ms", "lower"),
    ("routing.extract_parse_ms", "ms", "lower"),
    ("routing.parse_to_dot_ms", "ms", "lower"),
    ("losses.margin_loss_ms", "ms", "lower"),
    ("losses.margin_loss.bwd_ms", "ms", "lower"),
    ("losses.entropy_loss_ms", "ms", "lower"),
    ("losses.entropy_loss.bwd_ms", "ms", "lower"),
    ("optim.Adam.step_ms", "ms", "lower"),
    ("equivariant.ConvLayer.self_ms", "ms", "lower"),
    ("equivariant.ConvLayer.bwd_ms", "ms", "lower"),
    ("models.forward.self_ms", "ms", "lower"),
    ("models.forward.bwd_ms", "ms", "lower"),
    ("models.save_checkpoint_ms", "ms", "lower"),
    ("models.load_checkpoint_ms", "ms", "lower"),
    ("models.checkpoint_bytes", "bytes", "lower"),
    ("experiment.evaluate_model_ms", "ms", "lower"),
    ("experiment.evaluate_model.share", "share", "lower"),
    ("experiment.train.self_ms", "ms", "lower"),
    ("experiment.build_model_ms", "ms", "lower"),
    ("experiment.inspect.self_ms", "ms", "lower"),
    ("dataset.load_dataset.calls", "count", "lower"),
    ("dataset.load_dataset_ms", "ms", "lower"),
    ("dataset.images_float.calls", "count", "lower"),
    ("dataset.images_float_ms", "ms", "lower"),
    ("dataset.generate_dataset_ms", "ms", "lower"),
    ("grammar.sample_scene.calls", "count", "lower"),
    ("grammar.sample_scene_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead.latency_ms.p50", "ms", "lower"),
    ("trace.overhead.images_per_s", "1/s", "higher"),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    # every workload in its own process, one after another
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        print(f"perfbench: cannot import capgram from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
