"""Training, evaluation, the part-swap probe, and routing inspection.

A run is described by a RunConfig (parsed from a flat config file), trains
deterministically given its seed, and leaves behind per-epoch metrics
(JSON lines), one final checkpoint, and JSON reports. Wall-clock
time is recorded in its own metrics field and is the only value excluded
from the byte-identical reproducibility contract.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataset as ds
from . import losses as ls
from . import models as md
from . import routing as rt
from .autodiff import Tensor
from .config import ConfigError, typed
from .optim import Adam

EVAL_BATCH = 64


@dataclass(frozen=True)
class RunConfig:
    """One training run. The entropy weight ramps linearly from w_ent_start
    at the first epoch to w_ent_end at the last; equal ends hold it fixed."""

    dataset_dir: str
    out_dir: str
    seed: int = 7
    model_kind: str = "capsnet"  # capsnet | cnn
    routing_mode: str = "dynamic"  # dynamic | equal
    w_ent_start: float = 0.0
    w_ent_end: float = 0.0
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    precision: str = "narrow"  # narrow | wide

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"run.seed must be non-negative, got {self.seed}")
        if not 0.0 < self.lr < float("inf"):
            raise ConfigError(f"train.lr must be finite and positive, got {self.lr}")
        if self.model_kind not in ("capsnet", "cnn"):
            raise ConfigError(f"model.kind must be capsnet|cnn, got {self.model_kind!r}")
        if self.routing_mode not in ("dynamic", "equal"):
            raise ConfigError(f"model.routing must be dynamic|equal, got {self.routing_mode!r}")
        if self.precision not in ("narrow", "wide"):
            raise ConfigError(f"train.precision must be narrow|wide, got {self.precision!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("train.epochs and train.batch must be positive")
        if self.model_kind == "cnn" and self.w_ent_end > 0.0:
            raise ConfigError(
                f"loss.w_ent_end must be 0 for model.kind cnn (no routing entropy), "
                f"got {self.w_ent_end}"
            )
        if not 0.0 <= self.w_ent_start <= self.w_ent_end <= 1.0:
            raise ConfigError(
                f"loss: need 0 <= w_ent_start <= w_ent_end <= 1, "
                f"got {self.w_ent_start} -> {self.w_ent_end}"
            )

    @property
    def dtype(self):
        return np.float32 if self.precision == "narrow" else np.float64

    def w_ent(self, epoch):
        """Entropy weight for one epoch; epochs are 0-based and must be in range."""
        epoch = int(epoch)
        if epoch < 0 or epoch >= self.epochs:
            raise ValueError(f"epoch {epoch} out of range for {self.epochs} epochs")
        if self.epochs == 1:
            return self.w_ent_end
        span = self.w_ent_end - self.w_ent_start
        return self.w_ent_start + span * epoch / (self.epochs - 1)


CONFIG_KEYS = {
    "dataset.dir": ("dataset_dir", str),
    "run.out": ("out_dir", str),
    "run.seed": ("seed", int),
    "model.kind": ("model_kind", str),
    "model.routing": ("routing_mode", str),
    "loss.w_ent_start": ("w_ent_start", float),
    "loss.w_ent_end": ("w_ent_end", float),
    "train.epochs": ("epochs", int),
    "train.batch": ("batch_size", int),
    "train.lr": ("lr", float),
    "train.precision": ("precision", str),
}

DATASET_KEYS = {
    "dataset.n_train": ("n_train", int),
    "dataset.n_val": ("n_val", int),
    "dataset.n_probe": ("n_probe", int),
    "run.seed": ("seed", int),
}


def _fields(mapping, keys, seed):
    """Typed fields for ``keys``; a key that neither table knows is an error."""
    unknown = set(mapping) - set(CONFIG_KEYS) - set(DATASET_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {
        name: typed(mapping, key, kind) for key, (name, kind) in keys.items() if key in mapping
    }
    if seed is not None:
        kwargs["seed"] = int(seed)
    return kwargs


def run_config_from_mapping(mapping, out_dir=None, seed=None):
    kwargs = _fields(mapping, CONFIG_KEYS, seed)
    if out_dir is not None:
        kwargs["out_dir"] = str(out_dir)
    if "dataset_dir" not in kwargs:
        raise ConfigError("missing required config key 'dataset.dir'")
    if "out_dir" not in kwargs:
        raise ConfigError("missing output directory: set run.out or pass --out")
    return RunConfig(**kwargs)


def dataset_config_from_mapping(mapping, seed=None):
    return ds.DatasetConfig(**_fields(mapping, DATASET_KEYS, seed))


# experiment matrix naming mirrors the regularization variants compared in
# the probe study: unregularized, two fixed mixes, a ramp schedule, uniform
# routing, and the convolutional baseline
VARIANTS = {
    "unregcaps": dict(model_kind="capsnet", routing_mode="dynamic"),
    "0.4caps": dict(model_kind="capsnet", routing_mode="dynamic", w_ent_start=0.4, w_ent_end=0.4),
    "0.8caps": dict(model_kind="capsnet", routing_mode="dynamic", w_ent_start=0.8, w_ent_end=0.8),
    "schcaps": dict(model_kind="capsnet", routing_mode="dynamic", w_ent_start=0.0, w_ent_end=0.8),
    "equalcaps": dict(model_kind="capsnet", routing_mode="equal"),
    "cnn": dict(model_kind="cnn"),
}


def variant_config(name, dataset_dir, out_dir, seed=7, **overrides):
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
    kwargs = dict(VARIANTS[name])
    kwargs.update(overrides)
    return RunConfig(dataset_dir=str(dataset_dir), out_dir=str(out_dir), seed=seed, **kwargs)


def build_model(cfg):
    if cfg.model_kind == "cnn":
        return md.CNN(md.CNNConfig(), cfg.seed, cfg.dtype)
    return md.CapsNet(md.CapsNetConfig(routing_mode=cfg.routing_mode), cfg.seed, cfg.dtype)


def _epoch_rng(seed, epoch):
    return np.random.default_rng(np.random.PCG64(np.random.SeedSequence((seed, 7919, epoch))))


@dataclass
class ProbeReport:
    mean_activation_intact: float
    mean_activation_swapped: float
    activation_drop: float
    metadata: dict = dc_field(default_factory=dict)


def train(cfg, log=print):
    """Train one run; returns a summary dict with artifact paths."""
    data = ds.load_dataset(cfg.dataset_dir)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = build_model(cfg)
    optimizer = Adam(model.params.values(), lr=cfg.lr)
    images = data.images_float("train", dtype=cfg.dtype)
    labels = data.labels["train"].astype(np.int64)
    n = images.shape[0]
    metrics_path = out_dir / "metrics.jsonl"
    final_path = out_dir / "final.ckpt"
    t_start = time.time()
    with open(metrics_path, "w") as metrics_fh:
        for epoch in range(cfg.epochs):
            w_ent = cfg.w_ent(epoch)
            order = _epoch_rng(cfg.seed, epoch).permutation(n)
            sums = {"total": 0.0, "margin": 0.0, "entropy": 0.0}
            batches = 0
            for start in range(0, n, cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                batch = Tensor(images[idx])
                targets = labels[idx]
                try:
                    out = model.forward(batch)
                    margin = ls.margin_loss(out.class_activations, targets)
                    # the CNN has no traces, and RunConfig holds its w_ent at 0
                    entropy_value = float(sum(t.entropy_mean() for t in out.traces))
                    if w_ent > 0.0:
                        total = ls.combined_loss(margin, ls.entropy_loss(out.traces), w_ent)
                    else:
                        # reported but kept out of the graph: a w_ent = 0
                        # run is bit-identical to a margin-only run
                        total = margin
                except ValueError as exc:
                    # diverged activations trip the finiteness guards inside
                    # softmax/log before the loss itself is evaluated
                    raise RuntimeError(
                        f"non-finite values at epoch {epoch}, batch {batches}: {exc}"
                    ) from exc
                total_value = total.item()
                if not np.isfinite(total_value):
                    raise RuntimeError(
                        f"non-finite loss {total_value} at epoch {epoch}, "
                        f"batch {batches} (samples {start}..{start + len(idx)})"
                    )
                total.backward()
                optimizer.step()
                optimizer.zero_grad()
                sums["total"] += total_value
                sums["margin"] += margin.item()
                sums["entropy"] += entropy_value
                batches += 1
            val_acc, val_entropy = evaluate_model(model, data, "val", cfg.dtype)
            record = {
                "epoch": epoch,
                "loss_total": sums["total"] / batches,
                "loss_margin": sums["margin"] / batches,
                "loss_entropy": sums["entropy"] / batches,
                "w_ent": w_ent,
                "val_accuracy": val_acc,
                "entropy_per_layer": val_entropy,
                "wall_time_s": round(time.time() - t_start, 3),
            }
            metrics_fh.write(json.dumps(record, sort_keys=True) + "\n")
            metrics_fh.flush()
            log(
                f"epoch {epoch:3d}  loss {record['loss_total']:.4f}  "
                f"margin {record['loss_margin']:.4f}  entropy {record['loss_entropy']:.3f}  "
                f"w_ent {w_ent:.3f}  val acc {val_acc:.4f}"
            )
    md.save_checkpoint(model, final_path)
    return {
        "metrics": str(metrics_path),
        "final_checkpoint": str(final_path),
        "wall_time_s": time.time() - t_start,
    }


def _forward_batches(model, images):
    """Model outputs over ``images``, one EVAL_BATCH slice at a time, building no graph."""
    for start in range(0, images.shape[0], EVAL_BATCH):
        with ad.no_grad():
            out = model.forward(Tensor(images[start : start + EVAL_BATCH]))
        yield out


def evaluate_model(model, data, split, dtype):
    """Accuracy and per-layer mean routing entropy over one split."""
    images = data.images_float(split, dtype=dtype)
    labels = data.labels[split].astype(np.int64)
    n = images.shape[0]
    correct = 0
    entropy_sums = None
    for start, out in zip(range(0, n, EVAL_BATCH), _forward_batches(model, images)):
        pred = out.class_activations.data.argmax(axis=1)
        correct += int((pred == labels[start : start + len(pred)]).sum())
        if out.traces:
            if entropy_sums is None:
                entropy_sums = [0.0] * len(out.traces)
            for l, trace in enumerate(out.traces):
                entropy_sums[l] += trace.entropy_mean() * len(pred)
    per_layer = [s / n for s in entropy_sums] if entropy_sums else []
    return correct / n, per_layer


def _restore(cfg, checkpoint):
    """The run's dataset and its model holding ``checkpoint``'s weights."""
    data = ds.load_dataset(cfg.dataset_dir)
    model = build_model(cfg)
    md.load_state(model, md.load_checkpoint(checkpoint))
    return data, model


def evaluate(cfg, checkpoint, split="val"):
    data, model = _restore(cfg, checkpoint)
    accuracy, per_layer = evaluate_model(model, data, split, cfg.dtype)
    return {
        "split": split,
        "accuracy": accuracy,
        "entropy_per_layer": per_layer,
        "entropy_total": float(sum(per_layer)),
        "n_samples": int(data.images[split].shape[0]),
    }


def probe(cfg, checkpoint):
    """Mean face-class activation on intact val faces vs part-swapped probe faces."""
    data, model = _restore(cfg, checkpoint)
    face_mask = data.labels["val"] == ds.FACE_LABEL
    if not face_mask.any():
        raise ConfigError(f"{cfg.dataset_dir}: split 'val' contains no faces to probe")
    if data.images["probe"].shape[0] == 0:
        raise ConfigError(f"{cfg.dataset_dir}: split 'probe' is empty (dataset.n_probe = 0)")
    intact = data.images_float("val", dtype=cfg.dtype)[face_mask]
    swapped = data.images_float("probe", dtype=cfg.dtype)

    def mean_face(images):
        total = 0.0
        for out in _forward_batches(model, images):
            total += float(out.class_activations.data[:, ds.FACE_LABEL].sum())
        return total / images.shape[0]

    mean_intact, mean_swapped = mean_face(intact), mean_face(swapped)
    return ProbeReport(
        mean_activation_intact=mean_intact,
        mean_activation_swapped=mean_swapped,
        activation_drop=mean_intact - mean_swapped,
        metadata={
            "model_kind": cfg.model_kind,
            "routing_mode": cfg.routing_mode,
            "checkpoint": str(checkpoint),
            "faces_split": "val",
            "swapped_split": "probe",
            "activation": "face-class %s (class index %d)" % (
                "sigmoid score" if cfg.model_kind == "cnn" else "capsule norm", ds.FACE_LABEL
            ),
            "n_intact": int(intact.shape[0]),
            "n_swapped": int(swapped.shape[0]),
        },
    )


def inspect(cfg, checkpoint, index, split="val"):
    """Parse forests (DOT) and a per-layer entropy table for one sample."""
    if cfg.model_kind != "capsnet":
        raise ConfigError(
            f"inspect needs routing layers, which model.kind {cfg.model_kind!r} does not have"
        )
    data, model = _restore(cfg, checkpoint)
    n = data.images[split].shape[0]
    if not 0 <= index < n:
        raise ConfigError(f"index {index} out of range for split {split!r} ({n} samples)")
    image = ds.to_float(data.images[split][index : index + 1], cfg.dtype)
    out = next(_forward_batches(model, image))
    dots = []
    rows = ["layer  iters  n_out  entropy(nats)  uniform(ln n_out)  per-iteration"]
    for l, trace in enumerate(out.traces):
        forest = rt.extract_parse(trace, 0)
        dots.append(
            rt.parse_to_dot(
                forest,
                in_labels=[f"L{l}.in{i}" for i in range(forest.parent.shape[0])],
                out_labels=[f"L{l}.out{j}" for j in range(forest.n_out)],
                name=f"parse_layer{l}",
            )
        )
        iters = len(trace.coefficients)
        per_iter = ", ".join(f"{trace.entropy_mean(t):.4f}" for t in range(iters))
        rows.append(
            f"{l:5d}  {iters:5d}  {trace.n_out:5d}  "
            f"{trace.entropy_mean():13.6f}  {np.log(trace.n_out):17.6f}  [{per_iter}]"
        )
    label = int(data.labels[split][index])
    acts = ", ".join(f"{a:.4f}" for a in out.class_activations.data[0])
    rows.append(f"sample {index} ({split}), label {label}, activations [{acts}]")
    return "".join(dots), "\n".join(rows) + "\n"
