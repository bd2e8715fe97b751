"""Dataset generation and bit-exact serialization.

Splits: train and val scenes (balanced face/distractor classes), plus a
probe split of part-swapped faces built only from validation faces so the
probe never sees training content. Images (count x H x W) and labels
(count) are stored as IDX files of unsigned bytes, read and written by one
codec, and per-scene manifests as one JSON object per line. A manifest line
is the ``grammar`` record with its split position as ``index``, so a loaded
record passes to ``grammar.render_manifest`` or ``part_swap`` as it is.
Regenerating with the same config and seed is byte-identical.

Loading reads every image and label file. Manifests are only counted at
load, to check each split's sizes agree; a split's manifest file is parsed
the first time ``bundle.manifests[split]`` is read. A malformed file raises
``ConfigError`` naming it.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import grammar as gr
from .config import ConfigError

FACE_LABEL = 1
DISTRACTOR_LABEL = 0

SPLITS = ("train", "val", "probe")


@dataclass(frozen=True)
class DatasetConfig:
    n_train: int = 2000
    n_val: int = 400
    n_probe: int = 400
    face_fraction: float = 0.5
    canvas: int = 32
    seed: int = 42
    # families in builtin_distractor_grammar: changes every distractor pixel,
    # so it is recorded in config.json; bundles written before it was recorded
    # carry no key and were generated with 8
    distractor_families: int = 8

    def __post_init__(self):
        if not 0.0 <= self.face_fraction <= 1.0:  # also false for NaN
            raise ConfigError(f"face_fraction must be in [0, 1], got {self.face_fraction}")
        if self.canvas < gr.GLYPH_SIZE:
            raise ConfigError(f"canvas must be at least {gr.GLYPH_SIZE}, got {self.canvas}")
        if self.distractor_families < 1:
            raise ConfigError(f"distractor_families must be >= 1, got {self.distractor_families}")
        if self.seed < 0:
            raise ConfigError(f"run.seed must be non-negative, got {self.seed}")
        if self.n_train < 1 or self.n_val < 1:
            raise ConfigError(
                f"dataset.n_train and dataset.n_val must be at least 1, "
                f"got {self.n_train} and {self.n_val}"
            )
        if self.n_probe < 0:
            raise ConfigError(f"dataset.n_probe must be non-negative, got {self.n_probe}")
        if self.n_probe and FACE_LABEL not in _labels_for(self.n_val, self.face_fraction):
            raise ConfigError("probe split requested but the val split has no faces")


@dataclass
class DatasetBundle:
    """In-memory dataset: uint8 images per split, labels, manifests, config.

    A generated bundle holds its manifests in a dict. A loaded one holds a
    ``ManifestFiles`` mapping: the manifests were counted at load, and each
    split's file is parsed on first access and kept.
    """

    config: DatasetConfig
    images: dict  # split -> uint8 [N, H, W]
    labels: dict  # split -> uint8 [N]
    manifests: Mapping  # split -> list of manifest dicts

    def images_float(self, split, dtype=np.float64):
        return to_float(self.images[split], dtype)


def to_float(images, dtype):
    """uint8 [N, H, W] images to [N, 1, H, W] floats in [0, 1]."""
    return (images.astype(dtype) / dtype(255.0))[:, None, :, :]


def quantize(img):
    """Float [0,1] image to uint8 via round(p * 255)."""
    return np.round(np.asarray(img) * 255.0).astype(np.uint8)


# ---------------------------------------------------------------------------
# IDX files


def write_idx(path, array):
    array = np.asarray(array, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{array.ndim + 1}I", 0x0800 | array.ndim, *array.shape))
        fh.write(array.tobytes())


def read_idx(path, rank):
    """The uint8 array of an IDX file with ``rank`` axes. A short header, a magic
    other than ``0x0800 | rank``, a payload that is not the product of the
    extents, or extents numpy cannot hold raise ``ConfigError`` naming the file."""
    with open(path, "rb") as fh:
        header = fh.read(4 * (rank + 1))
        if len(header) < 4 * (rank + 1):
            raise ConfigError(f"{path}: truncated IDX header")
        magic, *shape = struct.unpack(f">{rank + 1}I", header)
        if magic != 0x0800 | rank:
            raise ConfigError(f"{path}: bad magic 0x{magic:08x}, expected 0x{0x0800 | rank:08x}")
        data = fh.read()
    size, extents = math.prod(shape), " x ".join(map(str, shape))
    if len(data) != size:
        raise ConfigError(f"{path}: expected {size} bytes ({extents}), found {len(data)}")
    try:
        # with one extent 0, an empty payload can declare others past numpy's range
        array = np.frombuffer(data, dtype=np.uint8).reshape(shape)
    except ValueError as exc:
        raise ConfigError(f"{path}: cannot hold a {extents} array: {exc}") from exc
    return array.copy()


# ---------------------------------------------------------------------------
# manifests


def write_manifests(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")


def _manifest_lines(path):
    """(line number, text) of each non-blank line of a manifest file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8: {exc}") from exc


def read_manifests(path):
    records = []
    for lineno, line in _manifest_lines(path):
        try:
            records.append(json.loads(line))
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
    return records


class ManifestFiles(Mapping):
    """split -> manifest records, each split read from its file on first access."""

    def __init__(self, root):
        self.root = Path(root)
        self._parsed = {}

    def path(self, split):
        return self.root / f"{split}-manifests.jsonl"

    def __getitem__(self, split):
        if split not in SPLITS:
            raise KeyError(split)
        if split not in self._parsed:
            self._parsed[split] = read_manifests(self.path(split))
        return self._parsed[split]

    def __iter__(self):
        return iter(SPLITS)

    def __len__(self):
        return len(SPLITS)


# ---------------------------------------------------------------------------
# generation


def _scene_rng(seed, index):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _labels_for(count, face_fraction):
    n_face = round(count * face_fraction)
    return [FACE_LABEL] * n_face + [DISTRACTOR_LABEL] * (count - n_face)


def generate_dataset(config=None, out_dir=None):
    """Sample all splits; if ``out_dir`` is given, also write the files.

    Each scene draws from its own (seed, global index) random stream, so
    generation is order-independent and reproducible per scene.
    """
    config = config or DatasetConfig()
    face = gr.builtin_face_grammar()
    distractor = gr.builtin_distractor_grammar(n_families=config.distractor_families)
    grammars = {FACE_LABEL: face, DISTRACTOR_LABEL: distractor}

    images = {}
    labels = {}
    manifests = {}
    global_index = 0
    for split, count in (("train", config.n_train), ("val", config.n_val)):
        split_labels = _labels_for(count, config.face_fraction)
        imgs = np.zeros((count, config.canvas, config.canvas), dtype=np.uint8)
        recs = []
        for i, label in enumerate(split_labels):
            rng = _scene_rng(config.seed, global_index)
            img, manifest = gr.sample_scene(
                grammars[label], rng, config.canvas, label=label
            )
            imgs[i] = quantize(img[0])
            recs.append({"index": i, **manifest})
            global_index += 1
        images[split] = imgs
        labels[split] = np.array(split_labels, dtype=np.uint8)
        manifests[split] = recs

    val_faces = [rec for rec in manifests["val"] if rec["label"] == FACE_LABEL]
    probe_imgs = np.zeros((config.n_probe, config.canvas, config.canvas), dtype=np.uint8)
    probe_recs = []
    for k in range(config.n_probe):
        face = val_faces[k % len(val_faces)]
        rng = _scene_rng(config.seed, global_index)
        swapped, swapped_manifest = gr.part_swap(images["val"][face["index"]][None], face, rng)
        probe_imgs[k] = swapped[0]
        probe_recs.append({**swapped_manifest, "index": k})
        global_index += 1
    images["probe"] = probe_imgs
    labels["probe"] = np.full(config.n_probe, FACE_LABEL, dtype=np.uint8)
    manifests["probe"] = probe_recs

    bundle = DatasetBundle(config=config, images=images, labels=labels, manifests=manifests)
    if out_dir is not None:
        save_dataset(bundle, out_dir)
    return bundle


def save_dataset(bundle, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        write_idx(out / f"{split}-images.idx", bundle.images[split])
        write_idx(out / f"{split}-labels.idx", bundle.labels[split])
        write_manifests(out / f"{split}-manifests.jsonl", bundle.manifests[split])
    with open(out / "config.json", "w") as fh:
        json.dump(asdict(bundle.config), fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_dataset(path):
    root = Path(path)
    cfg_path = root / "config.json"
    if not cfg_path.exists():
        raise ConfigError(f"{root}: not a dataset directory (missing config.json)")
    with open(cfg_path) as fh:
        try:
            recorded = json.load(fh)
        except ValueError as exc:  # malformed JSON or text encoding
            raise ConfigError(f"{cfg_path}: not valid JSON: {exc}") from exc
    if not isinstance(recorded, dict):
        raise ConfigError(f"{cfg_path}: expected a JSON object, got {type(recorded).__name__}")
    kinds = {f.name: f.type for f in fields(DatasetConfig)}
    unknown = set(recorded) - set(kinds)
    if unknown:
        raise ConfigError(f"{cfg_path}: unknown config keys: {sorted(unknown)}")
    for key, value in sorted(recorded.items()):
        allowed = int if kinds[key] == "int" else (int, float)
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(f"{cfg_path}: {key} must be {kinds[key]}, got {value!r}")
    try:
        config = DatasetConfig(**recorded)
    except ConfigError as exc:
        raise ConfigError(f"{cfg_path}: {exc}") from exc
    images = {}
    labels = {}
    manifests = ManifestFiles(root)
    for split in SPLITS:
        image_path = root / f"{split}-images.idx"
        images[split] = read_idx(image_path, 3)
        label_path = root / f"{split}-labels.idx"
        labels[split] = read_idx(label_path, 1)
        outside = labels[split] > FACE_LABEL  # unsigned bytes, and DISTRACTOR_LABEL is 0
        if outside.any():
            first = int(outside.argmax())
            raise ConfigError(
                f"{label_path}: label {labels[split][first]} at index {first} "
                f"is neither {DISTRACTOR_LABEL} nor {FACE_LABEL}"
            )
        _, h, w = images[split].shape
        if h != config.canvas or w != config.canvas:
            raise ConfigError(f"{image_path}: images are {h} x {w}, canvas is {config.canvas}")
        # the records read_manifests would return, counted without parsing
        n_manifests = sum(1 for _ in _manifest_lines(manifests.path(split)))
        if not (len(images[split]) == len(labels[split]) == n_manifests):
            raise ConfigError(
                f"{root}: {split} counts disagree "
                f"({len(images[split])} images, {len(labels[split])} labels, "
                f"{n_manifests} manifests)"
            )
    return DatasetBundle(config=config, images=images, labels=labels, manifests=manifests)
