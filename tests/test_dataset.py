import hashlib
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgram import dataset as ds
from capgram import grammar as gr
from capgram.config import ConfigError

SMALL = ds.DatasetConfig(n_train=40, n_val=20, n_probe=20, seed=42)

# sha256 prefixes frozen from the first verified generation of SMALL with
# 4 distractor families: n_train=40, n_val=20, n_probe=20, face_fraction=0.5,
# canvas=32, seed=42, distractor_families=4 (integer pixel content, stable
# across platforms). Only the two image files depend on the family count:
# labels are fixed by the split sizes, and probes are built from val faces.
GOLDEN_SHA = {
    "train-images.idx": "6fc91cfbe5daef4a",
    "train-labels.idx": "f50b825c921b3a25",
    "val-images.idx": "97db83a4d12f6f70",
    "probe-images.idx": "319a17dba92a35ac",
    "probe-manifests.jsonl": "e8c762bdc218f696",
}


def test_counts_and_exact_balance():
    bundle = ds.generate_dataset(SMALL)
    assert bundle.images["train"].shape == (40, 32, 32)
    assert bundle.images["val"].shape == (20, 32, 32)
    assert bundle.images["probe"].shape == (20, 32, 32)
    np.testing.assert_array_equal(np.bincount(bundle.labels["train"]), [20, 20])
    np.testing.assert_array_equal(np.bincount(bundle.labels["val"]), [10, 10])
    assert np.all(bundle.labels["probe"] == ds.FACE_LABEL)


def test_same_seed_byte_identical_files(tmp_path):
    ds.generate_dataset(SMALL, out_dir=tmp_path / "a")
    ds.generate_dataset(SMALL, out_dir=tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name


def test_golden_checksums_seed42(tmp_path):
    ds.generate_dataset(replace(SMALL, distractor_families=4), out_dir=tmp_path)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()[:16]
        for name in GOLDEN_SHA
    }
    mismatches = [
        f"{name}: {got[name]} != {want}" for name, want in GOLDEN_SHA.items() if got[name] != want
    ]
    assert not mismatches, mismatches


def test_family_count_changes_only_distractor_images(tmp_path):
    ds.generate_dataset(replace(SMALL, distractor_families=4), out_dir=tmp_path / "f4")
    ds.generate_dataset(replace(SMALL, distractor_families=8), out_dir=tmp_path / "f8")
    for name in ("train-labels.idx", "val-labels.idx", "probe-images.idx", "probe-manifests.jsonl"):
        assert (tmp_path / "f4" / name).read_bytes() == (tmp_path / "f8" / name).read_bytes(), name
    for name in ("train-images.idx", "val-images.idx"):
        assert (tmp_path / "f4" / name).read_bytes() != (tmp_path / "f8" / name).read_bytes(), name


def test_config_json_round_trips_distractor_families(tmp_path):
    cfg = replace(SMALL, distractor_families=3)
    ds.generate_dataset(cfg, out_dir=tmp_path)
    assert json.loads((tmp_path / "config.json").read_text())["distractor_families"] == 3
    assert ds.load_dataset(tmp_path).config == cfg


def test_config_json_without_families_loads_as_eight(tmp_path):
    # bundles written before the key existed were generated with 8 families
    ds.generate_dataset(SMALL, out_dir=tmp_path / "old")
    cfg_path = tmp_path / "old" / "config.json"
    legacy = json.loads(cfg_path.read_text())
    del legacy["distractor_families"]
    cfg_path.write_text(json.dumps(legacy, sort_keys=True, indent=2) + "\n")
    loaded = ds.load_dataset(tmp_path / "old")
    assert loaded.config.distractor_families == 8
    ds.generate_dataset(loaded.config, out_dir=tmp_path / "again")
    for name in ("train-images.idx", "val-images.idx"):
        assert (tmp_path / "old" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


def test_different_seed_differs(tmp_path):
    a = ds.generate_dataset(SMALL)
    b = ds.generate_dataset(ds.DatasetConfig(n_train=40, n_val=20, n_probe=20, seed=43))
    assert not np.array_equal(a.images["train"], b.images["train"])


def test_round_trip_byte_equality(tmp_path):
    ds.generate_dataset(SMALL, out_dir=tmp_path / "a")
    bundle = ds.load_dataset(tmp_path / "a")
    ds.save_dataset(bundle, tmp_path / "b")
    for f in sorted((tmp_path / "a").iterdir()):
        assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes(), f.name


def test_probe_images_are_swapped_val_faces():
    bundle = ds.generate_dataset(SMALL)
    val_faces = [
        i for i, l in enumerate(bundle.labels["val"]) if l == ds.FACE_LABEL
    ]
    # probe k cycles the val faces in order and applies a recorded swap
    for k, rec in enumerate(bundle.manifests["probe"]):
        assert "swap" in rec and len(rec["swap"]) == 2
        src = bundle.manifests["val"][val_faces[k % len(val_faces)]]
        assert [p["box"] for p in rec["parts"]] == [p["box"] for p in src["parts"]]
        assert sorted(p["glyph"] for p in rec["parts"]) == sorted(
            p["glyph"] for p in src["parts"]
        )
        assert bundle.images["probe"][k].sum() == bundle.images["val"][val_faces[k % len(val_faces)]].sum()


def test_probe_differs_from_source_faces():
    bundle = ds.generate_dataset(SMALL)
    val_faces = [i for i, l in enumerate(bundle.labels["val"]) if l == ds.FACE_LABEL]
    diff = sum(
        not np.array_equal(
            bundle.images["probe"][k], bundle.images["val"][val_faces[k % len(val_faces)]]
        )
        for k in range(SMALL.n_probe)
    )
    # identical-glyph eye swaps are no-ops, so not all probes differ, but most must
    assert diff >= SMALL.n_probe * 0.6


def test_manifest_schema(tmp_path):
    ds.generate_dataset(SMALL, out_dir=tmp_path)
    with open(tmp_path / "val-manifests.jsonl") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 20
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert rec["index"] == i
        assert rec["label"] in (0, 1)
        for part in rec["parts"]:
            assert set(part) == {"name", "glyph", "box"}
            y0, x0, y1, x1 = part["box"]
            assert 0 <= y0 < y1 <= 32 and 0 <= x0 < x1 <= 32
        assert "swap" not in rec


def test_idx_round_trip_and_magic(tmp_path):
    imgs = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    p = tmp_path / "x.idx"
    ds.write_idx(p, imgs)
    np.testing.assert_array_equal(ds.read_idx(p, 3), imgs)
    blob = p.read_bytes()
    assert blob[:4] == b"\x00\x00\x08\x03"
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x01" + blob[4:])
    with pytest.raises(ValueError, match="magic"):
        ds.read_idx(bad, 3)
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match="expected"):
        ds.read_idx(trunc, 3)


def test_idx_labels_round_trip_and_magic(tmp_path):
    labels = np.array([0, 1, 1, 0], dtype=np.uint8)
    p = tmp_path / "y.idx"
    ds.write_idx(p, labels)
    np.testing.assert_array_equal(ds.read_idx(p, 1), labels)
    blob = p.read_bytes()
    assert blob[:4] == b"\x00\x00\x08\x01"
    trunc = tmp_path / "trunc.idx"
    trunc.write_bytes(blob[:-2])
    with pytest.raises(ValueError, match="expected"):
        ds.read_idx(trunc, 1)
    short = tmp_path / "short.idx"
    short.write_bytes(blob[:5])
    with pytest.raises(ValueError, match="truncated"):
        ds.read_idx(short, 1)


# Each IDX reader with its writer, header layout and magic (0x0800 | rank).
IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
IDX_READERS = {
    "images": (lambda p: ds.read_idx(p, 3), ds.write_idx, ">IIII", IDX_IMAGE_MAGIC),
    "labels": (lambda p: ds.read_idx(p, 1), ds.write_idx, ">II", IDX_LABEL_MAGIC),
}
# Small extents make files the readers can accept; large ones declare more
# than any file holds, and two of them multiply past numpy's index range.
EXTENT = st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1))


@pytest.fixture(scope="module")
def idx_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("idx")


def _read_or_refuse(directory, kind, blob):
    """Read ``blob`` as an IDX file: it yields the shape its header declares,
    with the payload bytes, or a ConfigError naming the file."""
    read, _, header, magic = IDX_READERS[kind]
    path = directory / f"{kind}.idx"
    path.write_bytes(blob)
    try:
        out = read(path)
    except ConfigError as exc:
        assert str(path) in str(exc)
        return
    size = struct.calcsize(header)
    declared = struct.unpack(header, blob[:size])
    assert declared[0] == magic
    assert out.dtype == np.uint8 and out.shape == declared[1:]
    assert out.tobytes() == blob[size:]


@given(kind=st.sampled_from(sorted(IDX_READERS)), blob=st.binary(max_size=64))
@settings(max_examples=150, deadline=None)
def test_idx_readers_fuzz_arbitrary_bytes(idx_dir, kind, blob):
    _read_or_refuse(idx_dir, kind, blob)


@given(
    kind=st.sampled_from(sorted(IDX_READERS)),
    magic=st.one_of(st.sampled_from([IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC]), st.integers(0, 2**32 - 1)),
    extents=st.tuples(EXTENT, EXTENT, EXTENT),
    payload=st.binary(max_size=48),
)
@example(kind="images", magic=IDX_IMAGE_MAGIC, extents=(0, 2**32 - 1, 2**32 - 1), payload=b"")
@example(kind="images", magic=IDX_IMAGE_MAGIC, extents=(2**32 - 1, 2**32 - 1, 2**32 - 1), payload=b"")
@example(kind="labels", magic=IDX_LABEL_MAGIC, extents=(2**32 - 1, 0, 0), payload=b"\x01")
@settings(max_examples=150, deadline=None)
def test_idx_readers_fuzz_declared_extents(idx_dir, kind, magic, extents, payload):
    header = IDX_READERS[kind][2]
    fields = extents[: len(header) - 2]
    _read_or_refuse(idx_dir, kind, struct.pack(header, magic, *fields) + payload)


@given(
    kind=st.sampled_from(sorted(IDX_READERS)),
    shape=st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3),
    keep=st.one_of(st.none(), st.integers(0, 60)),
)
@settings(max_examples=150, deadline=None)
def test_idx_readers_fuzz_mutated_valid_files(idx_dir, kind, shape, flips, keep):
    _, write, _, _ = IDX_READERS[kind]
    path = idx_dir / "valid.idx"
    values = np.arange(int(np.prod(shape)), dtype=np.uint8).reshape(shape)
    write(path, values if kind == "images" else values.reshape(-1))
    blob = bytearray(path.read_bytes())
    for pos, byte in flips:
        blob[pos % len(blob)] = byte
    _read_or_refuse(idx_dir, kind, bytes(blob[:keep]))


def test_loaded_manifests_equal_generated_and_parse_once(tmp_path, monkeypatch):
    generated = ds.generate_dataset(SMALL, out_dir=tmp_path)
    parsed = []
    read = ds.read_manifests
    monkeypatch.setattr(ds, "read_manifests", lambda path: parsed.append(path) or read(path))
    loaded = ds.load_dataset(tmp_path)
    assert parsed == []
    for split in ds.SPLITS:
        assert loaded.manifests[split] == generated.manifests[split]
        assert loaded.manifests[split] is loaded.manifests[split]
    assert [p.name for p in parsed] == [f"{split}-manifests.jsonl" for split in ds.SPLITS]
    assert dict(loaded.manifests) == generated.manifests


def test_manifest_count_check_runs_at_load(tmp_path):
    ds.generate_dataset(SMALL, out_dir=tmp_path)
    path = tmp_path / "val-manifests.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    # blank lines are not records, for the count as for the parse
    path.write_text("\n".join(lines) + "\n")
    assert len(ds.load_dataset(tmp_path).manifests["val"]) == 20
    path.write_text("".join(lines[1:]))
    with pytest.raises(ConfigError, match=r"val counts disagree \(20 images, 20 labels, 19 manifests\)"):
        ds.load_dataset(tmp_path)
    path.write_bytes(b"\xff\n" + "".join(lines[1:]).encode())
    with pytest.raises(ConfigError, match="val-manifests.jsonl: not valid UTF-8"):
        ds.load_dataset(tmp_path)


def test_malformed_manifest_line_fails_on_first_read(tmp_path):
    ds.generate_dataset(SMALL, out_dir=tmp_path)
    path = tmp_path / "probe-manifests.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = lines[4][:-9] + "\n"
    path.write_text("\n" + "".join(lines))
    bundle = ds.load_dataset(tmp_path)
    assert len(bundle.manifests["val"]) == 20
    # line 6 of the file: the blank first line counts, as an editor shows it
    with pytest.raises(ConfigError, match="probe-manifests.jsonl: line 6 is not valid JSON"):
        bundle.manifests["probe"]


def test_load_missing_dir_errors(tmp_path):
    with pytest.raises(ValueError, match="missing config.json"):
        ds.load_dataset(tmp_path / "nope")


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(n_train=0), "n_train"),
        (dict(n_train=-4), "n_train"),
        (dict(n_val=0), "n_val"),
        (dict(n_probe=-1), "n_probe"),
        (dict(n_val=1, n_probe=4), "no faces"),
    ],
)
def test_config_rejects_sizes_it_cannot_generate(fields, message):
    with pytest.raises(ConfigError, match=message):
        replace(SMALL, **fields)


def test_config_allows_no_probe_without_val_faces():
    assert ds.generate_dataset(replace(SMALL, n_val=1, n_probe=0)).images["probe"].shape[0] == 0


def test_images_float_range():
    bundle = ds.generate_dataset(SMALL)
    x = bundle.images_float("train")
    assert x.shape == (40, 1, 32, 32)
    assert x.dtype == np.float64
    assert 0.0 <= x.min() and x.max() <= 1.0
    x32 = bundle.images_float("val", dtype=np.float32)
    assert x32.dtype == np.float32
    # converting a slice gives the bits of the same slice of the converted split
    for dtype in (np.float32, np.float64):
        np.testing.assert_array_equal(
            ds.to_float(bundle.images["val"][3:4], dtype), bundle.images_float("val", dtype)[3:4]
        )


def test_quantize_round_trip_through_files():
    # u8 -> float -> u8 is the identity, so training from files matches memory
    u8 = np.arange(256, dtype=np.uint8).reshape(16, 16)
    again = ds.quantize(u8.astype(np.float64) / 255.0)
    np.testing.assert_array_equal(again, u8)


def test_loaded_manifests_render_to_stored_pixels(tmp_path):
    ds.generate_dataset(SMALL, out_dir=tmp_path)
    bundle = ds.load_dataset(tmp_path)
    grammars = {
        ds.FACE_LABEL: gr.builtin_face_grammar(),
        ds.DISTRACTOR_LABEL: gr.builtin_distractor_grammar(bundle.config.distractor_families),
    }
    for split in ("train", "val"):
        for i, rec in enumerate(bundle.manifests[split]):
            img = gr.render_manifest(grammars[rec["label"]], rec, bundle.config.canvas)
            np.testing.assert_array_equal(ds.quantize(img[0]), bundle.images[split][i])
