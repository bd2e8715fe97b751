import json
from pathlib import Path

import numpy as np
import pytest

from capgram import cli
from capgram import dataset as ds
from capgram import experiment as ex
from capgram import models as md
from capgram.config import parse_flat
from tests.test_models import ckpt_record


def _write_config(path, dataset_dir, **extra):
    base = {
        "dataset.dir": dataset_dir,
        "dataset.n_train": 16,
        "dataset.n_val": 8,
        "dataset.n_probe": 8,
        "run.seed": 3,
        "model.kind": "capsnet",
        "loss.w_ent_start": 0.4,
        "loss.w_ent_end": 0.4,
        "train.epochs": 1,
        "train.batch": 8,
        "train.precision": "narrow",
    }
    base.update(extra)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    cfg = _write_config(root / "run.cfg", data)
    assert cli.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    run = root / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    return root, cfg, data, run


def test_generate_creates_missing_out_dir(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "deep/nested/data")
    code = cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "deep/nested/data")])
    assert code == 0
    assert (tmp_path / "deep/nested/data/train-images.idx").exists()


def test_generate_seed_override_changes_bytes(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "a")
    cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "99"])
    a = (tmp_path / "a/train-images.idx").read_bytes()
    b = (tmp_path / "b/train-images.idx").read_bytes()
    assert a != b


def test_generate_rerun_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "c.cfg", tmp_path / "a")
    cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "b")])
    for name in ("train-images.idx", "val-labels.idx", "probe-manifests.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_writes_metrics_and_checkpoints(workspace, tmp_path, capsys):
    root, cfg, data, run = workspace
    lines = (run / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["epoch"] == 0
    # a fresh run directory: the workspace's also collects eval/probe/inspect outputs
    fresh = tmp_path / "fresh"
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(fresh)]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(summary) == {"metrics", "final_checkpoint", "wall_time_s"}
    assert sorted(p.name for p in fresh.iterdir()) == ["final.ckpt", "metrics.jsonl"]
    assert (fresh / "final.ckpt").read_bytes() == (run / "final.ckpt").read_bytes()


def test_eval_subcommand(workspace, capsys):
    root, cfg, data, run = workspace
    code = cli.main(
        ["eval", "--config", str(cfg), "--out", str(run),
         "--checkpoint", str(run / "final.ckpt"), "--split", "val"]
    )
    assert code == 0
    report = json.loads((run / "eval-val.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert len(report["entropy_per_layer"]) == 2


def test_probe_subcommand(workspace):
    root, cfg, data, run = workspace
    code = cli.main(
        ["probe", "--config", str(cfg), "--out", str(run),
         "--checkpoint", str(run / "final.ckpt")]
    )
    assert code == 0
    report = json.loads((run / "probe.json").read_text())
    assert report["activation_drop"] == pytest.approx(
        report["mean_activation_intact"] - report["mean_activation_swapped"]
    )


def test_inspect_subcommand(workspace):
    root, cfg, data, run = workspace
    code = cli.main(
        ["inspect", "--config", str(cfg), "--out", str(run),
         "--checkpoint", str(run / "final.ckpt"), "--index", "2", "--split", "val"]
    )
    assert code == 0
    dot = (run / "parse-val-2.dot").read_text()
    assert dot.count("digraph") == 2
    assert (run / "entropy-val-2.txt").exists()


def test_usage_errors_exit_1(workspace, tmp_path, capsys):
    assert cli.main(["train", "--config", str(tmp_path / "missing.cfg"), "--out", "x"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    assert cli.main(["train", "--config", str(bad), "--out", "x"]) == 1
    unknown = tmp_path / "unk.cfg"
    unknown.write_text("dataset.dir = d\nwhat.is = this\n")
    assert cli.main(["train", "--config", str(unknown), "--out", "x"]) == 1
    # run settings that RunConfig rejects, and keys that were removed, are
    # refused before the dataset loads, not mid-training
    data = workspace[2]
    invalid = (
        {"loss.w_ent_start": 1.5, "loss.w_ent_end": 1.5},
        {"loss.w_ent_start": 0.8, "loss.w_ent_end": 0.2},
        {"model.kind": "cnn", "loss.w_ent_start": 0.8, "loss.w_ent_end": 0.8},
        {"loss.mode": "linear_ramp"},
        {"model.iters": 0},
    )
    for i, extra in enumerate(invalid):
        cfg = _write_config(tmp_path / f"invalid{i}.cfg", data, **extra)
        capsys.readouterr()
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        if i >= 3:
            assert f"unknown config keys: {list(extra)}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # dataset sizes that cannot be generated are refused before --out exists
    for i, extra in enumerate(({"dataset.n_train": -4}, {"dataset.n_val": 0})):
        cfg = _write_config(tmp_path / f"gen{i}.cfg", data, **extra)
        assert cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 1
    assert not (tmp_path / "g").exists()


def test_readme_complete_config_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("A complete config:\n\n```\n", 1)[1].split("```", 1)[0]
    mapping = parse_flat(block)
    run = ex.run_config_from_mapping(mapping)
    assert (run.model_kind, run.routing_mode) == ("capsnet", "dynamic")
    assert (run.w_ent_start, run.w_ent_end, run.precision) == (0.0, 0.8, "narrow")
    data = ex.dataset_config_from_mapping(mapping)
    assert (data.n_train, data.n_val, data.n_probe, data.seed) == (2000, 400, 400, 7)


def test_missing_dataset_exit_1(workspace, tmp_path):
    root, cfg, data, run = workspace
    cfg2 = _write_config(tmp_path / "c.cfg", tmp_path / "nonexistent")
    assert cli.main(["train", "--config", str(cfg2), "--out", str(tmp_path / "r")]) == 1
    # an existing directory that is not a dataset
    (tmp_path / "empty").mkdir()
    cfg3 = _write_config(tmp_path / "e.cfg", tmp_path / "empty")
    for cmd in (["train"], ["eval", "--checkpoint", str(run / "final.ckpt")]):
        assert cli.main(cmd + ["--config", str(cfg3), "--out", str(tmp_path / "r")]) == 1
    assert not (tmp_path / "r").exists()


def test_eval_missing_checkpoint_exit_1(workspace, tmp_path, capsys):
    root, cfg, data, run = workspace
    out = tmp_path / "ev"
    capsys.readouterr()
    code = cli.main(
        ["eval", "--config", str(cfg), "--out", str(out), "--checkpoint", str(tmp_path / "no.ckpt")]
    )
    assert code == 1
    assert "no.ckpt" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_dataset_config_json_key_exit_1(tmp_path, capsys):
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "c.cfg", data)
    assert cli.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    recorded = json.loads((data / "config.json").read_text())
    recorded["glyph_size"] = 5
    (data / "config.json").write_text(json.dumps(recorded))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert "unknown config keys: ['glyph_size']" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [("{", "not valid JSON"), ('{"n_train": "abc"}', "n_train must be int, got 'abc'")],
    ids=["truncated", "string_count"],
)
def test_malformed_dataset_config_json_exit_1(tmp_path, capsys, text, message):
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "c.cfg", data)
    assert cli.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    (data / "config.json").write_text(text)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("face_fraction", float("nan"), "config.json: face_fraction must be in [0, 1], got nan"),
        ("distractor_families", 0, "config.json: distractor_families must be >= 1, got 0"),
        ("canvas", -3, "config.json: canvas must be at least 7, got -3"),
        ("canvas", 16, "train-images.idx: images are 32 x 32, canvas is 16"),
    ],
    ids=["nan_face_fraction", "no_distractor_families", "negative_canvas", "canvas_not_image_size"],
)
def test_out_of_range_dataset_config_json_exit_1(tmp_path, capsys, key, value, message):
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "c.cfg", data)
    assert cli.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    recorded = json.loads((data / "config.json").read_text())
    recorded[key] = value
    (data / "config.json").write_text(json.dumps(recorded))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


def _bad_magic(path):
    path.write_bytes(b"\x00\x00\x08\x02" + path.read_bytes()[4:])


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _label_7(path):
    path.write_bytes(path.read_bytes()[:-1] + b"\x07")


@pytest.mark.parametrize(
    "name, damage, message",
    [
        ("val-images.idx", _truncate, "val-images.idx: expected 8192 bytes (8 x 32 x 32), found 8185"),
        ("train-labels.idx", _bad_magic, "train-labels.idx: bad magic 0x00000802, expected 0x00000801"),
        ("probe-manifests.jsonl", _drop_last_line, "probe counts disagree (8 images, 8 labels, 7 manifests)"),
        ("train-labels.idx", _label_7, "train-labels.idx: label 7 at index 15 is neither 0 nor 1"),
    ],
    ids=["truncated_idx", "bad_magic", "manifest_missing_line", "label_out_of_range"],
)
def test_malformed_dataset_file_exit_1(tmp_path, capsys, name, damage, message):
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "c.cfg", data)
    assert cli.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    damage(data / name)
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "command, seed",
    [("generate", "-1"), ("train", "-3")],
)
def test_negative_seed_exit_1(workspace, tmp_path, capsys, command, seed):
    cfg = workspace[1]
    out = tmp_path / "r"
    capsys.readouterr()
    assert cli.main([command, "--config", str(cfg), "--out", str(out), "--seed", seed]) == 1
    assert f"run.seed must be non-negative, got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "n_val, message",
    [(8, "split 'probe' is empty"), (1, "split 'val' contains no faces")],
    ids=["no_probe_split", "no_val_faces"],
)
def test_probe_without_probe_data_exit_1(workspace, tmp_path, capsys, n_val, message):
    run = workspace[3]
    data = tmp_path / "data"
    cfg = _write_config(tmp_path / "c.cfg", data, **{"dataset.n_val": n_val, "dataset.n_probe": 0})
    assert cli.main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    out = tmp_path / "r"
    capsys.readouterr()
    code = cli.main(
        ["probe", "--config", str(cfg), "--out", str(out), "--checkpoint", str(run / "final.ckpt")]
    )
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("index", ["99", "-1", "8"])
def test_inspect_index_out_of_range_exit_1(workspace, tmp_path, capsys, index):
    root, cfg, data, run = workspace
    out = tmp_path / "r"
    capsys.readouterr()
    code = cli.main(
        ["inspect", "--config", str(cfg), "--out", str(out),
         "--checkpoint", str(run / "final.ckpt"), "--index", index, "--split", "val"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"index {index} out of range for split 'val' (8 samples)" in err
    assert not out.exists()


def test_inspect_cnn_run_exit_1(workspace, tmp_path, capsys):
    root, cfg, data, run = workspace
    cnn_cfg = _write_config(
        tmp_path / "cnn.cfg", data, **{"model.kind": "cnn", "loss.w_ent_start": 0, "loss.w_ent_end": 0}
    )
    out = tmp_path / "r"
    capsys.readouterr()
    code = cli.main(
        ["inspect", "--config", str(cnn_cfg), "--out", str(out),
         "--checkpoint", str(run / "final.ckpt"), "--index", "0"]
    )
    assert code == 1
    assert "inspect needs routing layers, which model.kind 'cnn' does not have" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda blob: b"NOPE" + blob[4:], "bad checkpoint magic b'NOPE'"),
        (lambda blob: blob[:40], "truncated checkpoint"),
        (lambda blob: md.CHECKPOINT_MAGIC + ckpt_record(b"\xff", (), bytes(8)), "is not UTF-8"),
        (lambda blob: md.CHECKPOINT_MAGIC + ckpt_record(b"w", (2**32, 2**32), b""), "truncated checkpoint"),
        (lambda blob: md.CHECKPOINT_MAGIC + 2 * ckpt_record(b"w", (), bytes(8)), "parameter 'w' appears twice"),
    ],
    ids=["bad_magic", "truncated_40", "name_not_utf8", "extents_wrap", "duplicate_name"],
)
def test_malformed_checkpoint_exit_1(workspace, tmp_path, capsys, damage, message):
    root, cfg, data, run = workspace
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(damage((run / "final.ckpt").read_bytes()))
    out = tmp_path / "r"
    capsys.readouterr()
    code = cli.main(["eval", "--config", str(cfg), "--out", str(out), "--checkpoint", str(ckpt)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and message in err
    assert not out.exists()


def test_bad_subcommand_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 1


def test_runtime_failure_exit_2(workspace, tmp_path):
    root, cfg, data, run = workspace
    diverge = _write_config(
        tmp_path / "d.cfg", data, **{"train.epochs": 2, "train.lr": "1e18"}
    )
    assert cli.main(["train", "--config", str(diverge), "--out", str(tmp_path / "r2")]) == 2


def test_checkpoint_config_mismatch_is_runtime_error(workspace, tmp_path):
    root, cfg, data, run = workspace
    cnn_cfg = _write_config(
        tmp_path / "cnn.cfg",
        data,
        **{"model.kind": "cnn", "loss.w_ent_start": 0, "loss.w_ent_end": 0},
    )
    code = cli.main(
        ["eval", "--config", str(cnn_cfg), "--out", str(tmp_path / "r3"),
         "--checkpoint", str(run / "final.ckpt"), "--split", "val"]
    )
    assert code == 2
