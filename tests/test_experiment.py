import json

import numpy as np
import pytest

from capgram import autodiff as ad
from capgram import dataset as ds
from capgram import experiment as ex
from capgram import losses as ls
from capgram import models as md
from capgram.autodiff import Tensor
from capgram.config import ConfigError, parse_flat
from capgram.optim import Adam

TINY_DATA = ds.DatasetConfig(n_train=24, n_val=8, n_probe=8, seed=11)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds.generate_dataset(TINY_DATA, out_dir=root)
    return root


def _cfg(tiny_dataset, tmp_path, **kw):
    defaults = dict(epochs=2, batch_size=8, seed=3)
    defaults.update(kw)
    return ex.variant_config("unregcaps", tiny_dataset, tmp_path / "run", **defaults)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_flat_sections_and_comments():
    text = "# hi\n\nrun.seed = 9\nmodel.kind = cnn\n"
    assert parse_flat(text) == {"run.seed": "9", "model.kind": "cnn"}


def test_parse_flat_rejects_bad_lines():
    with pytest.raises(ConfigError, match="key = value"):
        parse_flat("just words\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat("a.b = 1\na.b = 2\n")


def test_run_config_from_mapping_roundtrip():
    mapping = parse_flat(
        "dataset.dir = d\nrun.out = o\nrun.seed = 5\n"
        "loss.w_ent_end = 0.8\ntrain.epochs = 3\ntrain.precision = wide\n"
    )
    cfg = ex.run_config_from_mapping(mapping)
    assert cfg.seed == 5
    assert (cfg.w_ent_start, cfg.w_ent_end) == (0.0, 0.8)
    assert cfg.dtype == np.float64
    assert cfg.epochs == 3


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown"):
        ex.run_config_from_mapping({"typo.key": "1", "dataset.dir": "d", "run.out": "o"})


def test_run_config_requires_dataset_dir():
    with pytest.raises(ConfigError, match="dataset.dir"):
        ex.run_config_from_mapping({"run.out": "o"})


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "0", "-1e-3"])
def test_run_config_rejects_bad_learning_rate(lr):
    with pytest.raises(ConfigError, match="train.lr must be finite and positive"):
        ex.run_config_from_mapping({"dataset.dir": "d", "run.out": "o", "train.lr": lr})


def test_negative_seed_names_the_key():
    with pytest.raises(ConfigError, match="run.seed must be non-negative, got -1"):
        ex.run_config_from_mapping({"dataset.dir": "d", "run.out": "o"}, seed=-1)
    with pytest.raises(ConfigError, match="run.seed must be non-negative, got -2"):
        ex.dataset_config_from_mapping({"run.seed": "-2"})


def test_variant_configs_cover_matrix():
    for name in ("unregcaps", "0.4caps", "0.8caps", "schcaps", "equalcaps", "cnn"):
        cfg = ex.variant_config(name, "d", "o")
        assert cfg.epochs == 30 and cfg.batch_size == 32
    cfg = ex.variant_config("0.8caps", "d", "o")
    assert (cfg.w_ent_start, cfg.w_ent_end) == (0.8, 0.8)
    cfg = ex.variant_config("schcaps", "d", "o")
    assert (cfg.w_ent_start, cfg.w_ent_end) == (0.0, 0.8)
    assert ex.variant_config("equalcaps", "d", "o").routing_mode == "equal"
    with pytest.raises(ConfigError, match="unknown variant"):
        ex.variant_config("megacaps", "d", "o")


# ---------------------------------------------------------------------------
# training


def test_smoke_train_completes_quickly(tiny_dataset, tmp_path):
    cfg = _cfg(tiny_dataset, tmp_path, epochs=1)
    import time

    t0 = time.time()
    summary = ex.train(cfg, log=lambda m: None)
    assert time.time() - t0 < 60.0
    metrics = [json.loads(l) for l in open(summary["metrics"])]
    assert len(metrics) == 1
    record = metrics[0]
    assert set(record) == {
        "epoch",
        "loss_total",
        "loss_margin",
        "loss_entropy",
        "w_ent",
        "val_accuracy",
        "entropy_per_layer",
        "wall_time_s",
    }
    assert len(record["entropy_per_layer"]) == 2


def test_metrics_deterministic_modulo_wall_time(tiny_dataset, tmp_path):
    a = ex.train(_cfg(tiny_dataset, tmp_path / "a"), log=lambda m: None)
    b = ex.train(_cfg(tiny_dataset, tmp_path / "b"), log=lambda m: None)

    def strip(path):
        rows = [json.loads(l) for l in open(path)]
        for row in rows:
            row.pop("wall_time_s")
        return rows

    assert strip(a["metrics"]) == strip(b["metrics"])
    assert (
        open(a["final_checkpoint"], "rb").read() == open(b["final_checkpoint"], "rb").read()
    )


def test_zero_entropy_weight_matches_hand_rolled_margin_loop(tiny_dataset, tmp_path):
    # independent re-implementation of the training loop, margin loss only
    cfg = _cfg(tiny_dataset, tmp_path, epochs=2)
    summary = ex.train(cfg, log=lambda m: None)
    got = md.load_checkpoint(summary["final_checkpoint"])

    data = ds.load_dataset(cfg.dataset_dir)
    model = ex.build_model(cfg)
    adam = Adam(model.params.values(), lr=cfg.lr)
    images = data.images_float("train", dtype=cfg.dtype)
    labels = data.labels["train"].astype(np.int64)
    for epoch in range(cfg.epochs):
        order = ex._epoch_rng(cfg.seed, epoch).permutation(len(labels))
        for start in range(0, len(labels), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            out = model.forward(Tensor(images[idx]))
            loss = ls.margin_loss(out.class_activations, labels[idx])
            loss.backward()
            adam.step()
            adam.zero_grad()
    for name, tensor in model.params.items():
        np.testing.assert_array_equal(tensor.data.astype(np.float64), got[name])


def test_non_finite_loss_aborts_with_location(tiny_dataset, tmp_path):
    cfg = _cfg(tiny_dataset, tmp_path, lr=1e18, precision="narrow")
    with pytest.raises(RuntimeError, match=r"epoch 0, batch \d"):
        ex.train(cfg, log=lambda m: None)


def test_training_applies_the_ramp_per_epoch(tiny_dataset, tmp_path):
    def recorded(epochs):
        cfg = ex.variant_config(
            "schcaps", tiny_dataset, tmp_path / f"sch{epochs}", epochs=epochs, batch_size=8
        )
        summary = ex.train(cfg, log=lambda m: None)
        return [json.loads(l)["w_ent"] for l in open(summary["metrics"])]

    assert recorded(3) == [0.0, 0.4, 0.8]
    # a one-epoch run trains at the end of the ramp
    assert recorded(1) == [0.8]


def test_equal_routing_trains_and_reports_exact_entropy(tiny_dataset, tmp_path):
    cfg = ex.variant_config(
        "equalcaps", tiny_dataset, tmp_path / "eq", epochs=1, batch_size=8, seed=3
    )
    summary = ex.train(cfg, log=lambda m: None)
    record = json.loads(open(summary["metrics"]).readline())
    want = float(np.log(8.0) + np.log(2.0))
    assert record["loss_entropy"] == pytest.approx(want, abs=1e-9)
    assert sum(record["entropy_per_layer"]) == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# evaluation / probe / inspect


@pytest.fixture(scope="module")
def trained_run(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = ex.variant_config(
        "0.4caps", tiny_dataset, out, epochs=3, batch_size=8, seed=5
    )
    summary = ex.train(cfg, log=lambda m: None)
    return cfg, summary


def test_eval_accuracy_matches_brute_force_recount(trained_run):
    cfg, summary = trained_run
    report = ex.evaluate(cfg, summary["final_checkpoint"], split="val")
    data = ds.load_dataset(cfg.dataset_dir)
    model = ex.build_model(cfg)
    md.load_state(model, md.load_checkpoint(summary["final_checkpoint"]))
    images = data.images_float("val", dtype=cfg.dtype)
    correct = 0
    with ad.no_grad():
        for i in range(images.shape[0]):  # one sample at a time
            out = model.forward(Tensor(images[i : i + 1]))
            correct += int(
                out.class_activations.data[0].argmax() == data.labels["val"][i]
            )
    assert report["accuracy"] == pytest.approx(correct / images.shape[0])


def test_memorization_reaches_perfect_accuracy(tiny_dataset, tmp_path):
    cfg = _cfg(tiny_dataset, tmp_path, epochs=40, seed=1)
    summary = ex.train(cfg, log=lambda m: None)
    report = ex.evaluate(cfg, summary["final_checkpoint"], split="train")
    assert report["accuracy"] == 1.0


def test_probe_means_match_one_sample_forwards(trained_run):
    cfg, summary = trained_run
    report = ex.probe(cfg, summary["final_checkpoint"])
    data = ds.load_dataset(cfg.dataset_dir)
    model = ex.build_model(cfg)
    md.load_state(model, md.load_checkpoint(summary["final_checkpoint"]))

    def mean_face(images):
        total = 0.0
        with ad.no_grad():
            for i in range(images.shape[0]):  # one sample at a time
                out = model.forward(Tensor(images[i : i + 1]))
                total += float(out.class_activations.data[0, ds.FACE_LABEL])
        return total / images.shape[0]

    faces = data.images_float("val", dtype=cfg.dtype)[data.labels["val"] == ds.FACE_LABEL]
    swapped = data.images_float("probe", dtype=cfg.dtype)
    assert report.mean_activation_intact == pytest.approx(mean_face(faces), rel=1e-5)
    assert report.mean_activation_swapped == pytest.approx(mean_face(swapped), rel=1e-5)
    assert report.metadata["faces_split"] == "val"
    assert report.metadata["swapped_split"] == "probe"


def test_probe_report_fields(trained_run):
    cfg, summary = trained_run
    report = ex.probe(cfg, summary["final_checkpoint"])
    assert report.activation_drop == pytest.approx(
        report.mean_activation_intact - report.mean_activation_swapped
    )
    assert 0 <= report.mean_activation_intact < 1
    assert 0 <= report.mean_activation_swapped < 1
    assert report.metadata["n_intact"] == 4
    assert report.metadata["n_swapped"] == 8


def test_probe_names_each_model_kinds_score(trained_run, tiny_dataset, tmp_path):
    cfg, summary = trained_run
    report = ex.probe(cfg, summary["final_checkpoint"])
    assert report.metadata["activation"] == "face-class capsule norm (class index 1)"
    cnn = ex.variant_config("cnn", tiny_dataset, tmp_path / "cnn", epochs=1, batch_size=8, seed=5)
    report = ex.probe(cnn, ex.train(cnn, log=lambda m: None)["final_checkpoint"])
    assert report.metadata["activation"] == "face-class sigmoid score (class index 1)"


def test_inspect_outputs_dot_and_table(trained_run):
    cfg, summary = trained_run
    dot, table = ex.inspect(cfg, summary["final_checkpoint"], 0, split="val")
    assert dot.count("digraph") == 2
    assert "->" in dot
    assert "entropy(nats)" in table
    with pytest.raises(ConfigError, match="out of range"):
        ex.inspect(cfg, summary["final_checkpoint"], 99, split="val")


def test_inspect_uniform_model_strengths(tiny_dataset, tmp_path):
    cfg = ex.variant_config(
        "equalcaps", tiny_dataset, tmp_path / "eq2", epochs=1, batch_size=8, seed=3
    )
    summary = ex.train(cfg, log=lambda m: None)
    dot, _ = ex.inspect(cfg, summary["final_checkpoint"], 0, split="val")
    for line in dot.splitlines():
        if "L0." in line and "->" in line:
            assert 'label="0.125000"' in line  # 1/8 exactly
        if "L1." in line and "->" in line:
            assert 'label="0.500000"' in line  # 1/2 exactly


def test_experiment_calls_parse_no_manifest(trained_run, tiny_dataset, tmp_path, monkeypatch):
    def refuse(path):
        raise AssertionError(f"parsed {path}")

    monkeypatch.setattr(ds, "read_manifests", refuse)
    cfg, summary = trained_run
    ex.evaluate(cfg, summary["final_checkpoint"])
    ex.probe(cfg, summary["final_checkpoint"])
    ex.inspect(cfg, summary["final_checkpoint"], 0)
    ex.train(_cfg(tiny_dataset, tmp_path, epochs=1), log=lambda m: None)
