"""The layer benchmarks in ``scripts/`` against the package they time.

``scripts/bench_conv.py`` and ``scripts/bench_routing.py`` reach capgram by
attribute name, so a renamed or removed function breaks them. These tests
run each once with one timed call per measurement at a small batch, writing
into a temporary directory, and check the keys of the JSON they write.
``scripts/run_matrix.py`` runs every variant for one epoch and one seed on a
16/8/8 dataset, and the test checks the rows of both files it writes.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from capgram import experiment as ex
from capgram.autodiff import GEMM_WORK_THRESHOLD

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def load_script(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the scripts pin these; restore them afterwards
    monkeypatch.setattr(sys, "path", [str(SCRIPTS)] + sys.path)

    def load(name):
        spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.setattr(module, "REPS", 1)
        monkeypatch.setattr(module, "BATCH", 2)
        return module

    return load


def test_bench_conv_smoke(load_script, tmp_path):
    out = tmp_path / "conv.json"
    earlier = {"batch": 32, "sites": [], "totals": {}}
    out.write_text(json.dumps({"benchmark": "correlate2d", "runs": {"702392c": [earlier]}}))
    bench = load_script("bench_conv")
    bench.main(["--out", str(out)])
    bench.main(["--out", str(out)])
    result = json.loads(out.read_text())
    assert result["benchmark"] == "correlate2d"
    assert result["runs"].pop("702392c") == [earlier]  # runs of other commits are kept
    ((commit, runs),) = result["runs"].items()  # both runs kept under one commit
    assert commit == bench.commit() and len(runs) == 2
    run = runs[-1]
    assert run["reps"] == 1 and run["batch"] == 2
    assert {"environment", "sites", "totals"} <= set(run)
    assert [(s["site"], s["function"]) for s in run["sites"]] == [
        (name, "correlate2d")
        for name in ("stem0", "stem1", "primary", "predict0", "predict1", "conv0", "conv1", "conv2", "conv3", "head")
    ] + [("pool0", "max_pool_window"), ("pool1", "max_pool_window")]
    for site in run["sites"]:
        for dt in ("float32", "float64"):
            assert set(site[dt]) == {"fwd_ms", "bwd_ms", "fwd_peak_mb", "bwd_peak_mb"}
    convs = [s for s in run["sites"] if s["function"] == "correlate2d"]
    # each conv's label names the forward branch its work count selects
    assert [s["forward_path"] for s in convs] == [
        "gemm" if s["macs"] > GEMM_WORK_THRESHOLD else "loop" for s in convs
    ]
    assert {s["forward_path"] for s in convs} == {"gemm", "loop"}
    for dt in ("float32", "float64"):
        assert set(run["totals"][dt]) == {"capsnet.correlate2d", "cnn.correlate2d", "cnn.max_pool_window"}


def test_bench_routing_smoke(load_script, tmp_path):
    out = tmp_path / "routing.json"
    bench = load_script("bench_routing")
    bench.main(["--out", str(out)])
    bench.main(["--out", str(out)])
    result = json.loads(out.read_text())
    assert result["benchmark"] == "routing"
    ((commit, runs),) = result["runs"].items()  # both runs kept under one commit
    assert commit == bench.commit() and len(runs) == 2
    run = runs[-1]
    assert run["reps"] == 1 and run["batch"] == 2
    assert {"environment", "layers", "totals"} <= set(run)
    assert [(l["layer"], l["predictions"][0], l["iters"]) for l in run["layers"]] == [
        ("L0", 2, 3), ("L1", 2, 3)
    ]
    for layer in run["layers"]:
        for dt in ("float32", "float64"):
            assert set(layer[dt]) == {"fwd_ms", "fwd_bwd_ms"}


def test_run_matrix_smoke(tmp_path):
    spec = importlib.util.spec_from_file_location("run_matrix", SCRIPTS / "run_matrix.py")
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    argv = ["--out", str(tmp_path), "--seeds", "7", "--epochs", "1"]
    assert matrix.main(argv + ["--n-train", "16", "--n-val", "8", "--n-probe", "8"]) == 0
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["epochs"] == 1 and list(results["seeds"]) == ["7"]
    rows = results["seeds"]["7"]
    assert sorted(rows) == sorted(ex.VARIANTS)
    for row in rows.values():
        assert set(row) == {"accuracy", "entropy_total", "intact", "swapped", "drop", "wall_s"}
    table = (tmp_path / "results.md").read_text().splitlines()
    names = [line.split(" | ")[0][2:] for line in table if line.startswith("| ") and "---" not in line]
    assert names == ["variant"] + list(ex.VARIANTS)
