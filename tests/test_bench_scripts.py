"""The layer benchmarks in ``scripts/`` against the package they time.

``scripts/bench_layers.py`` reaches capgram by attribute name, so a renamed
or removed function breaks it. Its test runs it twice with one timed call per
measurement at a small batch, writing into a temporary directory, and checks
the keys of both JSON files it writes.
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
def bench(monkeypatch):
    """``scripts/bench_layers.py`` at batch 2, with one timed call per measurement."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins these; restore them afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))  # and prepends src/
    spec = importlib.util.spec_from_file_location("bench_layers", SCRIPTS / "bench_layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "REPS", 1)
    monkeypatch.setattr(module, "BATCH", 2)
    return module


def test_bench_layers_smoke(bench, tmp_path):
    earlier = {
        "BENCH_correlate2d.json": ("correlate2d", {"batch": 32, "sites": [], "totals": {}}),
        "BENCH_routing.json": ("routing", {"batch": 32, "layers": [], "totals": {}}),
    }
    for name, (benchmark, run) in earlier.items():
        (tmp_path / name).write_text(json.dumps({"benchmark": benchmark, "runs": {"702392c": [run]}}))
    bench.main(["--out-dir", str(tmp_path)])
    bench.main(["--out-dir", str(tmp_path)])
    runs = {}
    for name, (benchmark, run) in earlier.items():
        result = json.loads((tmp_path / name).read_text())
        assert result["benchmark"] == benchmark
        assert result["runs"].pop("702392c") == [run]  # runs of other commits are kept
        ((commit, by_commit),) = result["runs"].items()  # both runs kept under one commit
        assert commit == bench.commit() and len(by_commit) == 2
        runs[benchmark] = run = by_commit[-1]
        assert run["reps"] == 1 and run["batch"] == 2
        assert {"environment", "totals"} <= set(run)

    run = runs["correlate2d"]
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

    run = runs["routing"]
    assert [(l["layer"], l["predictions"][0], l["iters"]) for l in run["layers"]] == [
        ("L0", 2, 3), ("L1", 2, 3)
    ]
    for layer in run["layers"]:
        for dt in ("float32", "float64"):
            assert set(layer[dt]) == {"fwd_ms", "fwd_bwd_ms"}
    for dt in ("float32", "float64"):
        assert set(run["totals"][dt]) == {"fwd_ms", "fwd_bwd_ms"}


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
