#!/usr/bin/env python3
"""Run the six-variant experiment matrix over one or more seeds.

Produces per-run artifacts under <out>/<seed>/<variant>/, a markdown
summary table (accuracy, routing entropy, probe activations) at
<out>/results.md, and the per-seed, per-variant rows it summarises at
<out>/results.json.

Usage: python3 scripts/run_matrix.py --out results --seeds 7 8 9 [--epochs 30]
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from capgram import dataset as ds
from capgram import experiment as ex

ORDER = list(ex.VARIANTS)


def run_seed(dataset_dir, out_root, seed, epochs):
    rows = {}
    for name in ORDER:
        out_dir = Path(out_root) / str(seed) / name.replace(".", "_")
        cfg = ex.variant_config(name, dataset_dir, out_dir, seed=seed, epochs=epochs)
        t0 = time.time()
        summary = ex.train(cfg, log=lambda msg: None)
        wall = time.time() - t0
        final = summary["final_checkpoint"]
        ev = ex.evaluate(cfg, final, split="val")
        report = ex.probe(cfg, final)
        rows[name] = {
            "accuracy": ev["accuracy"],
            "entropy_total": ev["entropy_total"],
            "intact": report.mean_activation_intact,
            "swapped": report.mean_activation_swapped,
            "drop": report.activation_drop,
            "wall_s": wall,
        }
        print(
            f"seed {seed} {name:10s} acc {ev['accuracy']:.4f} "
            f"entropy {ev['entropy_total']:.4f} drop {report.activation_drop:+.4f} "
            f"({wall:.0f}s)",
            flush=True,
        )
        (out_dir / "summary.json").write_text(json.dumps(rows[name], sort_keys=True) + "\n")
    return rows


def write_table(all_rows, path, epochs):
    lines = [
        f"# Experiment matrix ({len(all_rows)} seed(s), {epochs} epochs)",
        "",
        "| variant | val accuracy | routing entropy (nats) | intact act. | swapped act. | activation drop |",
        "|---|---|---|---|---|---|",
    ]
    for name in ORDER:
        per_seed = [rows[name] for rows in all_rows.values()]

        def stat(key):
            vals = np.array([r[key] for r in per_seed])
            if len(vals) == 1:
                return f"{vals[0]:.4f}"
            return f"{vals.mean():.4f} ± {vals.std(ddof=1):.4f}"

        lines.append(
            f"| {name} | {stat('accuracy')} | {stat('entropy_total')} | "
            f"{stat('intact')} | {stat('swapped')} | {stat('drop')} |"
        )
    lines += [
        "",
        "Activations are the face-class capsule norm (sigmoid score for the CNN);",
        "the drop is intact minus part-swapped. Entropy sums per-layer means.",
        "",
    ]
    Path(path).write_text("\n".join(lines))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--dataset-seed", type=int, default=42)
    ap.add_argument("--n-train", type=int, default=2000)
    ap.add_argument("--n-val", type=int, default=400)
    ap.add_argument("--n-probe", type=int, default=400)
    args = ap.parse_args(argv)

    out_root = Path(args.out)
    dataset_dir = out_root / "data"
    cfg = ds.DatasetConfig(
        n_train=args.n_train, n_val=args.n_val, n_probe=args.n_probe, seed=args.dataset_seed
    )
    ds.generate_dataset(cfg, out_dir=dataset_dir)
    print(f"dataset at {dataset_dir}", flush=True)

    all_rows = {}
    for seed in args.seeds:
        all_rows[seed] = run_seed(dataset_dir, out_root, seed, args.epochs)
    write_table(all_rows, out_root / "results.md", args.epochs)
    results = {"epochs": args.epochs, "seeds": {str(s): rows for s, rows in all_rows.items()}}
    (out_root / "results.json").write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"table at {out_root / 'results.md'}, rows at {out_root / 'results.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
