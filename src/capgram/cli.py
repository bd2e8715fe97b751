"""Command-line harness: generate | train | eval | probe | inspect.

Every subcommand takes --config (flat key = value file) plus --out and
--seed overrides. Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import dataset as ds
from . import experiment as ex
from .config import ConfigError, load_flat

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _common(sub):
    sub.add_argument("--config", required=True, help="flat key = value config file")
    sub.add_argument("--out", help="output directory (overrides run.out)")
    sub.add_argument("--seed", type=int, help="seed override")


def _build_parser():
    parser = _Parser(prog="capgram", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = subs.add_parser("generate", help="sample a dataset and write it to disk")
    _common(gen)

    train = subs.add_parser("train", help="train one model variant")
    _common(train)

    evl = subs.add_parser("eval", help="accuracy and routing entropy of a checkpoint")
    _common(evl)
    evl.add_argument("--checkpoint", required=True)
    evl.add_argument("--split", default="val", choices=ds.SPLITS)

    probe = subs.add_parser("probe", help="part-swap compositionality probe")
    _common(probe)
    probe.add_argument("--checkpoint", required=True)

    insp = subs.add_parser("inspect", help="parse forest and entropy table for one sample")
    _common(insp)
    insp.add_argument("--checkpoint", required=True)
    insp.add_argument("--index", type=int, required=True)
    insp.add_argument("--split", default="val", choices=ds.SPLITS)
    return parser


def _out_dir(args, mapping):
    out = args.out or mapping.get("run.out")
    if not out:
        raise ConfigError("missing output directory: set run.out or pass --out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_config(args, mapping):
    return ex.run_config_from_mapping(mapping, out_dir=args.out, seed=args.seed)


def _cmd_generate(args, mapping):
    cfg = ex.dataset_config_from_mapping(mapping, seed=args.seed)
    out = _out_dir(args, mapping)
    ds.generate_dataset(cfg, out_dir=out)
    print(f"wrote dataset ({cfg.n_train} train / {cfg.n_val} val / {cfg.n_probe} probe) to {out}")


def _cmd_train(args, mapping):
    cfg = _run_config(args, mapping)
    summary = ex.train(cfg)
    print(json.dumps(summary, sort_keys=True))


def _write_outputs(cfg, files):
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return out


def _cmd_eval(args, mapping):
    cfg = _run_config(args, mapping)
    report = ex.evaluate(cfg, args.checkpoint, split=args.split)
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    _write_outputs(cfg, {f"eval-{args.split}.json": text + "\n"})


def _cmd_probe(args, mapping):
    cfg = _run_config(args, mapping)
    report = ex.probe(cfg, args.checkpoint)
    text = json.dumps(asdict(report), sort_keys=True, indent=2)
    print(text)
    _write_outputs(cfg, {"probe.json": text + "\n"})


def _cmd_inspect(args, mapping):
    cfg = _run_config(args, mapping)
    dot, table = ex.inspect(cfg, args.checkpoint, args.index, split=args.split)
    dot_name = f"parse-{args.split}-{args.index}.dot"
    out = _write_outputs(cfg, {dot_name: dot, f"entropy-{args.split}-{args.index}.txt": table})
    print(table, end="")
    print(f"parse forest written to {out / dot_name}")


COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "probe": _cmd_probe,
    "inspect": _cmd_inspect,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        mapping = load_flat(args.config)
        COMMANDS[args.command](args, mapping)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"capgram {args.command}: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except Exception as exc:  # noqa: BLE001 - surface as runtime failure
        print(f"capgram {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
