"""Flat key = value configuration files with dotted section prefixes.

Example::

    # capsule run
    run.seed = 7
    model.kind = capsnet
    loss.w_ent_start = 0.4
    loss.w_ent_end = 0.4

Blank lines and '#' comments are ignored; values stay strings until a
consumer types them.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration: a usage error, not a runtime failure."""


def parse_flat(text):
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_flat(path):
    try:
        with open(path) as fh:
            return parse_flat(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def typed(mapping, key, kind):
    raw = mapping[key]
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc
