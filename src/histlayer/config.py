"""Run configuration: keyed text files with command-line overrides.

Config files are `key = value` lines ('#' starts a comment). Unknown keys
are rejected so typos cannot silently fall back to defaults. Every command
writes the fully resolved configuration next to its outputs.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration key, value or file."""


@dataclass
class RunConfig:
    seed: int = 0

    # synthetic scenes
    K: int = 6
    D: int = 8
    H: int = 16
    W: int = 16
    noise_sigma: float = 0.3
    ambiguous_occupancy: float = 0.3
    n_train: int = 2000
    n_val: int = 500
    n_test: int = 500
    n_mc: int = 200000

    # network
    B: int = 6
    C_feat: int = 16
    stages: int = 2
    mode: str = "histnet"
    share_stage_params: bool = True

    # optimization
    epochs: int = 30
    batch_size: int = 10
    lr: float = 1e-2
    momentum: float = 0.9
    lr_decay: float = 0.1
    decay_epoch: int = 20

    # compare command
    compare_seeds: int = 3


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
        if f.type in ("bool", bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from e


def parse_config_text(text: str, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or RunConfig()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def load_config(path, overrides: list[str] | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        cfg = parse_config_text(p.read_text())
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown override key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    return cfg


def dump_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in dataclasses.fields(RunConfig)]
    return "\n".join(lines) + "\n"


def write_resolved(cfg: RunConfig, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.txt").write_text(dump_config(cfg))


def eval_threads() -> int:
    """Evaluation thread count from HISTLAYER_THREADS; empty or unset means 1."""
    raw = os.environ.get("HISTLAYER_THREADS", "")
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"HISTLAYER_THREADS must be a positive integer, got {raw!r}")
    return n
