"""Run configuration: keyed text files with command-line overrides.

Config files are `key = value` lines ('#' starts a comment). Unknown keys
are rejected so typos cannot silently fall back to defaults. Every command
that reads a configuration writes the fully resolved one next to its
outputs. `RunConfig` is the only configuration object: the network, the
training schedule and the data generator all read it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import check_class_count, default_spec

BASELINE_MODES = ("base_only", "fix_hist", "free_all", "score_global",
                  "feat_global", "histnet")
# larger noise overflows the features or the Monte-Carlo ceiling's squared
# distances, whatever the other sizes
NOISE_SIGMA_MAX = 1e100


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
    mode: str = "histnet"

    # optimization
    epochs: int = 30
    batch_size: int = 10
    lr: float = 1e-2
    momentum: float = 0.9
    lr_decay: float = 0.1
    decay_epoch: int = 20

    # compare command
    compare_seeds: int = 3

    def validate(self) -> None:
        """Raise ConfigError for a value no command can run with."""
        bounds = {
            "seed >= 0": self.seed >= 0,
            "B >= 2": self.B >= 2,
            "H, W >= 1": min(self.H, self.W) >= 1,
            "n_train, n_val, n_test, n_mc >= 1":
                min(self.n_train, self.n_val, self.n_test, self.n_mc) >= 1,
            "batch_size >= 1": self.batch_size >= 1,
            "epochs, decay_epoch >= 0": min(self.epochs, self.decay_epoch) >= 0,
            "lr > 0": self.lr > 0,
            "0 <= momentum < 1": 0 <= self.momentum < 1,
            "0 < lr * lr_decay < inf": 0 < self.lr * self.lr_decay < math.inf,
            f"0 <= noise_sigma <= {NOISE_SIGMA_MAX:g}":
                0 <= self.noise_sigma <= NOISE_SIGMA_MAX,
            "compare_seeds >= 1": self.compare_seeds >= 1,
        }
        broken = [rule for rule, ok in bounds.items() if not ok]
        if broken:
            raise ConfigError(f"values out of range, need {'; '.join(broken)}")
        try:
            check_network(self)
            check_class_count(self.K)   # before default_spec allocates (K, D)
            self._check_array_sizes()
            default_spec(K=self.K, D=self.D, noise_sigma=self.noise_sigma,
                         ambiguous_occupancy=self.ambiguous_occupancy)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def _check_array_sizes(self) -> None:
        """Raise ValueError when the largest array of a split, or of the
        Monte-Carlo ceiling, would need more bytes than an intp can count,
        so numpy could never make it."""
        n = max(self.n_train, self.n_val, self.n_test)
        arrays = {
            "a split's (N, max(D, C_feat, K*B), H, W)":
                (n, max(self.D, self.C_feat, self.K * self.B), self.H, self.W),
            "the n_mc draws' (n_mc, K, D)": (self.n_mc, self.K, self.D),
        }
        for name, shape in arrays.items():
            nbytes = 8 * math.prod(shape)
            if nbytes > np.iinfo(np.intp).max:
                raise ValueError(f"sizes too large: {name} float64 array {shape} would "
                                 f"take {nbytes} bytes, more than any array can hold")


def check_network(cfg: RunConfig) -> None:
    """Raise ValueError unless `cfg` describes a network that can be built:
    a known mode and K, B, D and C_feat all at least 1."""
    if cfg.mode not in BASELINE_MODES:
        raise ValueError(f"unknown mode {cfg.mode!r}, expected one of {BASELINE_MODES}")
    if min(cfg.K, cfg.B, cfg.D, cfg.C_feat) < 1:
        raise ValueError("K, B, D and C_feat must all be positive")


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse_value(key: str, raw: str):
    f = _FIELDS[key]
    raw = raw.strip()
    try:
        if f.type in ("int", int):
            return int(raw)
        if f.type in ("float", float):
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from e


def parse_config_text(text: str) -> RunConfig:
    cfg = RunConfig()
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
        try:
            text = p.read_text(encoding="utf-8")
        except UnicodeDecodeError as e:
            raise ConfigError(f"config file {p} is not UTF-8 text: {e}") from e
        cfg = parse_config_text(text)
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
