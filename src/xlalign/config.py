"""Experiment configuration: flat key=value files plus command-line overrides."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

FRAMEWORKS = ("joint_seq2seq", "joint_infersent", "transfer", "sentence_map", "word_dict_map")
ENCODER_KINDS = ("bilstm_maxpool", "sif")


class ConfigError(ValueError):
    """Invalid input: a setting, a flag or a file that xlalign rejects. A file's
    fault is raised where the file is read, its message starting with the path."""


def read_file(path, read, encoding="utf-8"):
    """read(fh) over the file at `path` opened as text; a byte that does not
    decode is a ConfigError naming the file."""
    try:
        with open(path, encoding=encoding) as fh:
            return read(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


@dataclass
class ExperimentConfig:
    framework: str = "transfer"
    encoder: str = "bilstm_maxpool"
    languages: tuple = ("la", "lb")  # pivot first
    corpus_dir: str = ""             # corpus files; empty: generate the cipher corpus

    cipher_vocab: int = 50
    cipher_sentences: int = 1200
    nli_size: int = 300

    dim: int = 32
    hidden: int = 32
    lr: float = 1e-3
    batch: int = 16
    steps: int = 2000
    pivot_steps: int = 800
    p_del: float = 0.1
    p_swap: float = 0.1
    min_count: int = 1

    splits: tuple = (100, 200, 500, 1000)
    test_size: int = 200
    seed: int = 0
    out_dir: str = "out"

    def as_lines(self):
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(str(x) for x in v)
            out.append(f"{f.name}={v}")
        return out

    def digest(self):
        return hashlib.sha256("\n".join(self.as_lines()).encode("utf-8")).hexdigest()[:16]


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(name, raw):
    if "\0" in raw:  # no path or language name can hold one
        raise ValueError("a NUL character")
    default = getattr(ExperimentConfig(), name)
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, tuple):
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if name == "splits":
            return tuple(int(x) for x in items)
        return tuple(items)
    return raw


def parse_config(text, overrides=()):
    """Parse key=value lines (# comments allowed) and apply `k=v` overrides."""
    values = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        values[key.strip()] = raw.strip()
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        values[key.strip()] = raw.strip()

    cfg = ExperimentConfig()
    for key, raw in values.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            setattr(cfg, key, _coerce(key, raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
    validate_config(cfg)
    return cfg


def load_config(path, overrides=()):
    """`parse_config` of the file at `path`; a ConfigError names the file."""
    text = read_file(path, lambda fh: fh.read())
    try:
        return parse_config(text, overrides)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def validate_config(cfg):
    if cfg.framework not in FRAMEWORKS:
        raise ConfigError(
            f"framework {cfg.framework!r} is not one of {', '.join(FRAMEWORKS)}")
    if cfg.encoder not in ENCODER_KINDS:
        raise ConfigError(f"encoder {cfg.encoder!r} is not one of {', '.join(ENCODER_KINDS)}")
    if cfg.framework in ("joint_seq2seq", "joint_infersent", "transfer") and cfg.encoder != "bilstm_maxpool":
        raise ConfigError(f"framework {cfg.framework!r} requires encoder bilstm_maxpool")
    if cfg.framework == "word_dict_map" and cfg.encoder != "sif":
        raise ConfigError("framework word_dict_map requires encoder sif")
    if len(cfg.languages) != 2 or cfg.languages[0] == cfg.languages[1]:
        raise ConfigError(f"exactly two distinct languages expected, got {cfg.languages}")
    for name, kind in _FIELD_TYPES.items():
        value, low = getattr(cfg, name), 0 if name == "seed" else 1
        if kind == "int" and value < low:
            raise ConfigError(f"{name} must be at least {low}, got {value}")
        if name in ("p_del", "p_swap") and not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if name == "lr" and not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{name} must be finite and positive, got {value}")
    if not cfg.splits:
        raise ConfigError("at least one split size is required")
    if list(cfg.splits) != sorted(set(cfg.splits)):
        raise ConfigError(f"splits must be strictly increasing: {cfg.splits}")
    if cfg.splits[0] < 1:
        raise ConfigError(f"split sizes must be positive: {cfg.splits}")
    if cfg.test_size < 2:
        raise ConfigError("test_size must be at least 2")
    return cfg
