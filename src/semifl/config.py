"""Run configuration: flat ``key = value`` files.

Lines are ``key = value`` pairs; blank lines and ``#`` comments (full-line or
trailing) are ignored.  Unknown keys, malformed values, and duplicate keys are
reported with the file name and line number.  Every key has a default, so an
empty file is a valid all-defaults run configuration.
"""

from __future__ import annotations

import math
import os
import re
import typing
from dataclasses import dataclass, fields

from .clustering import PATTERNS
from .errors import ConfigError
from .nn import ARCHITECTURES


@dataclass
class ExperimentConfig:
    """Fully resolved run specification (defaults mirror the reference setup)."""

    mode: str = "semifl"            # semifl | fl | cl
    arch: str = "cnn"               # cnn | mlp
    dataset: str = "mnist"          # mnist | synthetic:<classes>x<per_class>
    data_dir: str = ""              # MNIST IDX directory; empty = $SEMIFL_DATA_DIR
    partition: str = "noniid"       # iid | noniid
    clients: int = 100
    per_client: int = 600
    pattern: str = "c3"             # c1 | c2 | c3 | c4 | explicit
    assignment_file: str = ""
    cluster_order: str = "fixed"    # fixed | shuffled:<seed>
    rounds: int = 200
    local_epochs: int = 5
    local_batch: int = 20
    learning_rate: float = 0.01
    client_fraction: float = 1.0    # share of chains trained per round: fl clients, semifl clusters
    cl_batch: int = 200
    eval_every: int = 5
    checkpoint_every: int = 0       # 0 = final checkpoint only
    master_seed: int = 0

    def dataset_kind(self) -> tuple[str, tuple[int, int] | None]:
        """Split the dataset spec: ("mnist", None) or ("synthetic", (classes, per_class))."""
        if self.dataset == "mnist":
            return "mnist", None
        m = re.fullmatch(r"synthetic:(\d+)x(\d+)", self.dataset)
        if not m:
            raise ConfigError(f"dataset must be 'mnist' or 'synthetic:<classes>x<per_class>', "
                              f"got {self.dataset!r}")
        classes, per_class = int(m.group(1)), int(m.group(2))
        if not (1 <= classes <= 10 and per_class >= 1):
            raise ConfigError(f"dataset {self.dataset!r} needs 1 <= classes <= 10 "
                              f"and per_class >= 1")
        return "synthetic", (classes, per_class)

    def order_spec(self) -> tuple[str, int]:
        """Split cluster_order: ("fixed", 0) or ("shuffled", seed)."""
        if self.cluster_order == "fixed":
            return "fixed", 0
        m = re.fullmatch(r"shuffled:(\d+)", self.cluster_order)
        if not m:
            raise ConfigError(f"cluster_order must be 'fixed' or 'shuffled:<seed>', "
                              f"got {self.cluster_order!r}")
        return "shuffled", int(m.group(1))


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)  # key -> str, int or float, its parser
VALUE_KINDS = {int: "an integer", float: "a number"}  # how errors name a numeric type

_CHOICES = {
    "mode": ("semifl", "fl", "cl"),
    "arch": tuple(ARCHITECTURES),
    "partition": ("iid", "noniid"),
    "pattern": PATTERNS + ("explicit",),
}

_POSITIVE = ("clients", "per_client", "rounds", "local_epochs", "local_batch",
             "cl_batch", "eval_every")
_NON_NEGATIVE = ("checkpoint_every", "master_seed")
_STRINGS = tuple(name for name, ftype in _FIELD_TYPES.items() if ftype is str)


def _convert(key: str, raw: str, where: str):
    parse = _FIELD_TYPES[key]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{where}: key {key!r} needs {VALUE_KINDS[parse]}, "
                          f"got {raw!r}") from None


def validate_config(cfg: ExperimentConfig, origin=None) -> ExperimentConfig:
    """Cross-field checks; raises :class:`ConfigError` naming the offender.

    ``origin`` maps a key to where its value came from, such as ``run.cfg:3``
    or ``--seed``; an error is prefixed with its key's origin, or ``config``.
    """
    origin = origin or {}

    def bad(key: str, msg: str):
        raise ConfigError(f"{origin.get(key, 'config')}: {msg}")

    for key, allowed in _CHOICES.items():
        if getattr(cfg, key) not in allowed:
            bad(key, f"{key} must be one of {', '.join(allowed)}, got {getattr(cfg, key)!r}")
    for key in _POSITIVE:
        if getattr(cfg, key) < 1:
            bad(key, f"{key} must be >= 1, got {getattr(cfg, key)}")
    for key in _NON_NEGATIVE:
        if getattr(cfg, key) < 0:
            bad(key, f"{key} must be >= 0, got {getattr(cfg, key)}")
    for key in _STRINGS:
        value = getattr(cfg, key)
        if any(ch in value for ch in "#\n\r") or value != value.strip():
            bad(key, f"{key} cannot hold '#', a line break or surrounding "
                     f"blanks (config.resolved would not read back), got {value!r}")
    if not (math.isfinite(cfg.learning_rate) and cfg.learning_rate >= 0):
        bad("learning_rate",
            f"learning_rate must be a finite number >= 0, got {cfg.learning_rate}")
    if not 0.0 < cfg.client_fraction <= 1.0:
        bad("client_fraction", f"client_fraction must be in (0, 1], got {cfg.client_fraction}")
    if cfg.pattern == "explicit" and not cfg.assignment_file:
        bad("assignment_file", "pattern=explicit requires assignment_file")
    try:
        cfg.dataset_kind()
    except ConfigError as exc:
        bad("dataset", str(exc))
    try:
        cfg.order_spec()
    except ConfigError as exc:
        bad("cluster_order", str(exc))
    return cfg


def parse_config(path, **overrides) -> ExperimentConfig:
    """Parse and validate a config file.

    ``overrides`` set keys after the file is read, each as a ``(source, value)``
    pair such as ``master_seed=("--seed", 5)``; the one validation runs after
    them, and an error in a value names its file line or its source.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc

    cfg = ExperimentConfig()
    origin = dict.fromkeys(_FIELD_TYPES, path)  # a key left at its default
    seen: dict[str, int] = {}
    for ln, line in enumerate(lines, 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r} "
                              f"(first set on line {seen[key]})")
        seen[key] = ln
        origin[key] = f"{path}:{ln}"
        setattr(cfg, key, _convert(key, raw, origin[key]))
    for key, (source, value) in overrides.items():
        setattr(cfg, key, value)
        origin[key] = source
    return validate_config(cfg, origin)


def render_config(cfg: ExperimentConfig) -> str:
    """Emit the full resolved configuration in re-parseable key = value form."""
    out = ["# resolved configuration"]
    for f in fields(ExperimentConfig):
        out.append(f"{f.name} = {getattr(cfg, f.name)}")
    return "\n".join(out) + "\n"
