"""Run configuration: a flat ``key = value`` text file.

One file fully describes a training run: data paths, model architecture,
loss weights, coupling mode, optimizer settings, and the seed. The same
file is copied into the run's output directory so evaluation can rebuild
the exact model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..csvfile import atomic_write, read_lines
from ..errors import ConfigError, InvalidSpec
from ..models import InputDims, ModelSpec, RecurrentSpec
from ..relatedness import BUILTIN_TABLES, RelatednessTable, load_table

COUPLING_MODES = ("none", "coannotation", "soft_coannotation", "distr_matching", "soft+distr")


def parse_kv_file(
    path, parsers: Optional[Mapping[str, Callable[[str], Any]]] = None
) -> Dict[str, Any]:
    """Parse ``key = value`` lines of UTF-8 text; blank lines and '#' comment
    lines skipped. A key may appear once. With ``parsers``, only their keys
    are allowed and each value is converted by its key's parser; a byte that
    is not UTF-8, an unknown key, or a value the parser rejects with
    ValueError raises ConfigError at ``path:line``."""
    out: Dict[str, Any] = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        where = f"{path}:{lineno}"
        if not sep:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key in out:
            raise ConfigError(f"{where}: {key!r} is set twice")
        if parsers is not None:
            if key not in parsers:
                raise ConfigError(f"{where}: unknown key {key!r}")
            try:
                value = parsers[key](value)
            except ValueError as exc:
                raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
        out[key] = value
    return out


def _bool(value: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "1", "yes"):
        return True
    if v in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _int_tuple(value: str) -> Tuple[int, ...]:
    value = value.strip()
    if not value:
        return ()
    return tuple(int(v) for v in value.split(","))


def _str_tuple(value: str) -> Tuple[str, ...]:
    value = value.strip()
    if not value:
        return ()
    return tuple(v.strip().upper() for v in value.split(",") if v.strip())


# the parser of a RunConfig field value, by the field's type annotation
_FIELD_PARSERS: Dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "bool": _bool,
    "str": str,
    "Tuple[int, ...]": _int_tuple,
    "Tuple[str, ...]": _str_tuple,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0

    # input dimensions
    feature_dim: int = 16
    audio_dim: int = 0
    landmark_dim: int = 0

    # architecture
    backbone: Tuple[int, ...] = (24,)
    taps: Tuple[int, ...] = ()
    recurrent: str = "none"  # none | single:HxL | per_tap:HxL
    streams: int = 1
    heads: Tuple[str, ...] = ("EXPR", "AU", "VA")
    landmark_concat: bool = False
    dropout: float = 0.0
    recurrent_dropout: float = 0.0
    compound_classes: int = 11
    ensemble_members: int = 0  # >= 2 trains an end-to-end fused ensemble
    ensemble_fusion: str = "fc"
    fusion_width: int = 16

    # objective
    lambda1: float = 1.0
    lambda2: float = 1.0
    coupling: str = "none"
    relatedness: str = "cognitive"  # cognitive | empirical | file:<path>
    reweight_soft: bool = True
    reweight_mixture: bool = False

    # optimization
    lr: float = 1e-4
    lr_decay: float = 0.96
    lr_decay_start: int = 10
    epochs: int = 5
    total_batch: int = 12
    shuffle: bool = True

    # evaluation
    au_threshold: float = 0.5

    # paths
    train_annotations: str = ""
    train_features: str = ""
    val_annotations: str = ""
    val_features: str = ""
    out_dir: str = "run_out"
    init_from: str = ""
    freeze_trunk: bool = False

    def validate(self) -> None:
        if self.coupling not in COUPLING_MODES:
            raise ConfigError(
                f"coupling={self.coupling!r}; choose one of {COUPLING_MODES}"
            )
        if self.coupling in ("soft_coannotation", "distr_matching", "soft+distr"):
            if "EXPR" not in self.heads or "AU" not in self.heads:
                raise ConfigError(
                    f"coupling={self.coupling} needs both EXPR and AU heads"
                )
        if not (self.relatedness in BUILTIN_TABLES or self.relatedness.startswith("file:")):
            raise ConfigError(f"relatedness={self.relatedness!r}")
        for name in ("seed", "ensemble_members"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} = {value} must be >= 0")
        if self.feature_dim < 1:
            raise ConfigError(f"feature_dim = {self.feature_dim} must be >= 1")
        if self.total_batch < 1:
            raise ConfigError("total_batch must be positive")
        if bool(self.val_annotations) != bool(self.val_features):
            raise ConfigError("set both val_annotations and val_features, or neither")
        if self.epochs < 0:
            raise ConfigError("epochs must be nonnegative")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError("lr_decay must be in (0,1]")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr = {self.lr!r} must be finite and positive")
        if not 0.0 <= self.au_threshold <= 1.0:
            raise ConfigError(f"au_threshold = {self.au_threshold!r} must be in [0, 1]")
        for name in ("lambda1", "lambda2"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} = {value!r} must be finite and >= 0")
        self.model_spec().validate()

    # -- derived objects ------------------------------------------------

    def _recurrent_spec(self) -> Optional[RecurrentSpec]:
        value = self.recurrent.strip().lower()
        if value in ("", "none"):
            return None
        kind, sep, dims = value.partition(":")
        try:
            hidden_s, _, layers_s = dims.partition("x")
            return RecurrentSpec(kind=kind, hidden=int(hidden_s), layers=int(layers_s or 1))
        except ValueError:
            raise ConfigError(
                f"recurrent={self.recurrent!r}; expected none or kind:HIDDENxLAYERS"
            ) from None

    def model_spec(self) -> ModelSpec:
        base = ModelSpec(
            backbone=self.backbone,
            taps=self.taps,
            recurrent=self._recurrent_spec(),
            streams=self.streams,
            heads=self.heads,
            landmark_concat=self.landmark_concat,
            dropout=self.dropout,
            recurrent_dropout=self.recurrent_dropout,
            compound_classes=self.compound_classes,
        )
        if self.ensemble_members >= 2:
            return ModelSpec(
                members=tuple([base] * self.ensemble_members),
                fusion=self.ensemble_fusion,
                fusion_width=self.fusion_width,
                heads=self.heads,
                compound_classes=self.compound_classes,
            )
        return base

    def input_dims(self) -> InputDims:
        return InputDims(
            features=self.feature_dim, audio=self.audio_dim, landmarks=self.landmark_dim
        )

    def relatedness_table(self) -> RelatednessTable:
        if self.relatedness.startswith("file:"):
            return load_table(self.relatedness[len("file:") :])
        return BUILTIN_TABLES[self.relatedness]

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        """Read a config file; an unknown key or a bad value raises
        ConfigError at ``path:line``, and a value that ``validate`` refuses
        raises its error with ``path`` in front."""
        parsers = {f.name: _FIELD_PARSERS[f.type] for f in fields(cls)}
        config = cls(**parse_kv_file(path, parsers))
        try:
            config.validate()
        except (ConfigError, InvalidSpec) as exc:
            raise type(exc)(f"{path}: {exc}") from exc
        return config

    def override(self, **kwargs) -> "RunConfig":
        config = replace(self, **kwargs)
        config.validate()
        return config

    def to_file(self, path) -> None:
        with atomic_write(path, "w", encoding="utf-8") as fh:
            for f in fields(self):
                value = getattr(self, f.name)
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                elif isinstance(value, bool):
                    value = "true" if value else "false"
                elif isinstance(value, float):
                    value = repr(value)
                fh.write(f"{f.name} = {value}\n")
