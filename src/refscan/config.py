"""Run configuration: model dims, hierarchy/branch toggles, optimizer knobs."""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from numbers import Integral, Real

from .errors import ConfigError

# numpy indexes an array only while its byte count fits an intp
_MAX_VALUES = sys.maxsize // 8


def _kind_error(kind: str, value) -> str | None:
    """Why ``value`` is not of the field kind ``kind`` ("int", "float" or
    "bool"), or None when it is. Ints are integers and not bools, floats
    finite reals, toggles bools."""
    if kind == "bool":
        return None if isinstance(value, bool) else "must be true or false"
    if isinstance(value, bool) or not isinstance(value, Integral if kind == "int" else Real):
        return "must be an integer" if kind == "int" else "must be a number"
    if kind == "float" and not math.isfinite(value):
        return "must be finite"
    return None


def check_kinds(cfg) -> None:
    """Raise ``ConfigError`` naming the first field of the dataclass ``cfg``
    whose value is not of its declared kind; a ``kind | None`` field also
    takes None."""
    for f in fields(cfg):
        kind, _, optional = f.type.partition(" | ")
        value = getattr(cfg, f.name)
        problem = None if optional and value is None else _kind_error(kind, value)
        if problem is not None:
            raise ConfigError(f"{f.name} {problem}, got {value!r}")


def indexable_shape(cfg, what: str, sides: tuple) -> tuple[int, ...]:
    """The shape of ``what``, an array of 8-byte values whose ``sides`` are
    size fields of ``cfg`` or fixed ints; a ``ConfigError`` naming its
    largest field if numpy cannot index it."""
    shape = tuple(getattr(cfg, side) if isinstance(side, str) else side for side in sides)
    count = math.prod(shape)
    if count > _MAX_VALUES:
        size, name = max((size, side) for size, side in zip(shape, sides) if isinstance(side, str))
        raise ConfigError(
            f"{name} {size} is too large: {what}, {' x '.join(map(str, sides))}, would hold {count} "
            "8-byte values, more than numpy can index"
        )
    return shape


def from_fields(cls, data, what: str):
    """``cls(**data).validate()``; ``data`` must be a JSON object whose keys
    are fields of ``cls``, and ``what`` names it in the errors."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**data).validate()


@dataclass
class TrainConfig:
    # model dims (desk-scale defaults; production-scale dims are 768 -> 256)
    d: int = 32
    d_s: int = 16
    d_a: int = 16
    n: int = 16
    n_prompts: int = 6
    frames: int = 8
    num_classes: int = 10
    # scene-attribute intake
    conf_threshold: float = 0.7
    max_detections: int = 10
    # hierarchy toggles (holistic / keyword / scene-attribute query branches)
    use_holistic: bool = True
    use_keyword: bool = True
    use_attribute: bool = True
    # branch toggles
    use_temporal: bool = True
    use_spatial: bool = True
    # fusion variants
    use_mhs_ca: bool = True
    lambda_box: float = 1.0
    aux_branch_loss: bool = False
    # optimization
    learning_rate: float = 1e-4
    lr_decay: float = 0.9
    warmup_ratio: float = 0.1
    batch: int = 8
    steps: int = 2000
    seed: int = 0

    def validate(self) -> "TrainConfig":
        """Check each field's type, then its range; a bad field raises
        ``ConfigError`` naming it."""
        check_kinds(self)
        for name in ("d", "d_s", "d_a", "n", "frames", "num_classes", "batch"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_prompts < 0:
            raise ConfigError(f"n_prompts must be >= 0, got {self.n_prompts}")
        for name in ("max_detections", "steps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (self.use_holistic or self.use_keyword or self.use_attribute):
            raise ConfigError("at least one hierarchy must stay enabled")
        if not (self.use_temporal or self.use_spatial):
            raise ConfigError("at least one branch must stay enabled")
        if not self.use_mhs_ca and self.d_s != self.d_a:
            raise ConfigError("disabling cross-attention fusion requires d_s == d_a")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if not (0.0 <= self.warmup_ratio < 1.0):
            raise ConfigError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if not (0.0 <= self.conf_threshold <= 1.0):
            raise ConfigError(f"conf_threshold must be in [0, 1], got {self.conf_threshold}")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return from_fields(cls, data, "config")
