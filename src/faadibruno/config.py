"""Run configuration shared by the equality protocol, law checkers and CLI."""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class RunConfig:
    seed: int = 42
    samples: int = 200
    tol_rel: float = 1e-9
    tol_abs: float = 1e-8
    order: int = 4
    radius: float = 2.0
    retry_cap: int = 10_000

    def __post_init__(self):
        if self.samples <= 0 or self.retry_cap <= 0 or self.order < 0:
            raise ConfigError("counts must be positive")
        if self.tol_rel <= 0 or self.tol_abs <= 0 or self.radius <= 0:
            raise ConfigError("tolerances and radius must be positive")
        # an infinite floor would make every residual 0.0, so every value check pass
        if not math.isfinite(self.abs_floor):
            raise ConfigError(f"tol_abs / tol_rel must be finite, got "
                              f"{self.tol_abs!r} / {self.tol_rel!r}")

    @property
    def abs_floor(self) -> float:
        """Magnitude below which the absolute tolerance takes over:
        |a-b| <= tol_rel * max(|a|, |b|, abs_floor)."""
        return self.tol_abs / self.tol_rel

    def with_(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def derive_seed(seed: int, label: str) -> int:
    """Deterministic per-check seed: all randomness flows from RunConfig.seed,
    with a stable (non-salted) label mix so reports are reproducible."""
    return (seed * 0x9E3779B1 + zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF
