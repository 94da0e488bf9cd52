"""Reconstruction quality metrics: R^2, normalized Euclidean norm, error maps."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MetricError


@dataclass(frozen=True)
class MetricsReport:
    r_squared: float
    nl2: float
    max_abs_error: float    # [K]
    max_rel_error: float    # [-]
    by_region: dict         # region -> {"r_squared": ..., "nl2": ...}

    def to_dict(self) -> dict:
        return {"r_squared": self.r_squared, "nl2": self.nl2,
                "max_abs_error": self.max_abs_error,
                "max_rel_error": self.max_rel_error,
                "by_region": self.by_region}


def r_squared(predicted, truth) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    p = np.asarray(predicted, float).ravel()
    t = np.asarray(truth, float).ravel()
    if p.size == 0 or p.size != t.size:
        raise MetricError("r_squared needs equal nonempty vectors")
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricError("r_squared undefined for a constant truth vector")
    return 1.0 - float(np.sum((p - t) ** 2)) / ss_tot


def nl2_norm(predicted, truth) -> float:
    """Relative Euclidean error ||p - t||_2 / ||t||_2."""
    p = np.asarray(predicted, float).ravel()
    t = np.asarray(truth, float).ravel()
    if p.size == 0 or p.size != t.size:
        raise MetricError("nl2_norm needs equal nonempty vectors")
    denom = float(np.linalg.norm(t))
    if denom == 0.0:
        raise MetricError("nl2_norm undefined for a zero-norm truth vector")
    return float(np.linalg.norm(p - t)) / denom


@lru_cache(maxsize=16)  # callers pass a mesh's shared region tuple
def _region_masks(region: tuple) -> tuple:
    """(tag, read-only boolean node mask) for each distinct tag of region,
    in first-seen order."""
    tags = np.asarray(region)
    masks = []
    for name in dict.fromkeys(tags.tolist()):
        sel = tags == name
        sel.flags.writeable = False
        masks.append((name, sel))
    return tuple(masks)


def compute_metrics(predicted, truth, region=None) -> MetricsReport:
    """Full metrics report, optionally broken down per region tag (one tag
    per predicted value; MetricError otherwise)."""
    p = np.asarray(predicted, float).ravel()
    t = np.asarray(truth, float).ravel()
    err = np.abs(p - t)
    by_region = {}
    if region is not None:
        region = tuple(region)
        if len(region) != p.size:
            raise MetricError(f"{len(region)} region tags for {p.size} "
                              f"predicted values")
        for name, sel in _region_masks(region):
            by_region[name] = {"r_squared": r_squared(p[sel], t[sel]),
                               "nl2": nl2_norm(p[sel], t[sel])}
    return MetricsReport(r_squared=r_squared(p, t), nl2=nl2_norm(p, t),
                         max_abs_error=float(err.max()),
                         max_rel_error=float((err / np.abs(t)).max()),
                         by_region=by_region)
