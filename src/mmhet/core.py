"""Mean model, working variance families, and data containers.

The mean is the rectangular hyperbola mu(s) = vmax * s / (km + s).  Its
gradient with respect to (vmax, km) is

    g(s) = ( s / (km + s),  -vmax * s / (km + s)^2 ),

which every covariance computation downstream reuses.  Working variance
shapes h(s) come in three families: constant, log(s + 1), and s**p.  All
evaluations are floored at H_FLOOR so 1/h stays finite at s = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from statistics import NormalDist

import numpy as np

# Positivity floor for working variance evaluations.  Keeps reciprocal
# weights finite at s = 0 without perturbing realistic design points.
H_FLOOR = 1e-12


class VarianceFamily(str, Enum):
    CONSTANT = "constant"
    LOG_SHIFT = "log"
    POWER = "pow"


@dataclass(frozen=True)
class VarianceSpec:
    """One working variance shape h(s).

    ``constant`` is h = 1 (ordinary least squares weighting), ``log`` is
    h = log(s + 1), and ``pow`` is h = s**exponent with exponent > 0.
    """

    family: VarianceFamily
    exponent: float | None = None

    def __post_init__(self):
        fam = VarianceFamily(self.family)
        object.__setattr__(self, "family", fam)
        if fam is VarianceFamily.POWER:
            if (
                self.exponent is None
                or not np.isfinite(self.exponent)
                or self.exponent <= 0
            ):
                raise ValueError("power family requires a positive finite exponent")
            object.__setattr__(self, "exponent", float(self.exponent))
        elif self.exponent is not None:
            raise ValueError(f"{fam.value} family takes no exponent")

    @classmethod
    def constant(cls) -> "VarianceSpec":
        return cls(VarianceFamily.CONSTANT)

    @classmethod
    def log_shift(cls) -> "VarianceSpec":
        return cls(VarianceFamily.LOG_SHIFT)

    @classmethod
    def power(cls, exponent: float) -> "VarianceSpec":
        return cls(VarianceFamily.POWER, float(exponent))

    @classmethod
    def parse(cls, text: str) -> "VarianceSpec":
        """Parse the CLI syntax: ``constant``, ``log``, or ``pow:<p>``."""
        t = text.strip().lower()
        if t == "constant":
            return cls.constant()
        if t == "log":
            return cls.log_shift()
        if t.startswith("pow:"):
            return cls.power(float(t[len("pow:"):]))
        raise ValueError(f"unknown variance spec {text!r}; use constant|log|pow:<p>")

    def label(self) -> str:
        if self.family is VarianceFamily.CONSTANT:
            return "constant"
        if self.family is VarianceFamily.LOG_SHIFT:
            return "log"
        return f"pow:{self.exponent:g}"


# Default screening set: weights 1, log(s+1), sqrt(s), cbrt(s).
DEFAULT_CANDIDATES: tuple[VarianceSpec, ...] = (
    VarianceSpec.constant(),
    VarianceSpec.log_shift(),
    VarianceSpec.power(0.5),
    VarianceSpec.power(1.0 / 3.0),
)


def eval_h(spec: VarianceSpec, s):
    """Evaluate h(s) under ``spec``, floored at H_FLOOR.  Vectorized over s."""
    arr = np.asarray(s, dtype=np.float64)
    if spec.family is VarianceFamily.CONSTANT:
        h = np.ones_like(arr)
    elif spec.family is VarianceFamily.LOG_SHIFT:
        h = np.log1p(arr)
    else:
        h = np.power(arr, spec.exponent)
    h = np.maximum(h, H_FLOOR)
    return float(h) if h.ndim == 0 else h


@dataclass(frozen=True)
class MMParams:
    """Michaelis-Menten mean parameters (maximal velocity, half saturation)."""

    vmax: float
    km: float

    def __post_init__(self):
        vmax = float(self.vmax)
        km = float(self.km)
        if not math.isfinite(vmax) or vmax <= 0:
            raise ValueError(f"vmax must be positive and finite, got {vmax!r}")
        if not math.isfinite(km) or km <= 0:
            raise ValueError(f"km must be positive and finite, got {km!r}")
        object.__setattr__(self, "vmax", vmax)
        object.__setattr__(self, "km", km)

    def as_array(self) -> np.ndarray:
        return np.array([self.vmax, self.km], dtype=np.float64)


def _frozen_1d(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """One curve: substrate concentrations ``s`` and velocities ``y``.

    Containers are permissive (any n >= 1, finite values, s >= 0); the
    single-curve fit itself requires at least three distinct substrate
    levels and raises DegenerateDesign otherwise, so that small clusters
    remain representable.
    """

    s: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        s = _frozen_1d(self.s, "s")
        y = _frozen_1d(self.y, "y")
        if s.size != y.size:
            raise ValueError("s and y must have the same length")
        if s.size < 1:
            raise ValueError("dataset must contain at least one observation")
        if not np.all(np.isfinite(s)) or not np.all(np.isfinite(y)):
            raise ValueError("s and y must be finite")
        if np.any(s < 0):
            raise ValueError("substrate concentrations must be nonnegative")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.s.size)


def _group_by_label(s: np.ndarray, y: np.ndarray, labels) -> dict[str, Dataset]:
    """Label -> Dataset of its rows of s and y, labels ordered by first
    appearance and each label's rows in input order."""
    # One pass: each row's label code in first-appearance order, then a
    # stable sort, which keeps every label's rows in input order.
    codes: dict[str, int] = {}
    code = np.fromiter(
        (codes.setdefault(lab, len(codes)) for lab in labels),
        dtype=np.intp,
        count=len(labels),
    )
    rows = np.split(np.argsort(code, kind="stable"), np.cumsum(np.bincount(code))[:-1])
    return {lab: Dataset(s[at], y[at]) for lab, at in zip(codes, rows)}


@dataclass(frozen=True, eq=False)
class ClusteredDataset:
    """m >= 2 curves sharing mean parameters, one random shift per cluster."""

    clusters: tuple[Dataset, ...]
    cluster_ids: tuple[str, ...] = ()

    def __post_init__(self):
        clusters = tuple(self.clusters)
        if len(clusters) < 2:
            raise ValueError("need at least two clusters")
        if not all(isinstance(c, Dataset) for c in clusters):
            raise ValueError("clusters must be Dataset instances")
        ids = tuple(str(c) for c in self.cluster_ids)
        if not ids:
            ids = tuple(f"c{i}" for i in range(len(clusters)))
        if len(ids) != len(clusters):
            raise ValueError("cluster_ids length must match clusters")
        if len(set(ids)) != len(ids):
            raise ValueError("cluster_ids must be unique")
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "cluster_ids", ids)

    @classmethod
    def from_labels(cls, s, y, labels) -> "ClusteredDataset":
        """Group rows by label, preserving order of first appearance."""
        s = np.asarray(s, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        labels = [str(v) for v in labels]
        if not (s.size == y.size == len(labels)):
            raise ValueError("s, y, labels must have equal length")
        groups = _group_by_label(s, y, labels)
        return cls(tuple(groups.values()), tuple(groups))

    @property
    def m(self) -> int:
        return len(self.clusters)

    @property
    def n_total(self) -> int:
        return sum(c.n for c in self.clusters)

    def pooled(self) -> Dataset:
        s = np.concatenate([c.s for c in self.clusters])
        y = np.concatenate([c.y for c in self.clusters])
        return Dataset(s, y)


def mm_mean(s, params: MMParams):
    """Mean velocity mu(s) = vmax * s / (km + s).

    Computed as vmax * (s / (km + s)) so the half-saturation identity
    mu(km) = vmax / 2 holds exactly in floating point.
    """
    arr = np.asarray(s, dtype=np.float64)
    out = params.vmax * (arr / (params.km + arr))
    return float(out) if out.ndim == 0 else out


def mm_gradient(s, params: MMParams) -> np.ndarray:
    """Gradient of mu with respect to (vmax, km); shape (..., 2)."""
    arr = np.asarray(s, dtype=np.float64)
    denom = params.km + arr
    g1 = arr / denom
    g2 = -params.vmax * arr / (denom * denom)
    return np.stack([g1, g2], axis=-1)


def residuals(data: Dataset, params: MMParams) -> np.ndarray:
    return data.y - mm_mean(data.s, params)


def wald_z(alpha: float) -> float:
    """Standard normal quantile z_{1 - alpha/2} of a two-sided Wald interval."""
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)
