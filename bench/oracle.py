"""Correctness checks that do not trust the program under test.

Two kinds:

* ``check_single_fit`` re-derives a reported single-curve fit from the raw
  data with the closed forms of the estimator (profile equation, plug-in
  maximal velocity, dispersion, plug-in covariance, Wald interval and
  information criteria).  It shares no code with ``mmhet``: the normal
  quantile comes from ``statistics.NormalDist`` and the root is checked by a
  sign change of the profile equation around the reported half-saturation.
* ``compare_digest`` compares a workload's summarized outputs with the
  values recorded from the seed commit (``bench/reference``).

Both append human-readable problems to a list; an empty list means correct.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

H_FLOOR = 1e-12

# Exponents behind the model labels the CLI prints ("pow:%g").  The default
# screening set has a cube-root shape whose label is rounded to six digits,
# so the exact exponent is looked up here rather than parsed.
POWER_EXPONENTS = {"pow:0.5": 0.5, "pow:0.333333": 1.0 / 3.0}

SINGLE_RTOL = 1e-8


def working_h(model: str, s: np.ndarray) -> np.ndarray:
    if model == "constant":
        h = np.ones_like(s)
    elif model == "log":
        h = np.log1p(s)
    else:
        h = s ** POWER_EXPONENTS[model]
    return np.maximum(h, H_FLOOR)


def _profile(k: float, s, y, h) -> tuple[float, float]:
    d = k + s
    w = s / (d * h)
    t1 = (w * y).sum() * (w * s / d / d).sum()
    t2 = (w * y / d).sum() * (w * s / d).sum()
    return float(t1 - t2), float(max(abs(t1), abs(t2)))


def _close(a: float, b: float, rtol: float, floor: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), floor)


def check_single_fit(s, y, block: dict, where: str, problems: list[str]) -> None:
    """Re-derive one converged single-curve fit block from its data."""
    s = np.asarray(s, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    h = working_h(block["model"], s)
    n = s.size
    vmax, km = block["vmax"], block["km"]

    f0, scale = _profile(km, s, y, h)
    lo, _ = _profile(km * (1.0 - 1e-8), s, y, h)
    hi, _ = _profile(km * (1.0 + 1e-8), s, y, h)
    if not (abs(f0) <= 1e-8 * scale or lo * hi <= 0.0):
        problems.append(f"{where}: km={km!r} is not a root of the profile equation")

    d = km + s
    w = s / (d * h)
    expected = {"vmax": float((w * y).sum() / (w * s / d).sum())}
    mu = vmax * (s / d)
    r = y - mu
    gamma = float(np.mean(r * r / h))
    expected["gamma"] = gamma
    g = np.stack([s / d, -vmax * s / (d * d)], axis=1)
    m = (g.T @ (g / h[:, None])) / n
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    cov_diag = (gamma / n) * np.array([m[1, 1], m[0, 0]]) / det
    se = np.sqrt(np.maximum(cov_diag, 0.0))
    expected["se_vmax"], expected["se_km"] = float(se[0]), float(se[1])
    z = NormalDist().inv_cdf(1.0 - block["alpha"] / 2.0)
    loglik = -0.5 * float(np.sum(np.log(2.0 * math.pi * gamma * h) + r * r / (gamma * h)))
    expected["loglik"] = loglik
    expected["aic"] = -2.0 * loglik + 6.0
    expected["bic"] = -2.0 * loglik + 3.0 * math.log(n)
    for key, want in expected.items():
        if key in block and not _close(block[key], want, SINGLE_RTOL, 1.0):
            problems.append(f"{where}: {key}={block[key]!r}, closed form gives {want!r}")
    for name, est, sd in (("ci_vmax", vmax, se[0]), ("ci_km", km, se[1])):
        want = (est - z * sd, est + z * sd)
        got = block[name]
        if not all(_close(g_, w_, SINGLE_RTOL, abs(est)) for g_, w_ in zip(got, want)):
            problems.append(f"{where}: {name}={got!r}, closed form gives {want!r}")


def check_interval(ci, estimate: float, where: str, problems: list[str]) -> None:
    if not (ci[0] < estimate < ci[1]):
        problems.append(f"{where}: interval {ci!r} does not contain {estimate!r}")


def compare_digest(
    ref: dict, new: dict, rtol_of, floor: float, problems: list[str]
) -> int:
    """Compare two digests group by group; returns the number of groups compared.

    A digest maps group names (one curve, one panel, one metric row) to
    flat field dicts.  A group whose ``status`` differs between the two
    (a fit that converged in one and not the other) is skipped: that is a
    change in the failure count, which ``ok_frac`` reports, not a wrong
    number.  Strings, booleans and integers must match exactly, floats to
    the relative tolerance ``rtol_of(group)``; fields named in
    ``UNCOMPARED`` may legitimately change with the algorithm.
    """
    compared = 0
    if ref.keys() != new.keys():
        missing = sorted(ref.keys() - new.keys())[:5]
        extra = sorted(new.keys() - ref.keys())[:5]
        problems.append(f"output groups differ from reference: missing {missing}, extra {extra}")
    for group in sorted(ref.keys() & new.keys()):
        a, b = ref[group], new[group]
        if a.get("status") != b.get("status"):
            continue
        compared += 1
        rtol = rtol_of(group)
        for field in sorted(a.keys() | b.keys()):
            if field in UNCOMPARED:
                continue
            x, y = a.get(field), b.get(field)
            if isinstance(x, float) and isinstance(y, (int, float)) and not isinstance(y, bool):
                ok = _close(x, float(y), rtol, floor)
            else:
                ok = x == y
            if not ok:
                problems.append(f"{group}.{field}: reference {x!r}, got {y!r}")
    return compared


UNCOMPARED = frozenset({"iterations", "boundary_tau2"})
