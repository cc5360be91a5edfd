"""Output checks for benchmark jobs; they run outside the timed region.

Each ``check_*`` returns a list of problems (empty when the output is right).
References come from outside the code paths being timed: the exact violation
probabilities of ``tests/oracles.py`` (the isotropic one is evaluated on a
whole mu grid at once by :func:`crm_exact`, a vectorised copy that
:func:`oracle_spot_check` compares with the original), and the closed forms of
``steerkit.criteria``, the package's independent analytic route.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from steerkit.criteria import Criterion, Scenario, closed_form

T2, T3 = 0.5, math.sqrt(3.0) / 9.0  # vector-form determinant thresholds
SIGMAS = 5.0
# Slack in counts on top of the 5 sigma band: when n*p is a handful of
# counts the binomial tail is much heavier than the normal one.
SLACK_COUNTS = 5.0
SWEEP_TOL = 1e-10
BRACKET_DEG = 1e-6


def load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("steerkit_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# exact violation probabilities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _legendre(nodes: int = 800):
    return np.polynomial.legendre.leggauss(nodes)


def _pair_tail(x):
    out = np.zeros_like(x)
    inside = x < 1.0
    xi = x[inside]
    out[inside] = np.sqrt(1.0 - xi * xi) - xi * np.arccos(xi)
    return out


def crm_exact(m: int, factor: float, mus) -> np.ndarray:
    """``oracles.crm_probability`` for every mu of a grid (same quadrature)."""
    mus = np.asarray(mus, dtype=float)
    out = np.zeros_like(mus)
    with np.errstate(divide="ignore"):
        c = factor * (T2 / mus ** 2 if m == 2 else T3 / mus ** 3)
    live = (mus > 0.0) & (c < 1.0)
    if not live.any():
        return out
    t, w = _legendre()
    c = c[live][:, None]
    if m == 2:
        lo, hi = np.arcsin(c), np.pi / 2.0
        phi = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        vals = np.sin(phi) * _pair_tail(c / np.sin(phi))
    else:
        lo, hi = 0.0, np.arccos(c)
        phi = 0.5 * (hi - lo) * t + 0.5 * (hi + lo)
        vals = phi * _pair_tail(c / np.cos(phi)) * np.sin(phi)
    out[live] = (0.5 * (hi - lo) * (w * vals).sum(axis=1, keepdims=True))[:, 0]
    return out


def exact_probability(oracles, scheme: str, m: int, factor: float, mus) -> np.ndarray:
    """Exact violation probability of the determinant criterion per mu."""
    mus = np.asarray(mus, dtype=float)
    if scheme == "dihedral":
        return np.array([oracles.dihedral_probability(mu, factor) for mu in mus])
    if scheme == "haar" and m == 2:
        # |n_A . n_B| is uniform on [0, 1] for independent Haar planes.
        with np.errstate(divide="ignore"):
            p = 1.0 - factor / (2.0 * mus ** 2)
        return np.where(mus > 0.0, np.clip(p, 0.0, 1.0), 0.0)
    if scheme == "haar":
        # Orthonormal triads have |det| = 1: a step at mu^3 = f T3.
        return (mus ** 3 > factor * T3).astype(float)
    return crm_exact(m, factor, mus)


def oracle_spot_check(oracles, m: int, factor: float, mus) -> list:
    """The vectorised isotropic reference equals the oracle on a few grid points."""
    problems = []
    picks = [mus[0], mus[len(mus) // 2], mus[-1]] if len(mus) > 2 else list(mus)
    fast = crm_exact(m, factor, picks)
    for mu, value in zip(picks, fast):
        ref = oracles.crm_probability(m, factor, mu)
        if abs(value - ref) > 1e-12:
            problems.append(f"crm_exact(m={m}, f={factor}, mu={mu}) = {value}, oracle {ref}")
    return problems


# ---------------------------------------------------------------------------
# per-job checks
# ---------------------------------------------------------------------------


def _read_csv(path: Path):
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    return rows[0], rows[1:]


def check_mc(job, out: Path, oracles) -> list:
    spec = job.spec
    header, rows = _read_csv(out)
    if header != ["m", "scheme", "mu", "bound_factor", "n_samples", "p_violation", "stderr"]:
        return [f"unexpected mc header {header}"]
    if len(rows) != len(spec["mus"]):
        return [f"{len(rows)} mc rows for {len(spec['mus'])} mu values"]
    n = spec["n"]
    exact = exact_probability(oracles, spec["scheme"], spec["m"], spec["factor"], spec["mus"])
    problems = []
    for row, mu, p in zip(rows, spec["mus"], exact):
        if abs(float(row[2]) - mu) > 1e-9 or int(row[4]) != n:
            problems.append(f"row {row} does not match mu={mu}, n={n}")
            continue
        band = SIGMAS * math.sqrt(n * p * (1.0 - p)) + SLACK_COUNTS
        if abs(float(row[5]) * n - p * n) > band:
            problems.append(
                f"{spec['scheme']} m={spec['m']} f={spec['factor']} mu={mu}: "
                f"p_violation {row[5]} vs exact {p:.12g} (n={n})"
            )
    if spec["hist"]:
        _, bins = _read_csv(Path(f"{out}.hist.csv"))
        mass = sum((float(r) - float(left)) * float(d) for left, r, d in bins)
        if not bins or abs(mass - 1.0) > 1e-9:
            problems.append(f"histogram density integrates to {mass}")
    return problems


def check_sweep(job, out: Path) -> list:
    spec = job.spec
    header, rows = _read_csv(out)
    crits = [Criterion.parse(tok) for tok in spec["criteria"]]
    if len(rows) != len(spec["alphas"]) * len(crits):
        return [f"{len(rows)} sweep rows, expected {len(spec['alphas']) * len(crits)}"]
    problems = []
    for i, row in enumerate(rows):
        alpha = spec["alphas"][i // len(crits)]
        crit = crits[i % len(crits)]
        scenario = Scenario(mu=spec["mu"], alpha_deg=alpha, phi_deg=spec["phi"], m=spec["m"],
                            mode=spec["mode"])
        expected = closed_form(scenario, crit)
        value = float(row[header.index("value")])
        steerable = row[header.index("steerable")]
        if row[header.index("criterion")] != crit.kind or abs(float(row[1]) - alpha) > 1e-9:
            problems.append(f"sweep row {i} is {row[1]}/{row[4]}, expected {alpha}/{crit.kind}")
        elif abs(value - expected) > SWEEP_TOL:
            problems.append(f"sweep row {i}: value {value} vs closed form {expected}")
        elif steerable != ("true" if value > 0.0 else "false"):
            problems.append(f"sweep row {i}: steerable={steerable} for value {value}")
    return problems


def threshold_criterion(spec) -> Criterion:
    kind = spec["criterion"]
    if kind == "tsallis":
        return Criterion("tsallis", q=spec["q"])
    if kind == "renyi":
        return Criterion("renyi", r=spec["rs"][0], s=spec["rs"][1])
    return Criterion(kind)


def check_threshold(job, out: Path) -> list:
    spec = job.spec
    crit = threshold_criterion(spec)

    def value(alpha):
        return closed_form(
            Scenario(mu=spec["mu"], alpha_deg=alpha, phi_deg=spec["phi"], m=spec["m"]), crit
        )

    alpha = json.loads(out.read_text())["critical_alpha_deg"]
    crosses = value(0.0) > 0.0 > value(90.0)
    if alpha is None:
        return [] if not crosses else [f"threshold {spec} is null but the sign changes"]
    if not crosses:
        return [f"threshold {spec} = {alpha} but there is no sign change on [0, 90]"]
    lo, hi = max(alpha - BRACKET_DEG, 0.0), min(alpha + BRACKET_DEG, 90.0)
    if not (value(lo) > 0.0 >= value(hi)):
        return [f"threshold {spec} = {alpha} does not bracket the zero crossing"]
    return []


def check_analyze(job, out: Path) -> list:
    spec = job.spec
    records = json.loads(out.read_text())
    if len(records) != len(spec["criteria"]):
        return [f"{len(records)} analyze records for criteria {spec['criteria']}"]
    scenario = Scenario(mu=spec["mu"], alpha_deg=spec["alpha"], phi_deg=spec["phi"], m=spec["m"])
    problems = []
    for token, rec in zip(spec["criteria"], records):
        errors = [rec["stat_err"], rec["sys_err"], rec["total_err"]]
        if not all(math.isfinite(e) and e >= 0.0 for e in errors):
            problems.append(f"{token}: errors {errors} must be finite and >= 0")
            continue
        expected = closed_form(scenario, Criterion.parse(token))
        if abs(rec["value"] - expected) > 5.0 * rec["total_err"] + 1e-3:
            problems.append(
                f"{token}: value {rec['value']} vs closed form {expected} "
                f"(total_err {rec['total_err']}, scenario {spec})"
            )
    return problems


def check_job(job, out: Path, oracles) -> list:
    command = job.argv[0]
    if command == "mc":
        return check_mc(job, out, oracles)
    if command == "sweep":
        return check_sweep(job, out)
    if command == "threshold":
        return check_threshold(job, out)
    return check_analyze(job, out)
