"""Coincidence-count ingestion and criterion evaluation with error budgets.

Counts file format (CSV, header required)::

    setting,a,b,counts[,ax,ay,az,bx,by,bz]

``setting`` numbers the measurement settings contiguously from 1; ``a`` and
``b`` are the +1/-1 outcomes; ``counts`` is a non-negative integer below
2**53.  The six optional columns attach the measurement directions of the
setting (required for the determinant criterion and for systematic-error
estimation) and must be identical on all four rows of a setting.

Error model: the statistical error is a parametric Poisson bootstrap over the
observed counts; the systematic error re-evaluates each criterion with Bob's
measurement directions perturbed by Gaussian angular jitter, using a Werner
model with the visibility fitted from the observed correlations.  The total
is the quadrature sum of the two.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import qcore
from .criteria import SteeringResult, criterion_results, criterion_values
# not called here: perfbench/tracing.py patches these names on this module
from .criteria import db_steering, renyi_steering, tsallis_steering  # noqa: F401
from .qcore import JointTable


class CountsFormatError(ValueError):
    """Raised when a counts file cannot be parsed or validated."""


@dataclass(frozen=True)
class CountsRecord:
    """Coincidence counts for one measurement setting."""

    setting: int
    counts: np.ndarray  # 2x2 ints, rows Alice outcome +1/-1, cols Bob
    alice_vec: np.ndarray | None = None
    bob_vec: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != (2, 2):
            raise ValueError(f"counts must be 2x2, got shape {counts.shape}")
        # before the int64 cast, which would truncate 0.5 to 0 and wrap inf or 1e30;
        # below 2**53 a count is exact in float64 and the int64 total cannot overflow
        if not (np.all(np.abs(counts) < 2.0 ** 53) and np.all(counts == np.floor(counts))):
            raise ValueError(f"counts must be whole numbers below 2**53, got {counts.tolist()}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        total = int(counts.sum())
        if total < 1:
            raise ValueError(f"setting {self.setting} has zero total counts")
        counts = counts.astype(np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        for name in ("alice_vec", "bob_vec"):
            vec = getattr(self, name)
            if vec is not None:
                object.__setattr__(self, name, qcore.as_unit_vector(vec))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class ErrorBudget:
    """Statistical and systematic one-sigma errors; total in quadrature."""

    stat: float
    sys: float

    @property
    def total(self) -> float:
        return math.hypot(self.stat, self.sys)


_OUTCOME_INDEX = {1: 0, -1: 1}
_VECTOR_COLUMNS = ("ax", "ay", "az", "bx", "by", "bz")


def _parse_outcome(text: str, line_no: int, column: str) -> int:
    text = text.strip()
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise CountsFormatError(f"line {line_no}: {column} must be +1 or -1, got {text!r}")


def load_counts(path) -> list[CountsRecord]:
    """Parse and validate a counts CSV; see the module docstring for the format."""
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise CountsFormatError(f"{path}: empty counts file") from None
        header = [h.strip() for h in header]
        if header[:4] != ["setting", "a", "b", "counts"]:
            raise CountsFormatError(
                f"{path}: header must start with setting,a,b,counts, got {','.join(header)}"
            )
        has_vectors = len(header) > 4
        if has_vectors and tuple(header[4:]) != _VECTOR_COLUMNS:
            raise CountsFormatError(
                f"{path}: optional vector columns must be {','.join(_VECTOR_COLUMNS)}"
            )

        cells: dict[int, np.ndarray] = {}
        seen: set[tuple[int, int, int]] = set()
        vectors: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            expected = 10 if has_vectors else 4
            if len(row) != expected:
                raise CountsFormatError(
                    f"line {line_no}: expected {expected} fields, got {len(row)}"
                )
            try:
                setting = int(row[0])
            except ValueError:
                raise CountsFormatError(
                    f"line {line_no}: setting must be an integer, got {row[0]!r}"
                ) from None
            if setting < 1:
                raise CountsFormatError(f"line {line_no}: settings are numbered from 1")
            a = _parse_outcome(row[1], line_no, "a")
            b = _parse_outcome(row[2], line_no, "b")
            try:
                count = int(row[3])
            except ValueError:
                raise CountsFormatError(
                    f"line {line_no}: counts must be an integer, got {row[3]!r}"
                ) from None
            if count < 0:
                raise CountsFormatError(f"line {line_no}: negative counts ({count})")
            key = (setting, a, b)
            if key in seen:
                raise CountsFormatError(
                    f"line {line_no}: duplicate entry for setting {setting}, outcomes ({a}, {b})"
                )
            seen.add(key)
            cells.setdefault(setting, np.zeros((2, 2), dtype=np.int64))
            cells[setting][_OUTCOME_INDEX[a], _OUTCOME_INDEX[b]] = count
            if has_vectors:
                try:
                    values = [float(c) for c in row[4:]]
                except ValueError:
                    raise CountsFormatError(
                        f"line {line_no}: vector components must be numbers"
                    ) from None
                for column, value in zip(_VECTOR_COLUMNS, values):
                    if not math.isfinite(value):
                        raise CountsFormatError(
                            f"line {line_no}: vector component {column} must be finite, got {value}"
                        )
                pair = (np.array(values[:3]), np.array(values[3:]))
                if setting in vectors:
                    prev = vectors[setting]
                    if not (np.allclose(prev[0], pair[0]) and np.allclose(prev[1], pair[1])):
                        raise CountsFormatError(
                            f"line {line_no}: vectors differ within setting {setting}"
                        )
                else:
                    vectors[setting] = pair

    if not cells:
        raise CountsFormatError(f"{path}: no count rows found")
    settings = sorted(cells)
    if settings != list(range(1, len(settings) + 1)):
        raise CountsFormatError(
            f"{path}: settings must be contiguous from 1, got {settings}"
        )
    missing = [
        (m, a, b)
        for m in settings
        for a in (1, -1)
        for b in (1, -1)
        if (m, a, b) not in seen
    ]
    if missing:
        raise CountsFormatError(f"{path}: missing outcome rows {missing}")

    records = []
    for m in settings:
        alice_vec, bob_vec = vectors.get(m, (None, None))
        try:
            records.append(
                CountsRecord(m, cells[m], alice_vec=alice_vec, bob_vec=bob_vec)
            )
        except ValueError as exc:
            raise CountsFormatError(f"{path}: {exc}") from None
    return records


def write_counts(records, path) -> None:
    """Write counts records in the CSV format accepted by :func:`load_counts`."""
    records = list(records)
    has_vectors = any(rec.alice_vec is not None for rec in records)
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        header = ["setting", "a", "b", "counts"]
        if has_vectors:
            header += list(_VECTOR_COLUMNS)
        writer.writerow(header)
        for rec in records:
            for a in (1, -1):
                for b in (1, -1):
                    row = [rec.setting, f"{a:+d}", f"{b:+d}",
                           int(rec.counts[_OUTCOME_INDEX[a], _OUTCOME_INDEX[b]])]
                    if has_vectors:
                        if rec.alice_vec is None or rec.bob_vec is None:
                            raise ValueError(
                                f"setting {rec.setting} lacks vectors but others have them"
                            )
                        row += [f"{c:.17g}" for c in rec.alice_vec]
                        row += [f"{c:.17g}" for c in rec.bob_vec]
                    writer.writerow(row)


def counts_to_table(record: CountsRecord) -> JointTable:
    """Maximum-likelihood joint table p = n / sum(n)."""
    return JointTable(record.counts / record.total)


def synthesize_counts(mu, alice, bob, total_per_setting, seed=None) -> list[CountsRecord]:
    """Generate counts from a Werner scenario (the test oracle for this module).

    With ``seed=None`` the expected counts are rounded deterministically;
    with an integer seed each cell is an independent Poisson draw with the
    expected count as its mean.
    """
    rng = None if seed is None else np.random.default_rng(qcore.as_int("seed", seed))
    alice, bob, total = list(alice), list(bob), float(total_per_setting)
    if len(alice) != len(bob):
        raise ValueError(f"alice and bob must list as many settings: {len(alice)} vs {len(bob)}")
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(f"total_per_setting must be finite and > 0, got {total_per_setting}")
    records = []
    for i, (u, v) in enumerate(zip(alice, bob)):
        expected = qcore.joint_table_closed(mu, u, v).probs * total
        counts = np.rint(expected).astype(np.int64) if rng is None else rng.poisson(expected)
        records.append(CountsRecord(i + 1, counts, alice_vec=u, bob_vec=v))
    return records


# ---------------------------------------------------------------------------
# evaluation with error budgets
# ---------------------------------------------------------------------------


def fit_visibility(records) -> float:
    """Least-squares Werner visibility from the observed correlations.

    Minimises sum_m (E_m + mu u_m.v_m)^2 over mu, using the per-setting
    correlations E_m and the recorded measurement directions.
    """
    records = list(records)
    for rec in records:
        if rec.alice_vec is None or rec.bob_vec is None:
            raise ValueError(f"setting {rec.setting} carries no measurement vectors")
    overlaps = [float(np.dot(rec.alice_vec, rec.bob_vec)) for rec in records]
    probs = np.stack([counts_to_table(rec).probs for rec in records])
    return float(_least_squares_visibility(probs, overlaps))


def _least_squares_visibility(probs, overlaps):
    """The fit of :func:`fit_visibility` for each ``(..., m, 2, 2)`` set of tables."""
    corr = qcore.correlation(probs)
    num = 0.0
    den = 0.0
    for k, overlap in enumerate(overlaps):
        num = num + -corr[..., k] * overlap
        den += overlap ** 2
    if den == 0.0:
        raise ValueError("all measurement overlaps vanish; visibility is unidentifiable")
    return num / den


#: Replicates normalised and evaluated at a time: bounds the criteria's
#: temporaries whatever the bootstrap size, and leaves every value unchanged.
_REPLICATE_BATCH = 4096


def _replicate_values(draws, criteria, alice, bob, overlaps) -> np.ndarray:
    """Each criterion's value on each ``(B, m, 2, 2)`` Poisson replicate, in order.

    A replicate with a zero-total setting cannot be normalised and is left
    out (only possible at tiny counts).  With ``overlaps`` each replicate's
    visibility is fitted, unclipped: clamping would pin replicates fitted
    above 1 to exactly 1 and collapse the spread of the determinant value.
    """
    totals = draws.sum(axis=(2, 3))
    kept = np.flatnonzero(np.all(totals > 0, axis=1))
    values = np.empty((len(criteria), kept.size))
    for start in range(0, kept.size, _REPLICATE_BATCH):
        rows = kept[start:start + _REPLICATE_BATCH]
        probs = draws[rows] / totals[rows][:, :, None, None]
        mu = None if overlaps is None else _least_squares_visibility(probs, overlaps)
        values[:, start:start + rows.size] = criterion_values(criteria, probs, alice, bob, mu)
    return values


def _evaluate_criterion(criteria, probs, alice, bob, mu) -> list[SteeringResult]:
    # every criterion's point estimate on the one observed (1, m, 2, 2) row, in one call
    return criterion_results(criteria, probs, alice, bob, mu)[0]


def _jittered_vector(vec, sigma_rad, rng) -> np.ndarray:
    # Rotate vec by a N(0, sigma) angle about a random axis orthogonal to it.
    g = rng.standard_normal(3)
    axis = g - np.dot(g, vec) * vec
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        return vec
    axis /= norm
    angle = rng.normal(0.0, sigma_rad)
    return math.cos(angle) * vec + math.sin(angle) * np.cross(axis, vec)


def _jitter_values(criteria, alice, bob, mu, sigma, count, rng) -> np.ndarray:
    """Each criterion's value on ``count`` Werner models with Bob's directions jittered.

    Directions are drawn one at a time, in the seed's order; models are evaluated in batches.
    """
    values = np.empty((len(criteria), count))
    for start in range(0, count, _REPLICATE_BATCH):
        size = min(_REPLICATE_BATCH, count - start)
        jittered = np.array([[_jittered_vector(v, sigma, rng) for v in bob] for _ in range(size)])
        probs = qcore.werner_probs(mu, alice, jittered)
        values[:, start:start + size] = criterion_values(criteria, probs, alice, jittered, mu)
    return values


def _spread(values) -> list[float]:
    """Sample standard deviation of each row of replicate values; 0 below two replicates."""
    return [float(np.std(row, ddof=1)) if row.size > 1 else 0.0 for row in values]


#: Most bootstrap replicates one evaluation may draw.  The Poisson draws take
#: 32 B per replicate and setting (9.6 MB at m = 3) and each criterion's
#: replicate values 8 B per replicate (0.8 MB).  At this size, m = 3 and three
#: criteria, tracemalloc puts the peak at 17 MB: the draws, their per-setting
#: totals (2.4 MB), the values and one batch of normalised replicates with the
#: criteria's temporaries.  The jitter, batched alike, stays below that peak.
MAX_BOOTSTRAP = 100_000


def evaluate_with_errors(
    records,
    criteria,
    bootstrap: int = 1000,
    jitter_deg: float = 0.1,
    seed: int = 0,
):
    """Point estimates plus error budgets for a list of criteria.

    Returns ``[(SteeringResult, ErrorBudget), ...]`` in the order given.
    ``bootstrap`` Poisson replicates feed the statistical error; the same
    number of jittered-vector replicates feeds the systematic error (skipped
    when ``jitter_deg`` is 0).  Deterministic for a given seed.

    Every input check runs before the first replicate: the point estimate
    goes through the same estimators, which reject a settings count they do
    not support.
    """
    bootstrap = qcore.as_int("bootstrap replicate count", bootstrap)
    seed = qcore.as_int("seed", seed)
    if not 0 <= bootstrap <= MAX_BOOTSTRAP:
        raise ValueError(
            f"bootstrap replicate count must lie in [0, {MAX_BOOTSTRAP}], got {bootstrap}"
        )
    if not (math.isfinite(jitter_deg) and jitter_deg >= 0.0):
        raise ValueError(f"jitter must be finite and >= 0 degrees, got {jitter_deg}")
    records = sorted(records, key=lambda rec: rec.setting)
    criteria = list(criteria)
    needs_fit = any(c.kind == "db" for c in criteria) or jitter_deg > 0.0
    if needs_fit and any(rec.alice_vec is None or rec.bob_vec is None for rec in records):
        raise ValueError(
            "systematic jitter and the determinant criterion need measurement vectors; "
            "attach them to the counts file or the records"
        )
    alice = np.array([rec.alice_vec for rec in records]) if needs_fit else None
    bob = np.array([rec.bob_vec for rec in records]) if needs_fit else None

    raw = np.array([rec.counts for rec in records]).reshape(-1, 2, 2)  # (m, 2, 2)
    observed = raw / raw.sum(axis=(1, 2))[:, None, None]
    mu_fit = min(max(fit_visibility(records), 0.0), 1.0) if needs_fit else None
    point = _evaluate_criterion(criteria, observed[None], alice, bob, mu_fit)

    rng = np.random.default_rng(seed)
    stat_errors = [0.0] * len(criteria)
    sys_errors = [0.0] * len(criteria)

    if bootstrap > 0:
        draws = rng.poisson(lam=raw, size=(bootstrap,) + raw.shape)
        overlaps = [float(np.dot(u, v)) for u, v in zip(alice, bob)] if needs_fit else None
        stat_errors = _spread(_replicate_values(draws, criteria, alice, bob, overlaps))

    if jitter_deg > 0.0 and bootstrap > 0:
        sigma = math.radians(jitter_deg)
        sys_errors = _spread(_jitter_values(criteria, alice, bob, mu_fit, sigma, bootstrap, rng))

    if not all(math.isfinite(err) for err in stat_errors + sys_errors):
        raise ValueError("the error budget overflows: the visibility fit is unidentifiable")
    return [
        (res, ErrorBudget(stat=stat, sys=sys_err))
        for res, stat, sys_err in zip(point, stat_errors, sys_errors)
    ]


def results_to_json_records(evaluated) -> list[dict]:
    """JSON-serialisable records {criterion, order, value, stat_err, sys_err, ...}."""
    return [
        {"criterion": result.criterion, "order": result.order, "value": result.value,
         "stat_err": budget.stat, "sys_err": budget.sys, "total_err": budget.total,
         "steerable": result.steerable}
        for result, budget in evaluated
    ]
