"""Coincidence-count ingestion and criterion evaluation with error budgets.

Counts file format (CSV in UTF-8, header required)::

    setting,a,b,counts[,ax,ay,az,bx,by,bz]

``setting`` numbers the measurement settings 1..m, each once; ``a`` and
``b`` are the +1/-1 outcomes; ``counts`` is a non-negative integer below
2**53.  The six optional columns attach the measurement directions of the
setting (required for the determinant criterion and for systematic-error
estimation) and must be identical on all four rows of a setting.  Numbers
are ASCII numerals.  :func:`load_counts` returns a :class:`CountsData`.

Error model: the statistical error is a parametric Poisson bootstrap over the
observed counts, with mean 1/2 for an empty cell; the systematic error
re-evaluates each criterion with Bob's measurement directions perturbed by
Gaussian angular jitter, using a Werner model with the visibility fitted from
the observed correlations.  The total is the quadrature sum of the two.  The
determinant criterion is refused when the fit cannot be told from noise; see
:func:`evaluate_with_errors`.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from . import qcore
from .criteria import SteeringResult, check_bob_orthogonal, criterion_results, criterion_values
# not called here: perfbench/tracing.py patches these names on this module
from .criteria import db_steering, renyi_steering, tsallis_steering  # noqa: F401
from .qcore import JointTable


class CountsFormatError(ValueError):
    """Raised when a counts file cannot be parsed or validated."""


@dataclass(frozen=True, eq=False)
class CountsData:
    """A counts dataset: the coincidence counts of m settings and, optionally, their directions.

    ``counts[k]`` is setting k + 1's 2x2 table, rows Alice's outcome +1/-1 and
    columns Bob's; ``alice`` and ``bob`` are ``(m, 3)`` unit directions, or
    both None.  Checked once, on construction; every array is read-only.
    """

    counts: np.ndarray  # (m, 2, 2) int64
    alice: np.ndarray | None = None
    bob: np.ndarray | None = None

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.ndim != 3 or counts.shape[1:] != (2, 2):
            raise ValueError(f"counts must have shape (m, 2, 2), got shape {counts.shape}")
        if len(counts) == 0:
            raise ValueError("no count rows found")
        # before the int64 cast, which would truncate 0.5 to 0 and wrap inf or 1e30;
        # below 2**53 a count is exact in float64 and the int64 total cannot overflow
        if not (np.all(np.abs(counts) < 2.0 ** 53) and np.all(counts == np.floor(counts))):
            raise ValueError(f"counts must be whole numbers below 2**53, got {counts.tolist()}")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        vectors = {}
        for name in ("alice", "bob"):
            vecs = getattr(self, name)
            if vecs is not None:
                vecs = qcore.as_array("measurement direction", vecs).copy()
                if vecs.shape != (len(counts), 3):
                    raise ValueError(
                        f"{name} directions must have shape ({len(counts)}, 3), got {vecs.shape}"
                    )
                vectors[name] = vecs
        for k, table in enumerate(counts):  # setting by setting, as a file lists them
            if int(table.sum()) < 1:
                raise ValueError(f"setting {k + 1} has zero total counts")
            for vecs in vectors.values():
                qcore.as_unit_vector(vecs[k])
        if len(vectors) == 1:
            raise ValueError(
                "measurement vectors must be recorded for both parties on every setting or on none"
            )
        for name, value in (("counts", counts.astype(np.int64)), *vectors.items()):
            value.setflags(write=False)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class ErrorBudget:
    """Statistical and systematic one-sigma errors; total in quadrature."""

    stat: float
    sys: float

    @property
    def total(self) -> float:
        return math.hypot(self.stat, self.sys)


#: The cells of a 2x2 counts table, (a, b) in row-major order.
_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


#: The numerals a field may hold, in ASCII only: int() and float() also read
#: "1_0" and non-ASCII digits as numbers.  A float may be nan or inf here;
#: _component refuses those by name.
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)
_FLOAT = re.compile(
    r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)\s*",
    re.ASCII | re.IGNORECASE,
)


def _integer(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"must be an integer, got {text!r}")
    return int(text)


def _outcome(text: str) -> int:
    if text.strip() not in ("+1", "1", "-1"):
        raise ValueError(f"must be +1 or -1, got {text.strip()!r}")
    return int(text)


def _count(text: str) -> int:
    count = _integer(text)
    if not 0 <= count < 2 ** 53:  # before the int64 cell, which overflows past 2**63
        raise ValueError(f"must lie in [0, 2**53), got {count}")
    return count


def _component(text: str) -> float:
    if not _FLOAT.fullmatch(text):
        raise ValueError(f"must be a number, got {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


#: The columns of a counts file in order, each ``(name, parser)``; a parser
#: raises ValueError(reason) and the reader prefixes ``line N: name``.  A
#: vector column's header is the last word of its name.
_COLUMNS = (("setting", _integer), ("a", _outcome), ("b", _outcome), ("counts", _count))
_VECTOR_COLUMNS = tuple((f"vector component {c}", _component) for c in "ax ay az bx by bz".split())


def _header(columns) -> list[str]:
    return [name.split()[-1] for name, _ in columns]


def _text_lines(stream):
    """The lines of a binary stream as UTF-8 text; a bad byte raises CountsFormatError."""
    line_no = 0
    for raw in stream:
        for piece in raw.splitlines(keepends=True):  # \r, \n and \r\n, as newline="" splits
            line_no += 1
            try:
                yield piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CountsFormatError(f"line {line_no}: {exc}") from None


def _csv_rows(stream):
    """``(line, row)`` per row of a CSV stream, ``line`` the physical line the row starts on.

    A quoted field may span lines.  A row the csv module cannot read raises
    CountsFormatError.
    """
    reader = csv.reader(stream)
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise CountsFormatError(f"line {reader.line_num}: {exc}") from None


def load_counts(path) -> CountsData:
    """Parse and validate a UTF-8 counts CSV; see the module docstring for the format."""
    with open(path, "rb") as stream:
        reader = _csv_rows(_text_lines(stream))
        try:
            header = [h.strip() for h in next(reader)[1]]
        except StopIteration:
            raise CountsFormatError(f"{path}: empty counts file") from None
        if header[:4] != _header(_COLUMNS):
            raise CountsFormatError(
                f"{path}: header must start with setting,a,b,counts, got {','.join(header)}"
            )
        columns = _COLUMNS + (_VECTOR_COLUMNS if len(header) > 4 else ())
        if header[4:] != _header(columns)[4:]:
            raise CountsFormatError(
                f"{path}: optional vector columns must be {','.join(_header(_VECTOR_COLUMNS))}"
            )

        settings: dict[int, tuple[dict, list]] = {}  # setting -> ({(a, b): count}, vector)
        for line_no, row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(columns):
                raise CountsFormatError(
                    f"line {line_no}: expected {len(columns)} fields, got {len(row)}"
                )
            values = []
            for (name, parse), text in zip(columns, row):
                try:
                    values.append(parse(text))
                except ValueError as exc:
                    raise CountsFormatError(f"line {line_no}: {name} {exc}") from None
            setting, a, b, count, *vector = values
            cells, first_vector = settings.setdefault(setting, ({}, vector))
            if (a, b) in cells:
                raise CountsFormatError(
                    f"line {line_no}: duplicate entry for setting {setting}, outcomes ({a}, {b})"
                )
            if vector != first_vector:  # exactly: only the first row's vector is kept
                raise CountsFormatError(f"line {line_no}: vectors differ within setting {setting}")
            cells[a, b] = count

    missing = [(m, *ab) for m in sorted(settings) for ab in _OUTCOMES if ab not in settings[m][0]]
    if missing:
        raise CountsFormatError(f"{path}: missing outcome rows {missing}")
    numbers = sorted(settings)
    if numbers != list(range(1, len(numbers) + 1)):
        raise CountsFormatError(f"{path}: settings must be contiguous from 1, got {numbers}")
    counts = np.reshape([[settings[k][0][ab] for ab in _OUTCOMES] for k in numbers], (-1, 2, 2))
    vectors = [settings[k][1] for k in numbers]  # per setting ax..az, bx..bz, or []
    try:
        return CountsData(
            counts, *(np.reshape(vectors, (-1, 2, 3)).swapaxes(0, 1) if len(columns) > 4 else ())
        )
    except ValueError as exc:
        raise CountsFormatError(f"{path}: {exc}") from None


def write_counts(data: CountsData, path) -> None:
    """Write a counts dataset in the CSV format :func:`load_counts` reads."""
    columns = _COLUMNS + (_VECTOR_COLUMNS if data.alice is not None else ())
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(_header(columns))
        for k, table in enumerate(data.counts.tolist()):
            vectors = [f"{c:.17g}" for vecs in (data.alice, data.bob) if vecs is not None
                       for c in vecs[k].tolist()]
            for (a, b), count in zip(_OUTCOMES, table[0] + table[1]):
                writer.writerow([k + 1, f"{a:+d}", f"{b:+d}", count, *vectors])


def counts_to_table(counts) -> JointTable:
    """Maximum-likelihood joint table p = n / sum(n) of one setting's 2x2 counts."""
    counts = np.asarray(counts)
    return JointTable(counts / counts.sum())


def synthesize_counts(mu, alice, bob, total_per_setting, seed=None) -> CountsData:
    """Generate counts from a Werner scenario (the test oracle for this module).

    With ``seed=None`` the expected counts are rounded deterministically;
    with an integer seed each cell is an independent Poisson draw with the
    expected count as its mean.
    """
    rng = None if seed is None else np.random.default_rng(qcore.as_int("seed", seed, 0, math.inf))
    # below 2**53 every count is exact, and the int64 cast cannot overflow
    total = qcore.as_real("total_per_setting", total_per_setting, math.ulp(0.0), 2.0 ** 53 - 1)
    alice, bob = list(alice), list(bob)
    if len(alice) != len(bob):
        raise ValueError(f"alice and bob must list as many settings: {len(alice)} vs {len(bob)}")
    expected = [qcore.joint_table_closed(mu, u, v).probs * total for u, v in zip(alice, bob)]
    expected = np.reshape(expected, (len(alice), 2, 2))
    counts = np.rint(expected).astype(np.int64) if rng is None else rng.poisson(expected)
    return CountsData(counts, alice, bob)


# ---------------------------------------------------------------------------
# evaluation with error budgets
# ---------------------------------------------------------------------------


def fit_visibility(data: CountsData) -> float:
    """Least-squares Werner visibility from the observed correlations.

    Minimises sum_m (E_m + mu u_m.v_m)^2 over mu, using the per-setting
    correlations E_m and the recorded measurement directions.  The fit is not
    clipped to [0, 1]; :func:`evaluate_with_errors` clips it and refuses the
    determinant criterion when the fit cannot be told from noise.
    """
    if data.alice is None:
        raise ValueError(
            "systematic jitter and the determinant criterion need measurement vectors; "
            "attach them to the counts file or the dataset"
        )
    probs = data.counts / data.counts.sum(axis=(1, 2))[:, None, None]
    return float(_least_squares_visibility(probs, qcore.dot(data.alice, data.bob)))


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


#: How many standard errors of the fit :func:`_check_db_fit` allows for noise:
#: a Gaussian fit strays that far with probability below 3e-7.
_FIT_SIGMAS = 5.0


def _fit_error(probs, totals, overlaps) -> float:
    """Standard error of :func:`fit_visibility`'s fit on ``(m, 2, 2)`` tables of ``totals`` counts.

    var(E_m) = max(1 - E_m^2, 1/N_m) / N_m for N_m counts: the binomial
    variance, kept at least one count's worth so that a perfectly correlated
    setting still carries an error.
    """
    corr = qcore.correlation(probs)
    var = np.maximum(1.0 - corr ** 2, 1.0 / totals) / totals
    scale = float(np.abs(overlaps).max())  # no underflow for tiny overlaps
    weights = (overlaps / scale) ** 2
    return math.sqrt(float(weights @ var)) / float(weights.sum()) / scale


def _check_db_fit(criterion, fit, error, probs, alice, bob) -> None:
    """Refuse the determinant criterion where its visibility fit cannot support it.

    Raises ValueError when ``criterion`` would certify at a visibility of
    ``_FIT_SIGMAS`` standard errors, which counts with no correlation can
    fit, or when the fit lies that many standard errors above 1, which no
    state along the recorded directions gives.
    """
    noise = min(_FIT_SIGMAS * error, 1.0)
    if criterion_values([criterion], probs, alice, bob, noise)[0, 0] > 0.0:
        raise ValueError(
            f"the visibility fit is unidentifiable: its standard error is {error:.3g}, "
            f"and db certifies below {_FIT_SIGMAS:g} standard errors, a visibility "
            f"that uncorrelated counts can fit"
        )
    if fit - _FIT_SIGMAS * error > 1.0:
        raise ValueError(
            f"the visibility fit {fit:.6g} lies over {_FIT_SIGMAS:g} standard errors "
            f"({error:.3g}) above 1: the counts contradict the recorded directions"
        )


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


def _jittered_batch(bob, sigma_rad, size, rng) -> np.ndarray:
    """``(size, m, 3)``: :func:`_jittered_vector` on each of Bob's directions, ``size`` times.

    One draw of 4 normals per vector, the 3 of the axis then the angle's, is
    the stream of the vector-at-a-time loop, and the arithmetic rounds as
    that loop rounds it.  An axis of norm 0 (at odds near 2**-104 per vector)
    skips the angle draw there, so that batch is drawn again by the loop.
    """
    state = rng.bit_generator.state
    g = rng.standard_normal((size, len(bob), 4))
    axis = g[..., :3] - qcore.dot(g[..., :3], bob)[..., None] * bob
    norm = np.sqrt(qcore.dot(axis, axis))  # as np.linalg.norm rounds a 3-vector's
    if np.any(norm == 0.0):
        rng.bit_generator.state = state
        return np.array([[_jittered_vector(v, sigma_rad, rng) for v in bob] for _ in range(size)])
    axis /= norm[..., None]
    angle = (0.0 + sigma_rad * g[..., 3]).ravel().tolist()  # rng.normal(0.0, sigma_rad)
    # math, not numpy's SIMD cos and sin, which may round differently on some CPUs
    cos = np.reshape([math.cos(a) for a in angle], norm.shape + (1,))
    sin = np.reshape([math.sin(a) for a in angle], norm.shape + (1,))
    return cos * bob + sin * np.cross(axis, bob)


def _jitter_values(criteria, alice, bob, mu, sigma, count, rng) -> np.ndarray:
    """Each criterion's value on ``count`` Werner models with Bob's directions jittered.

    Directions are drawn and models evaluated ``_REPLICATE_BATCH`` replicates
    at a time; every value equals that of drawing one vector at a time with
    :func:`_jittered_vector`, in the seed's order.
    """
    values = np.empty((len(criteria), count))
    for start in range(0, count, _REPLICATE_BATCH):
        size = min(_REPLICATE_BATCH, count - start)
        jittered = _jittered_batch(bob, sigma, size, rng)
        probs = qcore.werner_probs(mu, alice, jittered)
        values[:, start:start + size] = criterion_values(criteria, probs, alice, jittered, mu)
    return values


def _spread(values) -> list[float]:
    """Sample standard deviation of each row of replicate values; 0 below two replicates."""
    return [float(np.std(row, ddof=1)) if row.size > 1 else 0.0 for row in values]


#: The Poisson mean an empty cell is bootstrapped with, a Jeffreys-type half
#: count: at mean 0 the cell never varies, and the error leaves out how far
#: it may.  Over 2,000 datasets with an empty cell, from the range the
#: ``analyze`` benchmark draws, Renyi-1/2 then lay over 5 total errors from
#: the truth in 15 % of them; with Poisson(1/2) no criterion did in over
#: 0.1 %, and its coverage beat Gamma(1/2)'s.  Other cells draw Poisson(count).
_EMPTY_CELL_MEAN = 0.5

#: Numbers what a seed draws in :func:`evaluate_with_errors`; bumped, with new
#: ``analyze`` pins in ``tests/test_pins.py``, by every change to the numbers a
#: given seed gives.  Version 1 bootstrapped an empty cell as Poisson(0).
BUDGET_STREAM_VERSION = 2


#: Most bootstrap replicates one evaluation may draw.  The Poisson draws take
#: 32 B per replicate and setting (9.6 MB at m = 3) and each criterion's
#: replicate values 8 B per replicate (0.8 MB).  At this size, m = 3 and three
#: criteria, tracemalloc puts the peak at 17 MB: the draws, their per-setting
#: totals (2.4 MB), the values and one batch of normalised replicates with the
#: criteria's temporaries.  The jitter, batched alike, stays below that peak.
MAX_BOOTSTRAP = 100_000


def evaluate_with_errors(
    data: CountsData,
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
    not support.  The determinant criterion is refused where its visibility
    fit cannot support it; see :func:`_check_db_fit`.  Entropic criteria are
    refused unless Bob's recorded directions are orthogonal; a dataset without
    directions is taken to have them (see
    :func:`~steerkit.criteria.check_bob_orthogonal`).
    """
    bootstrap = qcore.as_int("bootstrap replicate count", bootstrap, 0, MAX_BOOTSTRAP)
    seed = qcore.as_int("seed", seed, 0, math.inf)
    jitter_deg = qcore.as_real("jitter in degrees", jitter_deg, 0.0, math.inf)
    criteria = list(criteria)
    dbs = [c for c in criteria if c.kind == "db"]
    needs_fit = bool(dbs) or jitter_deg > 0.0
    raw, alice, bob = data.counts, data.alice, data.bob  # (m, 2, 2) counts
    totals = raw.sum(axis=(1, 2))
    observed = raw / totals[:, None, None]
    fit = fit_visibility(data) if needs_fit else None
    overlaps = qcore.dot(alice, bob) if needs_fit else None
    if dbs:
        _check_db_fit(dbs[0], fit, _fit_error(observed, totals, overlaps), observed[None], alice, bob)
    mu_fit = None if fit is None else min(max(fit, 0.0), 1.0)
    point = _evaluate_criterion(criteria, observed[None], alice, bob, mu_fit)
    check_bob_orthogonal(criteria, bob)  # the recorded directions, after the settings checks

    rng = np.random.default_rng(seed)
    stat_errors = [0.0] * len(criteria)
    sys_errors = [0.0] * len(criteria)

    if bootstrap > 0:
        means = np.where(raw == 0, _EMPTY_CELL_MEAN, raw)  # numpy draws nothing at mean 0
        draws = rng.poisson(lam=means, size=(bootstrap,) + raw.shape)
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
