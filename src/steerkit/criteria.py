"""Steering criteria: entropic parameters, determinant witnesses, solvers.

Every criterion is normalised so that a positive value certifies steering
(the classical bound of the normalised parameter is 0).  Two independent
evaluation routes are provided for each criterion:

* :func:`evaluate` and :func:`sweep` feed each setting's joint table and
  measurement directions through :func:`criterion_values`, the one evaluator
  that measured data and its replicates go through too;
* :func:`closed_form` evaluates the analytic Werner-state expression.

The two routes agree to ~1e-12 on valid scenarios and the test-suite pins
that equivalence.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import entropy as ent
from . import qcore

#: Separable bound of the vector-form determinant criterion (violation means
#: the left-hand side exceeds this).
DB_VECTOR_THRESHOLD = {2: 0.5, 3: math.sqrt(3.0) / 9.0}


def db_bound(m: int, d_a: int = 2) -> float:
    """Separable bound on |det D|: (1/sqrt(d_A)) ((sqrt(2 d_A) - 1)/(m sqrt(d_A)))^m."""
    # below 2**53, before the float arithmetic, which overflows
    m = qcore.as_int("settings count", m, 2, 2 ** 53 - 1)
    d_a = qcore.as_int("untrusted-side dimension", d_a, 2, 2 ** 53 - 1)
    return (1.0 / math.sqrt(d_a)) * ((math.sqrt(2.0 * d_a) - 1.0) / (m * math.sqrt(d_a))) ** m


#: Scale factor mapping the vector-form LHS onto |det D| for qubits, fixed by
#: requiring the determinant and vector forms to be the same inequality:
#: c_m = db_bound(m, 2) / DB_VECTOR_THRESHOLD[m].  See docs/db_normalization.md.
DB_SCALE = {m: db_bound(m, 2) / DB_VECTOR_THRESHOLD[m] for m in (2, 3)}


#: The order parameters each criterion kind takes.
_ORDER_NAMES = {"shannon": ("q",), "tsallis": ("q",), "renyi": ("r", "s"), "db": ()}


@dataclass(frozen=True)
class Criterion:
    """A steering criterion and its orders, checked here for every caller.

    Tsallis takes a finite q >= 1; q = 1 is ``shannon``, which carries q = 1.
    Renyi takes r, s >= 1/2 (inf allowed) with 1/r + 1/s = 2, by default
    (1/2, inf).  ``db`` takes no order.
    """

    kind: str  # shannon | tsallis | renyi | db
    q: float | None = None
    r: float | None = None
    s: float | None = None

    def __post_init__(self):
        kind, q = self.kind, self.q
        if kind not in _ORDER_NAMES:
            raise ValueError(f"unknown criterion {kind!r}")
        for name in ("q", "r", "s"):
            if getattr(self, name) is not None and name not in _ORDER_NAMES[kind]:
                raise ValueError(f"the {kind} criterion takes no order {name}")
        if kind == "renyi":
            r = ent.check_renyi_order(0.5 if self.r is None else self.r)
            s = ent.check_renyi_order(math.inf if self.s is None else self.s)
            inv = 1.0 / r + 1.0 / s
            if abs(inv - 2.0) > 1e-9:
                raise ValueError(f"Renyi orders must satisfy 1/r + 1/s = 2, got 1/r + 1/s = {inv}")
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "s", s)
        elif kind != "db":
            q = ent.check_tsallis_order(1.0 if kind == "shannon" and q is None else q)
            if kind == "shannon" and q != 1.0:
                raise ValueError(f"the shannon criterion is Tsallis order q = 1, got q = {q}")
            object.__setattr__(self, "kind", "shannon" if q == 1.0 else "tsallis")
            object.__setattr__(self, "q", q)

    @classmethod
    def parse(cls, token: str) -> "Criterion":
        """Parse a CLI token: shannon, tsallisQ, renyi, renyi(R,S) or db."""
        token = token.strip()
        if token in ("shannon", "renyi", "db"):
            return cls(token)
        try:  # a malformed number, such as tsallis. or renyi(x,1), is a malformed token
            if match := re.fullmatch(r"renyi\(([^,]+),([^)]+)\)", token):
                kind, orders = "renyi", {"r": parse_order(match[1]), "s": parse_order(match[2])}
            elif match := re.fullmatch(r"tsallis([0-9.]+)", token):
                kind, orders = "tsallis", {"q": float(match[1])}
            else:
                raise ValueError
        except ValueError:
            raise ValueError(f"cannot parse criterion {token!r}; "
                             "expected shannon, tsallisQ, renyi, renyi(R,S) or db") from None
        return cls(kind, **orders)

    def order_label(self, m: int | None = None) -> str:
        """The ``order`` column of a result, such as q=2 or r=0.5,s=inf; ``db`` reads m=3."""
        if self.kind == "db":
            return "" if m is None else f"m={m}"
        return ",".join([f"{name}={getattr(self, name):g}" for name in _ORDER_NAMES[self.kind]])


def parse_order(text: str) -> float:
    """An entropy order: a number, or inf / infinity / oo."""
    return math.inf if text.strip() == "oo" else float(text)  # float reads inf and infinity


@dataclass(frozen=True)
class SteeringResult:
    """Outcome of one steering test; positive ``value`` certifies steering."""

    criterion: str
    order: str
    value: float

    @property
    def steerable(self) -> bool:
        return self.value > 0.0


@dataclass(frozen=True)
class Scenario:
    """A Werner-state measurement scenario (state + measurement geometry)."""

    mu: float
    alpha_deg: float = 0.0
    phi_deg: float = 0.0
    m: int = 2
    mode: str = "mub"  # mub | nom | explicit
    alice: tuple | None = None
    bob: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "mu", qcore.as_visibility(self.mu))
        qcore.as_angles(self.alpha_deg, self.phi_deg)
        qcore.as_settings_count(self.m)
        if self.mode not in ("mub", "nom", "explicit"):
            raise ValueError(f"unknown measurement mode {self.mode!r}")
        if self.mode == "explicit":
            if self.alice is None or self.bob is None:
                raise ValueError("explicit mode needs alice and bob vectors")
            alice = tuple(qcore.as_unit_vector(u) for u in self.alice)
            bob = tuple(qcore.as_unit_vector(v) for v in self.bob)
            if len(alice) != self.m or len(bob) != self.m:
                raise ValueError("explicit vectors must match the settings count")
            object.__setattr__(self, "alice", alice)
            object.__setattr__(self, "bob", bob)

    def settings(self):
        """Measurement directions ``(alice, bob)`` for this scenario."""
        if self.mode == "mub":
            return qcore.mub_settings(self.m, self.alpha_deg, self.phi_deg)
        if self.mode == "nom":
            return qcore.nom_settings(self.m)
        return self.alice, self.bob


# ---------------------------------------------------------------------------
# table- / vector-based estimators (the measurement pipeline)
# ---------------------------------------------------------------------------


def _on_tables(criterion: Criterion, tables) -> SteeringResult:
    # the tables as one (1, m, 2, 2) row; m = 0 reaches the settings checks
    probs = np.array([table.probs for table in tables]).reshape(1, -1, 2, 2)
    return criterion_results([criterion], probs, None, None, None)[0][0]


def _tsallis_values(probs, q: float) -> np.ndarray:
    # the bound for m = probs.shape[-3] settings minus the terms, summed over settings in order
    bound = ent.eur_bound_tsallis(q, m=probs.shape[-3])
    terms = ent.conditional_tsallis(probs, q)
    total = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        total = total + terms[..., k]
    return bound - total


def _renyi_values(probs, r: float, s: float) -> np.ndarray:
    bound = ent.eur_bound_renyi2(probs.shape[-3])
    first = ent.conditional_arimoto(probs[..., 0, :, :], r)
    return bound - first - ent.conditional_arimoto(probs[..., 1, :, :], s)


def _db_lhs_values(alice, bob, mu) -> np.ndarray:
    # the vector-form left-hand side of each row, from (m, 3) or (..., m, 3) directions
    alice, bob = (list(np.moveaxis(vecs, -2, 0)) for vecs in (alice, bob))  # one entry per setting
    m = qcore.as_settings_count(len(alice))
    if m == 2:
        factors = [qcore.dot(np.cross(alice[0], alice[1]), np.cross(bob[0], bob[1]))]
    else:
        factors = [qcore.dot(vecs[0], np.cross(vecs[1], vecs[2])) for vecs in (alice, bob)]
    lhs = ent.libm_pow(mu, m)
    for factor in factors:
        lhs = lhs * abs(factor)
    return lhs


def criterion_values(criteria, probs, alice, bob, mu) -> np.ndarray:
    """Each criterion's value on every row of a batch, shape ``(len(criteria), B)``.

    ``probs`` holds ``(B, m, 2, 2)`` joint probabilities.  ``db`` reads both
    parties' directions, ``(m, 3)`` for every row or ``(B, m, 3)`` one set
    per row, and the visibility ``mu``, one or one per row, unchecked.  Each
    value equals, to the bit, what its row alone gives.
    """
    m = probs.shape[-3]
    values = np.empty((len(criteria), len(probs)))
    for i, criterion in enumerate(criteria):
        if criterion.kind == "db":
            lhs = _db_lhs_values(alice, bob, mu)  # checks the settings count
            values[i] = DB_SCALE[m] * lhs - db_bound(m, 2)
        elif criterion.kind == "renyi":
            values[i] = _renyi_values(probs, criterion.r, criterion.s)
        else:
            values[i] = _tsallis_values(probs, criterion.q)
    return values


def criterion_results(criteria, probs, alice, bob, mu) -> list[list[SteeringResult]]:
    """:func:`criterion_values` labelled: one list of results per row, criteria in order."""
    labels = [(criterion.kind, criterion.order_label(probs.shape[-3])) for criterion in criteria]
    values = criterion_values(criteria, probs, alice, bob, mu).T.tolist()
    return [[SteeringResult(*label, value) for label, value in zip(labels, row)] for row in values]


def check_bob_orthogonal(criteria, bob) -> None:
    """ValueError naming the largest overlap unless Bob's directions are pairwise orthogonal.

    Only entropic criteria are checked: their built-in bounds hold for
    orthogonal qubit measurements.  ``bob`` of None (no recorded directions)
    is taken to be orthogonal.
    """
    if bob is None or all(criterion.kind == "db" for criterion in criteria):
        return
    overlap, i, j = max((abs(float(np.dot(bob[i], bob[j]))), i + 1, j + 1)
                        for i in range(len(bob)) for j in range(i + 1, len(bob)))
    if overlap > qcore.ATOL:
        raise ValueError(
            f"entropic criteria need Bob's directions to be pairwise orthogonal, "
            f"got |b{i}.b{j}| = {overlap:.6g}"
        )


def tsallis_steering(tables, q: float) -> SteeringResult:
    """Tsallis steering parameter: uncertainty bound minus summed conditional terms.

    The bound is the built-in one for len(tables) orthogonal settings (2 or
    3): the tables carry no directions, so Bob is taken to have measured
    along orthogonal ones.  ``q = 1`` gives the Shannon criterion.
    """
    return _on_tables(Criterion("tsallis", q=q), tables)


def renyi_steering(tables, r: float, s: float) -> SteeringResult:
    """Renyi steering parameter ln 2 - H_r(B|A)_1 - H_s(B|A)_2.

    Only defined for exactly two settings, with conjugate orders
    1/r + 1/s = 2 and r, s >= 1/2.  Table 1 is evaluated at order ``r``,
    table 2 at order ``s``.  The bound ln 2 is the one for orthogonal
    directions, which Bob is taken to have measured along.
    """
    return _on_tables(Criterion("renyi", r=r, s=s), tables)


def db_lhs(alice, bob, mu: float) -> float:
    """Vector-form determinant left-hand side.

    For two settings: mu^2 |(a1 x a2).(b1 x b2)|; for three:
    mu^3 |a1.(a2 x a3)| |b1.(b2 x b3)|.  Vectors need not be orthogonal.
    Violation of the underlying inequality means the returned value exceeds
    ``DB_VECTOR_THRESHOLD[m]``.
    """
    alice = list(alice)
    scenario = Scenario(mu=mu, m=len(alice), mode="explicit", alice=alice, bob=tuple(bob))
    return float(_db_lhs_values(*scenario.settings(), scenario.mu))


def db_steering(alice, bob, mu: float) -> SteeringResult:
    """Normalised dimension-bounded parameter |det D| - db_bound(m, 2), m = len(alice).

    |det D| equals ``DB_SCALE[m] * db_lhs``; the scale factor preserves the
    zero crossing of the vector-form inequality.
    """
    alice = list(alice)
    scenario = Scenario(mu=mu, m=len(alice), mode="explicit", alice=alice, bob=tuple(bob))
    return evaluate(scenario, Criterion("db"))


def evaluate(scenario: Scenario, criterion: Criterion) -> SteeringResult:
    """Evaluate a criterion on a scenario through the measurement pipeline.

    An entropic criterion needs Bob's directions orthogonal; see :func:`check_bob_orthogonal`.
    """
    alice, bob = (np.array(vecs) for vecs in scenario.settings())
    probs = qcore.werner_probs(scenario.mu, alice, bob)[None]
    result = criterion_results([criterion], probs, alice, bob, scenario.mu)[0][0]
    check_bob_orthogonal([criterion], bob)  # after the settings checks of the estimators
    return result


# ---------------------------------------------------------------------------
# closed forms (the analytic route)
# ---------------------------------------------------------------------------


def _f(y: float, x: float) -> float:
    """f_y(x) = ((1-x)/2)^y + ((1+x)/2)^y."""
    return ((1.0 - x) / 2.0) ** y + ((1.0 + x) / 2.0) ** y


def _binary_shannon(p: float) -> float:
    out = 0.0
    for t in (p, 1.0 - p):
        if t > 0.0:
            out -= t * math.log(t)
    return out


def _renyi_term(order: float, x: float) -> float:
    # Conditional Renyi entropy of a Werner table with overlap x.
    if order == 1.0:
        return _binary_shannon((1.0 + x) / 2.0)
    if order == math.inf:
        return math.log(2.0) - math.log(1.0 + abs(x))
    f = _f(order, x)
    if f >= sys.float_info.min:
        return math.log(f) / (1.0 - order)
    # p^order underflows (order in the thousands): factor out the larger p
    big, small = (1.0 + abs(x)) / 2.0, (1.0 - abs(x)) / 2.0
    return (order * math.log(big) + math.log1p((small / big) ** order)) / (1.0 - order)


def closed_form(scenario: Scenario, criterion: Criterion) -> float:
    """Analytic Werner-state value of a criterion (no table construction).

    Supported: shannon/tsallis for m in {2, 3}, renyi for m = 2, and db, in
    the mub and nom measurement modes.  Explicit-vector scenarios have no
    closed form and are rejected.
    """
    if scenario.mode == "explicit":
        raise ValueError("no closed form for explicit-vector scenarios; use evaluate()")
    mu, m = scenario.mu, scenario.m
    alpha = math.radians(scenario.alpha_deg)
    phi = math.radians(scenario.phi_deg)

    if criterion.kind == "db":
        if scenario.mode == "mub":
            if m == 2:
                return (2.0 * mu ** 2 * abs(math.cos(phi)) - 1.0) / (8.0 * math.sqrt(2.0))
            return (mu ** 3 / math.sqrt(3.0) - 1.0 / 9.0) / 12.0
        if m == 2:
            return (math.sqrt(3.0) * mu ** 2 - 1.0) / (8.0 * math.sqrt(2.0))
        return (mu ** 3 / math.sqrt(6.0) - 1.0 / 9.0) / 12.0

    if scenario.mode == "mub":  # the middle overlap only for three settings
        overlaps = [mu * math.cos(alpha), mu * math.cos(phi), mu * math.cos(phi) * math.cos(alpha)]
        overlaps = overlaps if m == 3 else overlaps[::2]
    else:
        overlaps = [mu, math.sqrt(3.0) / 2.0 * mu, math.sqrt(2.0 / 3.0) * mu][:m]

    if criterion.kind == "renyi":
        return (
            ent.eur_bound_renyi2(m)
            - _renyi_term(criterion.r, overlaps[0])
            - _renyi_term(criterion.s, overlaps[1])
        )

    q = criterion.q
    if q == 1.0:
        return (m - 1) * math.log(2.0) - sum(_binary_shannon((1.0 + x) / 2.0) for x in overlaps)
    # = (1/(1-q)) [1 + 2^(1-q) - sum f_q] for m=2, [1 + 2^(2-q) - sum f_q] for m=3
    return ((m - 1) * (2.0 ** (1.0 - q) - 1.0) + m - sum(_f(q, x) for x in overlaps)) / (1.0 - q)


# ---------------------------------------------------------------------------
# threshold solvers and sweeps
# ---------------------------------------------------------------------------


def critical_mu(alpha_deg: float, phi_deg: float) -> float:
    """Critical visibility 1/(cos(alpha) sqrt(1 + cos^2(phi))).

    Above this value both the q=2 Tsallis and the (1/2, inf) Renyi
    two-setting criteria turn positive.  A result above 1 means the state is
    undetectable at any physical visibility.  Requires finite angles and
    cos(alpha) > 0.
    """
    alpha_deg, phi_deg = qcore.as_angles(alpha_deg, phi_deg)
    cos_a = math.cos(math.radians(alpha_deg))
    if cos_a <= 1e-12:
        raise ValueError(f"critical visibility needs cos(alpha) > 0, got alpha = {alpha_deg} deg")
    cos_p = math.cos(math.radians(phi_deg))
    return 1.0 / (cos_a * math.sqrt(1.0 + cos_p ** 2))


#: Bisection steps of :func:`critical_alpha`; 90 / 2**60 is below one ulp of 90.
BISECTION_STEPS = 60


def critical_alpha(
    criterion: Criterion, mu: float, phi_deg: float = 0.0, m: int = 2
) -> float | None:
    """In-plane misalignment at which a closed-form criterion crosses zero.

    Bisection on alpha in [0, 90] degrees (:data:`BISECTION_STEPS` halvings);
    returns ``None`` when the value does not change sign on that interval
    (criterion everywhere positive, everywhere non-positive, or independent
    of alpha).
    """

    def value(alpha_deg: float) -> float:
        return closed_form(
            Scenario(mu=mu, alpha_deg=alpha_deg, phi_deg=phi_deg, m=m), criterion
        )

    lo, hi = 0.0, 90.0
    f_lo, f_hi = value(lo), value(hi)
    if not (f_lo > 0.0 > f_hi):
        return None
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SweepRow:
    mu: float
    alpha_deg: float
    phi_deg: float
    m: int
    criterion: str
    order: str
    value: float
    steerable: bool


def sweep(mu: float, alpha_grid, phi_deg: float, m: int, criteria, mode: str = "mub"):
    """Evaluate criteria over a grid of in-plane angles, all in one batch.

    Returns one :class:`SweepRow` per (alpha, criterion) pair, alpha-major,
    in deterministic order; an empty grid gives no rows and checks nothing else.
    """
    alphas = [qcore.as_real("misalignment angle alpha", alpha_deg, -math.inf, math.inf)
              for alpha_deg in qcore.as_list("alpha grid", alpha_grid)]
    settings = [Scenario(mu, alpha_deg, phi_deg, m, mode).settings() for alpha_deg in alphas]
    if not settings:
        return []
    mu = qcore.as_visibility(mu)
    phi_deg = qcore.as_real("misalignment angle phi", phi_deg, -math.inf, math.inf)
    alice, bob = (np.array(vecs) for vecs in zip(*settings))  # (n_alpha, m, 3) each
    results = criterion_results(criteria, qcore.werner_probs(mu, alice, bob), alice, bob, mu)
    return [SweepRow(mu, alpha_deg, phi_deg, m, res.criterion, res.order, res.value, res.steerable)
            for alpha_deg, row in zip(alphas, results) for res in row]


SWEEP_CSV_HEADER = ["mu", "alpha_deg", "phi_deg", "m", "criterion", "order", "value", "steerable"]


def sweep_rows_to_csv(rows, stream) -> None:
    """Write sweep rows as CSV (stable column order, header first)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                f"{row.mu:.12g}",
                f"{row.alpha_deg:.12g}",
                f"{row.phi_deg:.12g}",
                row.m,
                row.criterion,
                row.order,
                f"{row.value:.12g}",
                "true" if row.steerable else "false",
            ]
        )
