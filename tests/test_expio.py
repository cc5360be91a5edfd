import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import expio, qcore
from steerkit.criteria import DB_SCALE, Criterion, Scenario, closed_form, db_bound
from steerkit.expio import (
    MAX_BOOTSTRAP,
    CountsFormatError,
    CountsRecord,
    ErrorBudget,
    counts_to_table,
    evaluate_with_errors,
    fit_visibility,
    load_counts,
    synthesize_counts,
    write_counts,
)

TSALLIS2 = Criterion("tsallis", q=2.0)
SHANNON = Criterion("shannon")
RENYI = Criterion("renyi")
DB = Criterion("db")


def write_file(tmp_path, text, name="counts.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


WELL_FORMED = """setting,a,b,counts
1,+1,+1,12
1,+1,-1,488
1,-1,+1,502
1,-1,-1,8
2,+1,+1,90
2,+1,-1,420
2,-1,+1,410
2,-1,-1,80
"""


class TestLoadCounts:
    def test_well_formed_two_settings(self, tmp_path):
        records = load_counts(write_file(tmp_path, WELL_FORMED))
        assert len(records) == 2
        assert records[0].total == 1010
        assert records[0].counts[0, 1] == 488
        assert records[0].alice_vec is None

    def test_negative_count_names_line(self, tmp_path):
        bad = WELL_FORMED.replace("1,-1,+1,502", "1,-1,+1,-3")
        with pytest.raises(CountsFormatError, match="line 4"):
            load_counts(write_file(tmp_path, bad))

    def test_non_contiguous_settings(self, tmp_path):
        bad = WELL_FORMED.replace("\n2,", "\n3,")
        with pytest.raises(CountsFormatError, match="contiguous"):
            load_counts(write_file(tmp_path, bad))

    def test_duplicate_key(self, tmp_path):
        bad = WELL_FORMED.replace("1,+1,-1,488", "1,+1,+1,488")
        with pytest.raises(CountsFormatError, match="duplicate"):
            load_counts(write_file(tmp_path, bad))

    def test_malformed_row_names_line(self, tmp_path):
        bad = WELL_FORMED.replace("2,+1,+1,90", "2,+1,ninety")
        with pytest.raises(CountsFormatError, match="line 6"):
            load_counts(write_file(tmp_path, bad))

    def test_bad_outcome_label(self, tmp_path):
        bad = WELL_FORMED.replace("2,+1,+1,90", "2,+2,+1,90")
        with pytest.raises(CountsFormatError, match="line 6"):
            load_counts(write_file(tmp_path, bad))

    def test_missing_outcome_row(self, tmp_path):
        bad = "\n".join(WELL_FORMED.strip().split("\n")[:-1]) + "\n"
        with pytest.raises(CountsFormatError, match="missing"):
            load_counts(write_file(tmp_path, bad))

    def test_empty_file(self, tmp_path):
        with pytest.raises(CountsFormatError, match="empty"):
            load_counts(write_file(tmp_path, ""))

    def test_bad_header(self, tmp_path):
        with pytest.raises(CountsFormatError, match="header"):
            load_counts(write_file(tmp_path, "a,b,c\n1,2,3\n"))

    def test_vector_round_trip(self, tmp_path):
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.9, alice, bob, 100000)
        path = tmp_path / "synthetic.csv"
        write_counts(records, path)
        loaded = load_counts(path)
        assert len(loaded) == 2
        for orig, back in zip(records, loaded):
            assert np.array_equal(orig.counts, back.counts)
            assert np.allclose(orig.alice_vec, back.alice_vec, atol=1e-15)
            assert np.allclose(orig.bob_vec, back.bob_vec, atol=1e-15)

    def test_inconsistent_vectors_rejected(self, tmp_path):
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.9, alice, bob, 1000)
        path = tmp_path / "synthetic.csv"
        write_counts(records, path)
        lines = path.read_text().split("\n")
        parts = lines[1].split(",")
        parts[4] = "0.123"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines))
        with pytest.raises(CountsFormatError, match="vectors differ"):
            load_counts(path)

    @pytest.mark.parametrize("column, value", [(4, "nan"), (8, "inf"), (9, "-inf")])
    def test_non_finite_vector_component_named(self, tmp_path, column, value):
        alice, bob = qcore.nom_settings(2)
        path = tmp_path / "synthetic.csv"
        write_counts(synthesize_counts(0.9, alice, bob, 1000), path)
        lines = path.read_text().split("\n")
        parts = lines[1].split(",")
        parts[column] = value
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines))
        name = ("ax", "ay", "az", "bx", "by", "bz")[column - 4]
        with pytest.raises(CountsFormatError, match=f"line 2: vector component {name} must be finite"):
            load_counts(path)


class TestCountsToTable:
    def test_uniform(self):
        table = counts_to_table(CountsRecord(1, np.full((2, 2), 100)))
        assert np.allclose(table.probs, 0.25, atol=1e-15)

    def test_anticorrelated(self):
        table = counts_to_table(CountsRecord(1, np.array([[0, 500], [500, 0]])))
        assert np.allclose(table.probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)

    def test_simple_arithmetic(self):
        table = counts_to_table(CountsRecord(1, np.array([[10, 40], [40, 10]])))
        assert np.isclose(table.prob(+1, +1), 0.1, atol=1e-15)

    def test_zero_total_rejected(self):
        with pytest.raises(ValueError):
            CountsRecord(1, np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize(
        "counts",
        [
            [[0.5, 0.5], [0.5, 0.5]],  # passed the zero-total check, then held all zeros
            [[1.7, 2.0], [3.0, 4.0]],
            [[math.inf, 0.0], [0.0, 0.0]],  # raised OverflowError
            [[math.nan, 1.0], [1.0, 1.0]],
            [[1e30, 1.0], [1.0, 1.0]],  # wrapped to a negative int64
        ],
    )
    def test_fractional_or_non_finite_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="whole numbers below"):
            CountsRecord(1, np.array(counts))

    def test_integer_valued_float_counts_accepted(self):
        record = CountsRecord(1, np.array([[10.0, 40.0], [40.0, 10.0]]))
        assert record.counts.dtype == np.int64
        assert record.counts.tolist() == [[10, 40], [40, 10]]
        assert record.total == 100


class TestVisibilityFit:
    def test_exact_recovery(self):
        for mu in (0.3, 0.7, 0.963):
            alice, bob = qcore.nom_settings(3)
            records = synthesize_counts(mu, alice, bob, 10_000_000)
            assert abs(fit_visibility(records) - mu) < 1e-6

    def test_needs_vectors(self):
        record = CountsRecord(1, np.full((2, 2), 50))
        with pytest.raises(ValueError):
            fit_visibility([record])

    def test_orthogonal_overlaps_unidentifiable(self):
        z = np.array([0.0, 0.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        record = CountsRecord(1, np.full((2, 2), 50), alice_vec=z, bob_vec=x)
        with pytest.raises(ValueError):
            fit_visibility([record])


class TestEvaluateWithErrors:
    def test_noiseless_matches_closed_form(self):
        mu = 0.963
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(mu, alice, bob, 10_000_000)
        out = evaluate_with_errors(records, [SHANNON, TSALLIS2, RENYI, DB], bootstrap=0, jitter_deg=0.0)
        scen = Scenario(mu=mu, m=2, mode="nom")
        for (result, budget), criterion in zip(out, [SHANNON, TSALLIS2, RENYI, DB]):
            assert abs(result.value - closed_form(scen, criterion)) < 1e-5
            assert budget.stat == 0.0 and budget.sys == 0.0 and budget.total == 0.0

    def test_statistical_error_shrinks_with_counts(self):
        mu = 0.9
        alice, bob = qcore.nom_settings(2)
        sigmas = []
        for total in (1_000, 10_000, 100_000):
            records = synthesize_counts(mu, alice, bob, total)
            out = evaluate_with_errors(records, [TSALLIS2], bootstrap=400, jitter_deg=0.0, seed=17)
            sigmas.append(out[0][1].stat)
        # 1/sqrt(N) scaling within 20 percent
        for lo, hi in zip(sigmas[1:], sigmas[:-1]):
            ratio = hi / lo
            assert abs(ratio - math.sqrt(10.0)) < 0.2 * math.sqrt(10.0)

    def test_round_trip_within_three_sigma(self):
        # Poisson-sampled counts at 1e7 per setting reproduce the closed form
        mu = 0.91
        for m, criteria in ((2, [SHANNON, TSALLIS2, RENYI, DB]), (3, [SHANNON, TSALLIS2, DB])):
            alice, bob = qcore.nom_settings(m)
            records = synthesize_counts(mu, alice, bob, 10_000_000, seed=99)
            out = evaluate_with_errors(records, criteria, bootstrap=200, jitter_deg=0.0, seed=7)
            scen = Scenario(mu=mu, m=m, mode="nom")
            for (result, budget), criterion in zip(out, criteria):
                target = closed_form(scen, criterion)
                assert abs(result.value - target) < 3.0 * max(budget.stat, 1e-7)

    def test_point_estimate_invariant_under_rescaling(self):
        alice, bob = qcore.mub_settings(2, 15.0, 0.0)
        records = synthesize_counts(0.85, alice, bob, 10_000)
        scaled = [
            CountsRecord(rec.setting, rec.counts * 7, rec.alice_vec, rec.bob_vec)
            for rec in records
        ]
        base = evaluate_with_errors(records, [TSALLIS2], bootstrap=0, jitter_deg=0.0)
        big = evaluate_with_errors(scaled, [TSALLIS2], bootstrap=0, jitter_deg=0.0)
        assert np.isclose(base[0][0].value, big[0][0].value, atol=1e-12)

    def test_systematic_error_from_jitter(self):
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.95, alice, bob, 1_000_000)
        out = evaluate_with_errors(records, [TSALLIS2, DB], bootstrap=200, jitter_deg=0.5, seed=21)
        for result, budget in out:
            assert budget.sys > 0.0
            assert np.isclose(budget.total, math.hypot(budget.stat, budget.sys), atol=1e-15)

    def test_budget_total_exact(self):
        budget = ErrorBudget(stat=0.003, sys=0.004)
        assert np.isclose(budget.total, 0.005, atol=1e-15)
        assert budget.total >= max(budget.stat, budget.sys)

    def test_jitter_needs_vectors(self):
        records = [
            CountsRecord(1, np.full((2, 2), 50)),
            CountsRecord(2, np.full((2, 2), 50)),
        ]
        with pytest.raises(ValueError, match="vectors"):
            evaluate_with_errors(records, [TSALLIS2], bootstrap=10, jitter_deg=0.1)
        # without jitter and without db, vectors are unnecessary
        out = evaluate_with_errors(records, [TSALLIS2], bootstrap=10, jitter_deg=0.0)
        assert len(out) == 1

    def test_db_needs_vectors(self):
        records = [
            CountsRecord(1, np.full((2, 2), 50)),
            CountsRecord(2, np.full((2, 2), 50)),
        ]
        with pytest.raises(ValueError, match="vectors"):
            evaluate_with_errors(records, [DB], bootstrap=0, jitter_deg=0.0)

    def test_renyi_needs_two_settings(self):
        alice, bob = qcore.nom_settings(3)
        records = synthesize_counts(0.9, alice, bob, 1000)
        with pytest.raises(ValueError, match="settings"):
            evaluate_with_errors(records, [RENYI], bootstrap=0, jitter_deg=0.0)

    @pytest.mark.parametrize(
        "bootstrap, jitter_deg",
        [(-5, 0.1), (-1, 0.0), (100, math.nan), (100, -0.1), (100, math.inf), (0, math.nan)],
    )
    def test_rejects_negative_bootstrap_or_bad_jitter(self, bootstrap, jitter_deg):
        # these used to report stat_err or sys_err 0 without a word
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.9, alice, bob, 1000)
        with pytest.raises(ValueError):
            evaluate_with_errors(records, [TSALLIS2], bootstrap=bootstrap, jitter_deg=jitter_deg)

    @pytest.mark.parametrize("bootstrap, seed", [(2.5, 0), (True, 0), (10, 1.5), (10, None)])
    def test_rejects_non_integer_bootstrap_or_seed(self, monkeypatch, bootstrap, seed):
        # 2.5, True and 1.5 raised TypeError inside numpy; None drew an unseeded stream
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.9, alice, bob, 1000)
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="must be an integer"):
            evaluate_with_errors(records, [TSALLIS2], bootstrap=bootstrap, seed=seed)

    def test_rejects_an_error_budget_that_overflows(self):
        # each setting's directions are 1e-100 from orthogonal, so the visibility
        # fit is noise over 1e-100: the bootstrap's db values overflowed and
        # stat_err read inf beside a positive value
        alice = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        bob = [np.array([1.0, 0.0, 1e-100]), np.array([1e-100, 0.0, 1.0])]
        records = synthesize_counts(0.9, alice, bob, 10_000, seed=2)
        with pytest.raises(ValueError, match="error budget"):
            with np.errstate(over="ignore"):
                evaluate_with_errors(records, [DB], bootstrap=200, jitter_deg=0.0, seed=1)

    def test_rejects_oversized_bootstrap_before_drawing(self, monkeypatch):
        # 1e12 replicates ended in a MemoryError from rng.poisson
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.9, alice, bob, 1000)
        monkeypatch.setattr(np.random, "default_rng", None)
        for bootstrap in (MAX_BOOTSTRAP + 1, 10 ** 12):
            with pytest.raises(ValueError, match="bootstrap replicate count"):
                evaluate_with_errors(records, [TSALLIS2], bootstrap=bootstrap, jitter_deg=0.0)
        assert MAX_BOOTSTRAP >= 1000  # the README's and the analyze benchmark's size

    def test_deterministic_given_seed(self):
        alice, bob = qcore.nom_settings(2)
        records = synthesize_counts(0.9, alice, bob, 10_000, seed=5)
        first = evaluate_with_errors(records, [TSALLIS2, DB], bootstrap=100, jitter_deg=0.2, seed=9)
        second = evaluate_with_errors(records, [TSALLIS2, DB], bootstrap=100, jitter_deg=0.2, seed=9)
        assert first == second

    def test_db_bootstrap_keeps_replicate_fits_above_one(self):
        # mu = 0.95991549, alpha = 41.7025 deg, phi = 54.7386 deg, m = 2, with
        # Poisson counts whose visibility fit lands at 1.031.  Clamping each
        # replicate's fit to [0, 1] pinned most replicates at exactly 1 and
        # shrank the db error budget far below the true scatter.
        alice_1 = (0.38406116370763022, 0.54320532599284299, 0.74660899830135319)
        alice_2 = (0.43102272923032103, 0.60962644564634449, -0.66526310859347215)
        records = [
            CountsRecord(1, [[78, 552], [541, 59]], alice_1, (0.0, 0.0, 1.0)),
            CountsRecord(2, [[169, 449], [442, 185]], alice_2, (1.0, 0.0, 0.0)),
        ]
        assert fit_visibility(records) > 1.0
        [(result, budget)] = evaluate_with_errors(
            records, [DB], bootstrap=1000, jitter_deg=0.1, seed=2009872275
        )
        scen = Scenario(mu=0.95991549, alpha_deg=41.7025, phi_deg=54.7386, m=2)
        assert abs(result.value - closed_form(scen, DB)) <= 5.0 * budget.total + 1e-3


def reference_db_value(alice, bob, mu):
    """The determinant value by the scalar arithmetic, at any visibility (the reference)."""
    m = len(alice)
    if m == 2:
        factors = [abs(float(np.dot(np.cross(alice[0], alice[1]), np.cross(bob[0], bob[1]))))]
    else:
        factors = [abs(float(np.dot(vecs[0], np.cross(vecs[1], vecs[2])))) for vecs in (alice, bob)]
    lhs = mu ** m
    for factor in factors:
        lhs = lhs * factor
    return DB_SCALE[m] * lhs - db_bound(m, 2)


def reference_value(criterion, tables, alice, bob, mu):
    """One replicate's value through the one-row estimators; db at an unclipped fit too."""
    if criterion.kind == "db":
        return reference_db_value(alice, bob, mu)
    return expio._evaluate_criterion(criterion, tables, alice, bob, mu).value


def reference_replicate_values(draws, criteria, alice, bob, overlaps):
    """The bootstrap as a loop over replicates, one JointTable per setting (the reference)."""
    values = []
    for rep in draws:
        totals = rep.sum(axis=(1, 2))
        if np.any(totals == 0):
            continue
        tables = [qcore.JointTable(cells / total) for cells, total in zip(rep, totals)]
        mu = None
        if overlaps is not None:
            num = den = 0.0
            for table, overlap in zip(tables, overlaps):
                num += -table.correlation * overlap
                den += overlap ** 2
            mu = num / den
        values.append([reference_value(c, tables, alice, bob, mu) for c in criteria])
    return np.array(values).reshape(-1, len(criteria)).T


def reference_werner_table(mu, u, v):
    """A Werner model table cell by cell, p(a, b) = (1 - a b mu u.v)/4 (the reference)."""
    overlap = float(np.dot(u, v))
    cells = [[(1.0 - a * b * mu * overlap) / 4.0 for b in (1, -1)] for a in (1, -1)]
    return qcore.JointTable(np.array(cells))


def reference_jitter_values(criteria, alice, bob, mu, sigma_rad, count, rng):
    """The jitter as a loop over replicates, one model JointTable per setting (the reference)."""
    values = np.empty((len(criteria), count))
    for i in range(count):
        jittered = [expio._jittered_vector(v, sigma_rad, rng) for v in bob]
        tables = [reference_werner_table(mu, u, v) for u, v in zip(alice, jittered)]
        values[:, i] = [reference_value(c, tables, alice, jittered, mu) for c in criteria]
    return values


#: Every Tsallis order and Renyi pair the bit-identity property covers.
BATCH_CRITERIA = [Criterion("shannon")] + [Criterion("tsallis", q=q) for q in (1.5, 2.0, 3.0)]
RENYI_PAIRS = [Criterion("renyi", r=r, s=s) for r, s in ((0.5, math.inf), (0.75, 1.5), (1.0, 1.0))]


@st.composite
def replicate_draws(draw):
    """``(B, m, 2, 2)`` counts with zero cells, zero-marginal rows and zero-total settings."""
    m = draw(st.sampled_from((2, 3)))
    size = draw(st.integers(1, 12))
    cells = st.integers(0, 2) | st.integers(0, 10 ** 6)
    flat = draw(st.lists(cells, min_size=4 * m * size, max_size=4 * m * size))
    return np.array(flat, dtype=np.int64).reshape(size, m, 2, 2)


class TestBatchedBootstrap:
    """The batched bootstrap equals the loop over replicates to the bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(draws=replicate_draws(), alpha=st.floats(0.0, 90.0), phi=st.floats(0.0, 90.0))
    def test_values_and_kept_replicates_equal_the_loop(self, draws, alpha, phi):
        m = draws.shape[1]
        alice, bob = (np.array(vecs) for vecs in qcore.mub_settings(m, alpha, phi))
        criteria = BATCH_CRITERIA + [DB] + (RENYI_PAIRS if m == 2 else [])
        overlaps = [float(np.dot(u, v)) for u, v in zip(alice, bob)]
        expected = reference_replicate_values(draws, criteria, alice, bob, overlaps)
        assert np.array_equal(expio._replicate_values(draws, criteria, alice, bob, overlaps), expected)
        entropic = criteria[:4]  # without a fit, as when no criterion is db and nothing jitters
        expected = reference_replicate_values(draws, entropic, alice, bob, None)
        assert np.array_equal(expio._replicate_values(draws, entropic, alice, bob, None), expected)

    def test_batches_of_replicates_join_in_order(self, monkeypatch):
        alice, bob = (np.array(vecs) for vecs in qcore.mub_settings(3, 10.0, 20.0))
        draws = np.random.default_rng(4).poisson(0.6, size=(50, 3, 2, 2))
        criteria = BATCH_CRITERIA + [DB]
        overlaps = [float(np.dot(u, v)) for u, v in zip(alice, bob)]
        monkeypatch.setattr(expio, "_REPLICATE_BATCH", 7)
        values = expio._replicate_values(draws, criteria, alice, bob, overlaps)
        expected = reference_replicate_values(draws, criteria, alice, bob, overlaps)
        assert expected.shape[1] < 50  # some replicates hold a zero-total setting
        assert np.array_equal(values, expected)

    def test_memory_at_the_largest_bootstrap(self):
        # the bound stated at MAX_BOOTSTRAP: tracemalloc measured 17.0 MB here
        # with and without the jitter, 9.6 MB of it the Poisson draws
        alice, bob = qcore.mub_settings(3, 20.0, 30.0)
        records = synthesize_counts(0.95, alice, bob, 10_000, seed=3)
        criteria = [SHANNON, TSALLIS2, DB]
        for jitter_deg in (0.0, 0.1):
            # a small call first, so that first-call costs stay out of the peak
            evaluate_with_errors(records, criteria, bootstrap=10, jitter_deg=jitter_deg)
            tracemalloc.start()
            try:
                evaluate_with_errors(records, criteria, MAX_BOOTSTRAP, jitter_deg=jitter_deg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 20e6, jitter_deg


def random_directions(seed, m):
    """m random unit 3-vectors, as an ``(m, 3)`` array."""
    vecs = np.random.default_rng(seed).standard_normal((m, 3))
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


class TestBatchedJitter:
    """The batched jitter equals the loop over replicates to the bit."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        m=st.sampled_from((2, 3)),
        explicit=st.booleans(),
        angles=st.tuples(st.floats(0.0, 90.0), st.floats(0.0, 90.0)),
        mu=st.floats(0.0, 1.0),
        jitter_deg=st.sampled_from((0.1, 1.0, 30.0)),
        seed=st.integers(0, 2 ** 32),
        count=st.integers(1, 12),
        batch=st.integers(1, 5),
    )
    def test_systematic_values_equal_the_loop(
        self, m, explicit, angles, mu, jitter_deg, seed, count, batch
    ):
        if explicit:
            alice, bob = random_directions(seed, m), random_directions(seed + 1, m)
        else:
            alice, bob = (np.array(vecs) for vecs in qcore.mub_settings(m, *angles))
        criteria = BATCH_CRITERIA + [DB] + (RENYI_PAIRS if m == 2 else [])
        sigma = math.radians(jitter_deg)
        expected = reference_jitter_values(
            criteria, alice, bob, mu, sigma, count, np.random.default_rng(seed)
        )
        with mock.patch.object(expio, "_REPLICATE_BATCH", batch):
            values = expio._jitter_values(
                criteria, alice, bob, mu, sigma, count, np.random.default_rng(seed)
            )
        assert np.array_equal(values, expected)


def mostly(valid, other):
    """Draws mostly from ``valid``, sometimes from ``other``."""
    return st.integers(0, 9).flatmap(lambda k: other if k == 5 else valid)


@st.composite
def direction(draw):
    """Mostly a unit 3-vector from three coordinates; sometimes any three floats."""
    if draw(st.integers(0, 9)) == 5:
        return np.array(draw(st.tuples(*[st.floats()] * 3)))
    vec = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 1e-6 else np.array([0.0, 0.0, 1.0])


ALL_CRITERIA = BATCH_CRITERIA + RENYI_PAIRS + [DB]
#: Replicate counts and seeds beyond the valid ones: other types, NaN, negatives.
BAD_COUNTS = st.integers(-3, -1) | st.sampled_from((2.5, True, math.nan, 1e3, None))
BAD_SEEDS = st.integers(-3, -1) | st.sampled_from((1.5, True, math.nan))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    m=mostly(st.integers(2, 3), st.sampled_from((1, 4))),
    data=st.data(),
    mu=mostly(st.floats(0.0, 1.0), st.floats()),
    total=mostly(st.integers(1, 10 ** 6), st.integers(-10, 0) | st.floats()),
    counts_seed=mostly(st.none() | st.integers(0, 2 ** 64), BAD_SEEDS),
    bootstrap=mostly(st.integers(0, 40), BAD_COUNTS),
    jitter_deg=mostly(st.floats(0.0, 5.0), st.floats()),
    seed=mostly(st.integers(0, 2 ** 64), BAD_SEEDS | st.none()),
)
def test_entry_points_reject_or_return_finite(m, data, mu, total, counts_seed, bootstrap,
                                              jitter_deg, seed):
    # synthesize_counts, fit_visibility and evaluate_with_errors each raise
    # ValueError or return finite values
    alice = data.draw(st.lists(direction(), min_size=m, max_size=m))
    bob = data.draw(st.lists(direction(), min_size=m, max_size=m))
    try:
        records = synthesize_counts(mu, alice, bob, total, seed=counts_seed)
    except ValueError:
        return
    assert all(rec.total >= 1 for rec in records)
    try:
        assert math.isfinite(fit_visibility(records))
    except ValueError:
        pass
    criteria = data.draw(st.lists(st.sampled_from(ALL_CRITERIA), min_size=1, max_size=4))
    try:
        out = evaluate_with_errors(records, criteria, bootstrap, jitter_deg, seed)
    except ValueError:
        return
    for result, budget in out:
        assert all(math.isfinite(x) for x in (result.value, budget.stat, budget.sys))
