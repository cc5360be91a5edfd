import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import binary_shannon
from steerkit.entropy import (
    arimoto_conditional_renyi,
    conditional_arimoto,
    conditional_tsallis,
    eur_bound_renyi2,
    eur_bound_tsallis,
    q_log,
    renyi_entropy,
    shannon_entropy,
    tsallis_directed_term,
    tsallis_entropy,
)
from steerkit.qcore import JointTable, joint_table_closed

Z = np.array([0.0, 0.0, 1.0])

ANTI_CORRELATED = JointTable(np.array([[0.0, 0.5], [0.5, 0.0]]))
UNIFORM = JointTable(np.full((2, 2), 0.25))


def random_distributions(n, size, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((n, size))
    return p / p.sum(axis=1, keepdims=True)


def random_tables(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.random((n, 2, 2))
    return [JointTable(t / t.sum()) for t in p]


def werner_table(x):
    """2x2 table with overlap x: entries (1 -+ x)/4."""
    return JointTable(np.array([[1.0 - x, 1.0 + x], [1.0 + x, 1.0 - x]]) / 4.0)


class TestQLog:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_log_of_one_vanishes(self, q):
        assert q_log(1.0, q) == 0.0

    def test_q2_of_two(self):
        assert np.isclose(q_log(2.0, 2.0), 0.5, atol=1e-15)

    def test_limit_continuity(self):
        assert abs(q_log(math.e, 1.001) - 1.0) < 2e-3
        assert np.isclose(q_log(5.0, 1.0), math.log(5.0), atol=1e-15)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            q_log(0.0, 2.0)
        with pytest.raises(ValueError):
            q_log(-1.0, 2.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        # q_log(nan, 2) returned nan
        with pytest.raises(ValueError, match=r"^q-logarithm argument must lie in \[5e-324, inf\)"):
            q_log(x, 2.0)


class TestEntropies:
    def test_deterministic_distribution(self):
        assert tsallis_entropy([1.0, 0.0], 2.0) == 0.0
        assert shannon_entropy([1.0, 0.0]) == 0.0
        assert renyi_entropy([1.0, 0.0], 0.5) == 0.0

    def test_uniform_binary(self):
        assert np.isclose(tsallis_entropy([0.5, 0.5], 2.0), 0.5, atol=1e-15)
        assert np.isclose(tsallis_entropy([0.5, 0.5], 1.0), math.log(2.0), atol=1e-15)
        assert np.isclose(shannon_entropy([0.5, 0.5]), 0.693147, atol=1e-6)
        for r in (0.5, 1.0, 2.0, math.inf):
            assert np.isclose(renyi_entropy([0.5, 0.5], r), math.log(2.0), atol=1e-12)

    def test_biased_binary_values(self):
        # direct evaluation oracles
        assert np.isclose(shannon_entropy([0.75, 0.25]), binary_shannon(0.75), atol=1e-15)
        assert np.isclose(shannon_entropy([0.75, 0.25]), 0.562335, atol=1e-6)
        assert np.isclose(renyi_entropy([0.75, 0.25], math.inf), -math.log(0.75), atol=1e-15)
        assert np.isclose(renyi_entropy([0.75, 0.25], math.inf), 0.287682, atol=1e-6)
        expected_half = 2.0 * math.log(math.sqrt(0.75) + math.sqrt(0.25))
        assert np.isclose(renyi_entropy([0.75, 0.25], 0.5), expected_half, atol=1e-15)
        assert np.isclose(renyi_entropy([0.75, 0.25], 0.5), 0.623811, atol=1e-6)

    def test_invalid_distributions_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.4])
        with pytest.raises(ValueError):
            shannon_entropy([1.5, -0.5])

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            tsallis_entropy([0.5, 0.5], 0.5)
        with pytest.raises(ValueError):
            renyi_entropy([0.5, 0.5], 0.3)

    def test_tsallis_shannon_limit(self):
        for p in random_distributions(50, 4, seed=10):
            h = shannon_entropy(p)
            assert abs(tsallis_entropy(p, 1.0001) - h) < 1e-3
            assert abs(tsallis_entropy(p, 1.0) - h) < 1e-15

    def test_renyi_monotone_in_order(self):
        orders = [0.5, 0.8, 1.0, 1.5, 2.0, 5.0, math.inf]
        for p in random_distributions(50, 5, seed=11):
            values = [renyi_entropy(p, r) for r in orders]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_entropies_nonnegative(self):
        for p in random_distributions(50, 3, seed=12):
            assert tsallis_entropy(p, 2.0) >= 0.0
            assert renyi_entropy(p, 0.5) >= 0.0


class TestDirectedTerm:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    def test_anticorrelated_vanishes(self, q):
        assert np.isclose(tsallis_directed_term(ANTI_CORRELATED, q), 0.0, atol=1e-14)

    def test_uniform_values(self):
        assert np.isclose(tsallis_directed_term(UNIFORM, 1.0), math.log(2.0), atol=1e-14)
        assert np.isclose(tsallis_directed_term(UNIFORM, 2.0), 0.5, atol=1e-14)

    def test_shannon_limit_equals_joint_minus_marginal(self):
        for table in random_tables(30, seed=13):
            expected = shannon_entropy(table.probs.ravel()) - shannon_entropy(table.probs.sum(axis=1))
            assert abs(tsallis_directed_term(table, 1.0) - expected) < 1e-12
            assert abs(tsallis_directed_term(table, 1.0001) - expected) < 1e-3

    def test_zero_marginal_contributes_nothing(self):
        table = JointTable(np.array([[0.6, 0.4], [0.0, 0.0]]))
        # only the populated row contributes: 1 - (0.6^2 + 0.4^2) = 0.48 at q = 2
        assert np.isclose(tsallis_directed_term(table, 2.0), 0.48, atol=1e-14)
        # Shannon limit: H(A,B) - H(A) with H(A) = 0
        expected = shannon_entropy([0.6, 0.4])
        assert np.isclose(tsallis_directed_term(table, 1.0), expected, atol=1e-14)


class TestArimotoConditional:
    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0, math.inf])
    def test_anticorrelated_vanishes(self, r):
        assert np.isclose(arimoto_conditional_renyi(ANTI_CORRELATED, r), 0.0, atol=1e-14)

    @pytest.mark.parametrize("x", [-0.9, -0.3, 0.0, 0.25, 0.6, 0.963])
    def test_werner_half_order_closed_form(self, x):
        expected = math.log(1.0 + math.sqrt(1.0 - x * x))
        assert np.isclose(arimoto_conditional_renyi(werner_table(x), 0.5), expected, atol=1e-12)

    @pytest.mark.parametrize("x", [-0.9, -0.3, 0.0, 0.25, 0.6, 0.963])
    def test_werner_min_entropy_closed_form(self, x):
        expected = math.log(2.0) - math.log(1.0 + abs(x))
        assert np.isclose(
            arimoto_conditional_renyi(werner_table(x), math.inf), expected, atol=1e-12
        )

    def test_range_bounds(self):
        for table in random_tables(50, seed=14):
            for r in (0.5, 0.9, 1.0, 2.0, math.inf):
                value = arimoto_conditional_renyi(table, r)
                assert -1e-12 <= value <= math.log(2.0) + 1e-12

    def test_matches_pipeline_table(self):
        table = joint_table_closed(0.8, Z, Z)
        assert np.isclose(
            arimoto_conditional_renyi(table, 0.5), math.log(1.0 + math.sqrt(1.0 - 0.64)), atol=1e-12
        )


class TestBounds:
    def test_tsallis_bounds(self):
        assert np.isclose(eur_bound_tsallis(1.0, 2), math.log(2.0), atol=1e-15)
        assert np.isclose(eur_bound_tsallis(2.0, 2), 0.5, atol=1e-15)
        assert np.isclose(eur_bound_tsallis(2.0, 3), 1.0, atol=1e-15)

    def test_unknown_m_rejected(self):
        with pytest.raises(ValueError):
            eur_bound_tsallis(2.0, 4)

    def test_renyi_bound(self):
        assert np.isclose(eur_bound_renyi2(), 0.693147, atol=1e-6)
        assert np.isclose(eur_bound_renyi2(), 2.0 * math.log(math.sqrt(2.0)), atol=1e-15)
        assert np.isclose(eur_bound_renyi2(), eur_bound_tsallis(1.0, 2), atol=1e-15)


def reference_conditional(probs):
    """H(A, B) - H(A) through the distribution entropies."""
    return shannon_entropy(probs.ravel()) - shannon_entropy(probs.sum(axis=1))


def reference_tsallis_term(probs, q):
    """The conditional Tsallis term one row at a time, in numpy scalars (the reference)."""
    if q == 1.0:
        return reference_conditional(probs)
    marg = probs.sum(axis=1)
    inner = 0.0
    for i in range(2):
        if marg[i] > 0.0:
            inner += (probs[i, :] ** q).sum() / marg[i] ** (q - 1.0)
    return float((1.0 - inner) / (q - 1.0))


def reference_arimoto(probs, r):
    """The Arimoto conditional entropy of one table, without an underflow guard (the reference)."""
    if r == 1.0:
        return reference_conditional(probs)
    if r == math.inf:
        return float(-np.log(probs.max(axis=1).sum()))
    return float(r / (1.0 - r) * np.log(((probs ** r).sum(axis=1) ** (1.0 / r)).sum()))


#: Cell counts: small ones give empty cells and empty rows, large ones fine fractions.
CELL_COUNTS = st.integers(0, 3) | st.integers(0, 10 ** 7)


@st.composite
def table_batches(draw):
    """``(B, 2, 2)`` maximum-likelihood tables, some with zero cells and zero-marginal rows."""
    size = draw(st.integers(1, 20))
    counts = np.array(draw(st.lists(CELL_COUNTS, min_size=4 * size, max_size=4 * size)), dtype=float)
    counts = counts.reshape(size, 2, 2)
    counts[counts.sum(axis=(1, 2)) == 0, 0, 1] = 1.0
    return counts / counts.sum(axis=(1, 2))[:, None, None]


class TestArrayForms:
    """Each array term equals the scalar arithmetic on every table, to the bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(probs=table_batches(), q=st.sampled_from((1.0, 1.5, 2.0, 2.5, 3.0, 7.0)))
    def test_tsallis_term_equals_scalar_loop(self, probs, q):
        expected = [reference_tsallis_term(table, q) for table in probs]
        assert conditional_tsallis(probs, q).tolist() == expected
        assert [tsallis_directed_term(JointTable(table), q) for table in probs] == expected

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(probs=table_batches(), r=st.sampled_from((0.5, 0.75, 1.0, 1.5, 3.0, math.inf)))
    def test_arimoto_term_equals_scalar_loop(self, probs, r):
        expected = [reference_arimoto(table, r) for table in probs]
        assert conditional_arimoto(probs, r).tolist() == expected
        assert [arimoto_conditional_renyi(JointTable(table), r) for table in probs] == expected

    def test_underflowing_orders_stay_finite(self):
        # p ** 5000 and p_a ** 4999 underflow to 0: unguarded, the Arimoto term
        # was ln 0 = -inf and the Tsallis term 0 / 0 = nan
        table = werner_table(0.6)
        big, small = 0.8, 0.2  # the two cell values of a row, times 2
        expected = math.log(big) + math.log1p((small / big) ** 5000.0) / 5000.0
        value = arimoto_conditional_renyi(table, 5000.0)
        assert np.isclose(value, -5000.0 / 4999.0 * expected, rtol=0.0, atol=1e-15)
        assert np.isclose(tsallis_directed_term(table, 5000.0), 1.0 / 4999.0, rtol=1e-12, atol=0.0)
