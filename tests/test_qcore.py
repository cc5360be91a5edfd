import math
import re
import threading
from fractions import Fraction

import numpy as np
import pytest

from steerkit import qcore
from steerkit.criteria import (
    Criterion,
    Scenario,
    critical_alpha,
    critical_mu,
    db_bound,
    db_lhs,
    db_steering,
    sweep,
)
from steerkit.entropy import (
    eur_bound_tsallis,
    q_log,
    renyi_entropy,
    shannon_entropy,
    tsallis_entropy,
)
from steerkit.expio import (
    MAX_BOOTSTRAP,
    CountsData,
    counts_to_table,
    evaluate_with_errors,
    synthesize_counts,
)
from steerkit.montecarlo import (
    MAX_HIST_BINS,
    MAX_SAMPLES,
    MCConfig,
    histogram_edges,
    raised_bound_table,
    violation_histogram,
    violation_probability,
)
from steerkit.qcore import (
    JointTable,
    bloch_projector,
    joint_table_closed,
    joint_table_trace,
    mub_settings,
    nom_settings,
    werner_state,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
Y = np.array([0.0, 1.0, 0.0])


def random_unit_vectors(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestWernerState:
    def test_white_noise_limit(self):
        assert np.allclose(werner_state(0.0), np.eye(4) / 4.0, atol=1e-15)

    def test_pure_singlet_limit(self):
        rho = werner_state(1.0)
        assert np.isclose(np.trace(rho @ rho).real, 1.0, atol=1e-12)
        # rank-1 projector onto the singlet
        ket = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert np.allclose(rho, np.outer(ket, ket), atol=1e-15)

    def test_half_mixture_spectrum(self):
        # independent oracle: diagonalise a hand-built matrix
        ket = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        expected = np.linalg.eigvalsh(0.5 * np.outer(ket, ket) + 0.125 * np.eye(4))
        got = np.linalg.eigvalsh(werner_state(0.5))
        assert np.allclose(np.sort(got), np.sort(expected), atol=1e-12)
        assert np.allclose(np.sort(got), [0.125, 0.125, 0.125, 0.625], atol=1e-12)

    @pytest.mark.parametrize("mu", [-0.1, 1.1, 2.0])
    def test_out_of_range_rejected(self, mu):
        with pytest.raises(ValueError):
            werner_state(mu)

    @pytest.mark.parametrize("mu", np.linspace(0.0, 1.0, 11))
    def test_singlet_fidelity(self, mu):
        # <psi_s| rho |psi_s> of a Werner state is (1 + 3 mu)/4
        ket = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        fidelity = np.real(ket @ werner_state(mu) @ ket)
        assert np.isclose(fidelity, (1.0 + 3.0 * mu) / 4.0, atol=1e-12)

    def test_validate_density_matrix_rejects_bad_input(self):
        good = werner_state(0.5)
        with pytest.raises(ValueError):
            qcore.validate_density_matrix(good + 1e-6 * np.array([[0, 1j, 0, 0]] * 4))
        with pytest.raises(ValueError):
            qcore.validate_density_matrix(2.0 * good)
        bad = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError):
            qcore.validate_density_matrix(bad)


class TestBlochProjector:
    def test_z_plus(self):
        assert np.allclose(bloch_projector(Z, +1), np.diag([1.0, 0.0]), atol=1e-15)

    def test_x_plus(self):
        assert np.allclose(bloch_projector(X, +1), 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_y_minus(self):
        expected = 0.5 * np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        assert np.allclose(bloch_projector(Y, -1), expected, atol=1e-15)

    def test_idempotent_and_complete(self):
        for u in random_unit_vectors(20, seed=1):
            plus = bloch_projector(u, +1)
            minus = bloch_projector(u, -1)
            assert np.allclose(plus @ plus, plus, atol=1e-14)
            assert np.allclose(plus + minus, np.eye(2), atol=1e-14)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            bloch_projector([0.0, 0.0, 2.0], +1)
        with pytest.raises(ValueError):
            bloch_projector(Z, 0)

    @pytest.mark.parametrize("outcome", [True, 1.0, 0.5, None, np.float64(-1.0)])
    def test_outcome_must_be_an_integer(self, outcome):
        # True, 1.0 and np.float64(-1.0) were taken as outcomes
        with pytest.raises(ValueError) as info:
            bloch_projector(Z, outcome)
        assert str(info.value) == f"outcome must be an integer, got {outcome!r}"

    def test_outcome_must_be_plus_or_minus_one(self):
        with pytest.raises(ValueError, match="^outcome must be \\+1 or -1, got 0$"):
            bloch_projector(Z, 0)
        assert np.array_equal(bloch_projector(Z, np.int64(-1)), bloch_projector(Z, -1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        # |v| - 1 is NaN here, and a NaN comparison must not read as "unit norm"
        with pytest.raises(ValueError):
            qcore.as_unit_vector([bad, 0.0, 1.0])
        with pytest.raises(ValueError):
            joint_table_closed(0.5, [0.0, 0.0, bad], Z)


class TestJointTables:
    def test_singlet_anticorrelation(self):
        table = joint_table_trace(werner_state(1.0), Z, Z)
        assert np.isclose(table.probs[0, 0], 0.0, atol=1e-12)
        assert np.isclose(table.probs[0, 1], 0.5, atol=1e-12)
        assert np.isclose(table.probs[1, 0], 0.5, atol=1e-12)
        assert np.isclose(table.probs[1, 1], 0.0, atol=1e-12)

    def test_white_noise_uniform(self):
        for u, v in [(Z, X), (X, Y), (Z, Z)]:
            table = joint_table_trace(werner_state(0.0), u, v)
            assert np.allclose(table.probs, 0.25, atol=1e-12)

    def test_half_werner_aligned(self):
        # oracle: explicit kron/trace arithmetic, independent of the library path
        rho = werner_state(0.5)
        proj = {(a, u): bloch_projector(u_vec, a) for a in (1, -1) for u, u_vec in [("z", Z)]}
        p_pp = np.trace(np.kron(proj[(1, "z")], proj[(1, "z")]) @ rho).real
        table = joint_table_trace(rho, Z, Z)
        assert np.isclose(p_pp, 0.125, atol=1e-12)
        assert np.isclose(table.probs[0, 0], 0.125, atol=1e-12)
        assert np.isclose(table.probs[0, 1], 0.375, atol=1e-12)

    def test_closed_form_examples(self):
        table = joint_table_closed(1.0, Z, Z)
        assert np.allclose(table.probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)
        table = joint_table_closed(1.0, Z, X)
        assert np.allclose(table.probs, 0.25, atol=1e-15)
        table = joint_table_closed(0.963, Z, Z)
        assert np.isclose(table.probs[0, 1], 0.49075, atol=1e-12)

    def test_trace_equals_closed_on_grid(self):
        pairs = random_unit_vectors(100, seed=2), random_unit_vectors(100, seed=3)
        for mu in np.linspace(0.0, 1.0, 11):
            rho = werner_state(mu)
            for u, v in zip(*pairs):
                t_trace = joint_table_trace(rho, u, v)
                t_closed = joint_table_closed(mu, u, v)
                assert np.allclose(t_trace.probs, t_closed.probs, atol=1e-12)

    def test_werner_marginals_maximally_mixed(self):
        for mu in (0.0, 0.3, 0.7, 1.0):
            for u, v in zip(random_unit_vectors(10, seed=4), random_unit_vectors(10, seed=5)):
                table = joint_table_closed(mu, u, v)
                assert np.allclose(table.probs.sum(axis=1), 0.5, atol=1e-12)
                assert np.allclose(table.probs.sum(axis=0), 0.5, atol=1e-12)

    def test_invalid_tables_rejected(self):
        with pytest.raises(ValueError):
            JointTable(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            JointTable(np.array([[1.2, -0.2], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            joint_table_trace(np.eye(4), Z, Z)  # trace 4, not a state

    @pytest.mark.parametrize("cell", [(0, 0), (1, 1)])
    def test_nan_table_rejected(self, cell):
        probs = np.full((2, 2), 0.25)
        probs[cell] = np.nan
        with pytest.raises(ValueError):
            JointTable(probs)

    def test_shapes(self):
        with pytest.raises(ValueError, match=r"^joint table must be 2x2, got shape \(1, 2\)$"):
            JointTable([[0.5, 0.5]])
        with pytest.raises(ValueError, match=r"^expected a 3-vector, got shape \(2,\)$"):
            joint_table_closed(0.9, [0.0, 1.0], Z)
        with pytest.raises(ValueError, match=r"^expected a 4x4 matrix, got shape \(2, 2\)$"):
            joint_table_trace(np.eye(2) / 2.0, Z, Z)

    def test_correlation_property(self):
        table = joint_table_closed(0.8, Z, Z)
        assert np.isclose(qcore.correlation(table.probs), -0.8, atol=1e-12)


class TestMeasurementSettings:
    def test_aligned_mubs(self):
        alice, bob = mub_settings(2, 0.0, 0.0)
        assert np.allclose(alice[0], Z, atol=1e-15) and np.allclose(alice[1], X, atol=1e-15)
        assert np.allclose(bob[0], Z, atol=1e-15) and np.allclose(bob[1], X, atol=1e-15)

    def test_quarter_rotation(self):
        alice, _ = mub_settings(2, 90.0, 0.0)
        assert np.allclose(alice[0], X, atol=1e-12)
        assert np.allclose(alice[1], -Z, atol=1e-12)

    def test_tilted_middle_vector(self):
        alice, _ = mub_settings(3, 0.0, 30.0)
        assert np.allclose(alice[1], [-0.5, np.sqrt(3.0) / 2.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("alpha", [0.0, 17.0, 45.0, 90.0])
    @pytest.mark.parametrize("phi", [0.0, 30.0, 90.0])
    def test_orthonormality_and_pairing(self, m, alpha, phi):
        alice, bob = mub_settings(m, alpha, phi)
        for party in (alice, bob):
            gram = np.array([[np.dot(u, v) for v in party] for u in party])
            assert np.allclose(gram, np.eye(m), atol=1e-12)
        cos_a, cos_p = np.cos(np.radians(alpha)), np.cos(np.radians(phi))
        assert np.isclose(np.dot(alice[0], bob[0]), cos_a, atol=1e-12)
        assert np.isclose(np.dot(alice[-1], bob[-1]), cos_p * cos_a, atol=1e-12)
        if m == 3:
            assert np.isclose(np.dot(alice[1], bob[1]), cos_p, atol=1e-12)

    def test_mub_rejects_bad_m(self):
        with pytest.raises(ValueError):
            mub_settings(4)

    @pytest.mark.parametrize("m, alpha, phi", [(2, np.inf, 0.0), (3, 0.0, np.nan), (2, -np.inf, 1.0)])
    def test_mub_rejects_non_finite_angles(self, m, alpha, phi):
        # mub_settings(2, inf) returned NaN directions, with numpy RuntimeWarnings
        message = r"^misalignment angle (alpha|phi) must lie in \(-inf, inf\), got "
        with pytest.raises(ValueError, match=message):
            mub_settings(m, alpha, phi)

    @pytest.mark.parametrize("m", [2, 3])
    def test_nom_vectors(self, m):
        alice, bob = nom_settings(m)
        for u in alice + bob:
            assert np.isclose(np.linalg.norm(u), 1.0, atol=1e-12)
        assert np.isclose(np.dot(alice[1], alice[0]), 0.5, atol=1e-12)
        if m == 3:
            assert np.isclose(np.dot(alice[2], alice[0]), 0.5, atol=1e-12)
            assert np.isclose(np.dot(alice[2], alice[1]), 0.5, atol=1e-12)

    def test_nom_pairing_overlaps(self):
        alice, bob = nom_settings(3)
        overlaps = [np.dot(u, v) for u, v in zip(alice, bob)]
        assert np.allclose(overlaps, [1.0, np.sqrt(3.0) / 2.0, np.sqrt(2.0 / 3.0)], atol=1e-12)


def _counts_data():
    return synthesize_counts(0.9, *mub_settings(2), 1000)


def _mc_config(**kwargs):
    return MCConfig(**{"m": 2, "scheme": "haar", "mu_grid": (0.9,), "n_samples": 10, **kwargs})


#: Each public count parameter: its name in messages, its range, and a call
#: that passes a value to it and nothing else out of the ordinary.
COUNT_PARAMETERS = {
    "Scenario m": ("settings count", 2, 3, lambda v: Scenario(0.9, m=v)),
    "MCConfig m": ("settings count", 2, 3, lambda v: _mc_config(m=v)),
    "mub_settings m": ("settings count", 2, 3, lambda v: mub_settings(v)),
    "eur_bound_tsallis m": ("settings count", 2, 3, lambda v: eur_bound_tsallis(2.0, v)),
    "db_bound m": ("settings count", 2, 2 ** 53 - 1, lambda v: db_bound(v)),
    "db_bound d_a": ("untrusted-side dimension", 2, 2 ** 53 - 1, lambda v: db_bound(2, v)),
    "n_samples": ("sample count", 1, MAX_SAMPLES, lambda v: _mc_config(n_samples=v)),
    "MCConfig seed": ("seed", 0, 2 ** 64 - 1, lambda v: _mc_config(seed=v)),
    "evaluate_with_errors seed": (
        "seed", 0, math.inf,
        lambda v: evaluate_with_errors(_counts_data(), [Criterion("shannon")], 2, 0.0, seed=v)),
    "synthesize_counts seed": (
        "seed", 0, math.inf, lambda v: synthesize_counts(0.9, *mub_settings(2), 1000, seed=v)),
    "violation_probability n_workers": (
        "worker count", 1, math.inf, lambda v: violation_probability(_mc_config(), n_workers=v)),
    "raised_bound_table n_workers": (
        "worker count", 1, math.inf, lambda v: raised_bound_table(n_samples=10, n_workers=v)),
    "bins": ("histogram bin count", 1, MAX_HIST_BINS,
             lambda v: histogram_edges(_mc_config(mu_grid=(1.0,)), v)),
    "bootstrap": (
        "bootstrap replicate count", 0, MAX_BOOTSTRAP,
        lambda v: evaluate_with_errors(_counts_data(), [Criterion("shannon")], v, 0.0)),
}


def _call_with_timeout(call, value, timeout=60.0):
    """``call(value)`` in a daemon thread: a call that hangs fails the test instead of the suite."""
    outcome = []

    def run():
        try:
            outcome.append(("returned", call(value)))
        except Exception as exc:  # handed back to the test
            outcome.append(("raised", exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert outcome, f"the call with {value!r} did not return within {timeout} s"
    return outcome[0]


class TestIntegerRule:
    def test_as_int(self):
        assert qcore.as_int("n", np.int16(3), 1, math.inf) == 3
        assert type(qcore.as_int("n", np.uint64(2 ** 64 - 1), 0, 2 ** 64 - 1)) is int
        with pytest.raises(ValueError, match=r"^n must lie in \[1, inf\], got 0$"):
            qcore.as_int("n", 0, 1, math.inf)
        for value in (np.True_, Fraction(2), 2 + 0j, "2", None):
            with pytest.raises(ValueError, match="^n must be an integer, got "):
                qcore.as_int("n", value, 0, 3)

    @pytest.mark.parametrize("parameter", COUNT_PARAMETERS)
    @pytest.mark.parametrize("value", [2.0, 2.5, True, math.nan])
    def test_non_integers_raise_the_rule_message(self, parameter, value):
        # NaN workers hung violation_probability; m = 2.0 and bins = 2.5 raised TypeError
        name, _, _, call = COUNT_PARAMETERS[parameter]
        kind, result = _call_with_timeout(call, value)
        assert kind == "raised" and type(result) is ValueError
        assert str(result) == f"{name} must be an integer, got {value!r}"

    @pytest.mark.parametrize("parameter", COUNT_PARAMETERS)
    def test_values_outside_the_range_raise_the_rule_message(self, parameter):
        name, lo, hi, call = COUNT_PARAMETERS[parameter]
        for value in (lo - 1, hi + 1) if hi != math.inf else (lo - 1,):
            kind, result = _call_with_timeout(call, value)
            assert kind == "raised" and type(result) is ValueError
            assert str(result) == f"{name} must lie in [{lo}, {hi}], got {value}"

    @pytest.mark.parametrize("parameter", COUNT_PARAMETERS)
    def test_numpy_integers_are_accepted(self, parameter):
        _, _, _, call = COUNT_PARAMETERS[parameter]
        kind, result = _call_with_timeout(call, np.int64(2))
        assert kind == "returned", result

    def test_an_int_past_the_digit_limit_prints_its_bit_length(self):
        # raised Python's "Exceeds the limit (4300 digits) for integer string conversion"
        message = "settings count must lie in [2, 9007199254740991], got a number of 16610 bits"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            db_bound(10 ** 5000)
        with pytest.raises(ValueError, match="^n must be an integer, got a number of 16610 bits$"):
            qcore.as_int("n", Fraction(10 ** 5000), 0, 3)


#: Each real range: the name in messages, its ends, and how the message prints them.
VISIBILITY = ("mixing probability", 0.0, 1.0, "[0, 1]")
ALPHA = ("misalignment angle alpha", -math.inf, math.inf, "(-inf, inf)")
PHI = ("misalignment angle phi", -math.inf, math.inf, "(-inf, inf)")
TSALLIS = ("Tsallis order", 1.0, math.inf, "[1, inf)")
RENYI = ("Renyi order", 0.5, math.inf, "[0.5, inf)")  # inf itself, the min-entropy, passes
FACTOR = ("bound factor", math.ulp(0.0), math.inf, "[5e-324, inf)")

_SHANNON = [Criterion("shannon")]

#: Each public real parameter: its range, an integer value it accepts, and a
#: call that passes a value to it and nothing else out of the ordinary.
REAL_PARAMETERS = {
    "Scenario mu": (VISIBILITY, 1, lambda v: Scenario(v)),
    "Scenario alpha_deg": (ALPHA, 10, lambda v: Scenario(0.9, v)),
    "Scenario phi_deg": (PHI, 10, lambda v: Scenario(0.9, 0.0, v)),
    "werner_state": (VISIBILITY, 1, lambda v: werner_state(v)),
    "joint_table_closed mu": (VISIBILITY, 1, lambda v: joint_table_closed(v, Z, Z)),
    "mub_settings alpha_deg": (ALPHA, 10, lambda v: mub_settings(2, v)),
    "mub_settings phi_deg": (PHI, 10, lambda v: mub_settings(3, 0.0, v)),
    "critical_mu alpha_deg": (ALPHA, 10, lambda v: critical_mu(v, 0.0)),
    "critical_mu phi_deg": (PHI, 10, lambda v: critical_mu(0.0, v)),
    "critical_alpha mu": (VISIBILITY, 1, lambda v: critical_alpha(_SHANNON[0], v)),
    "critical_alpha phi_deg": (PHI, 10, lambda v: critical_alpha(_SHANNON[0], 0.9, v)),
    "sweep mu": (VISIBILITY, 1, lambda v: sweep(v, [0.0], 0.0, 2, _SHANNON)),
    "sweep phi_deg": (PHI, 10, lambda v: sweep(0.9, [0.0], v, 2, _SHANNON)),
    "sweep alpha grid entry": (ALPHA, 10, lambda v: sweep(0.9, [0.0, v], 0.0, 2, _SHANNON)),
    "Criterion q": (TSALLIS, 2, lambda v: Criterion("tsallis", q=v)),
    "Criterion r": (RENYI, 1, lambda v: Criterion("renyi", r=v, s=1.0)),
    "Criterion s": (RENYI, 1, lambda v: Criterion("renyi", r=1.0, s=v)),
    "tsallis_entropy q": (TSALLIS, 2, lambda v: tsallis_entropy([0.5, 0.5], v)),
    "renyi_entropy r": (RENYI, 2, lambda v: renyi_entropy([0.5, 0.5], v)),
    "eur_bound_tsallis q": (TSALLIS, 2, lambda v: eur_bound_tsallis(v, 2)),
    "q_log x": (("q-logarithm argument", math.ulp(0.0), math.inf, "[5e-324, inf)"), 2,
                lambda v: q_log(v, 2.0)),
    "q_log q": (("q-logarithm order", -math.inf, math.inf, "(-inf, inf)"), 2,
                lambda v: q_log(2.0, v)),
    "MCConfig mu grid entry": (VISIBILITY, 1, lambda v: _mc_config(mu_grid=(0.9, v))),
    "MCConfig bound_factor": (FACTOR, 1, lambda v: _mc_config(bound_factor=v)),
    "raised_bound_table factor": (FACTOR, 1, lambda v: raised_bound_table((1.0, v), 0.9, 10)),
    "raised_bound_table mu": (VISIBILITY, 1, lambda v: raised_bound_table((1.0,), v, 10)),
    "db_lhs mu": (VISIBILITY, 1, lambda v: db_lhs(*mub_settings(2), v)),
    "evaluate_with_errors jitter_deg": (
        ("jitter in degrees", 0.0, math.inf, "[0, inf)"), 1,
        lambda v: evaluate_with_errors(_counts_data(), _SHANNON, 2, v)),
    "synthesize_counts mu": (VISIBILITY, 1, lambda v: synthesize_counts(v, *mub_settings(2), 100)),
    "synthesize_counts total_per_setting": (
        ("total_per_setting", math.ulp(0.0), 2.0 ** 53 - 1, "[5e-324, 9007199254740991]"), 100,
        lambda v: synthesize_counts(0.9, *mub_settings(2), v)),
}


def _refused_reals(lo, hi, admits_inf):
    """NaN, each infinity outside [lo, hi], and the nearest float beyond each finite end."""
    values = [math.nan] + [end for end in (-math.inf, math.inf) if not (admits_inf and end > 0)]
    return values + [math.nextafter(end, end - 1.0 if end == lo else end + 1.0)
                     for end in (lo, hi) if math.isfinite(end)]


class TestRealRule:
    def test_as_real(self):
        for value in (np.float32(0.25), np.int64(3), Fraction(1, 4), 3):
            assert type(qcore.as_real("x", value, 0.0, 3.0)) is float
        assert qcore.as_real("x", Fraction(1, 3), 0.0, 1.0) == 1 / 3
        message = "x must lie in (-inf, 1e+300], got inf"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            qcore.as_real("x", 10 ** 400, -math.inf, 1e300)  # past float range: inf
        for value in (np.True_, np.array(0.5), np.array([0.5]), np.complex128(1.0), b"1"):
            with pytest.raises(ValueError, match="^x must be a real number, got "):
                qcore.as_real("x", value, 0.0, 1.0)

    @pytest.mark.parametrize("parameter", REAL_PARAMETERS)
    @pytest.mark.parametrize("value", [None, "0.5", True, 1j])
    def test_non_reals_raise_the_type_message(self, parameter, value):
        # None raised TypeError in a dozen entry points; "0.5" passed Scenario, sweep and Renyi
        (name, _, _, _), _, call = REAL_PARAMETERS[parameter]
        if value is None and parameter in ("Criterion r", "Criterion s"):
            return  # None selects the default order, (1/2, inf)
        with pytest.raises(ValueError) as info:
            call(value)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("parameter", REAL_PARAMETERS)
    def test_values_outside_the_range_raise_the_range_message(self, parameter):
        (name, lo, hi, interval), _, call = REAL_PARAMETERS[parameter]
        for value in _refused_reals(lo, hi, admits_inf=name == "Renyi order"):
            with pytest.raises(ValueError) as info:
                call(value)
            assert str(info.value) == f"{name} must lie in {interval}, got {value}"

    @pytest.mark.parametrize("parameter", REAL_PARAMETERS)
    def test_numpy_scalars_and_fractions_are_accepted(self, parameter):
        _, valid, call = REAL_PARAMETERS[parameter]
        for value in (np.float32(valid), np.int64(valid), Fraction(valid)):
            call(value)

    def test_an_infinite_renyi_order_is_the_min_entropy(self):
        p = [0.75, 0.25]
        for order in (math.inf, np.float32(math.inf), 10 ** 400):
            assert renyi_entropy(p, order) == -math.log(0.75)
        assert Criterion("renyi", r=np.float64(math.inf), s=0.5).r == math.inf

    def test_output_values_are_python_floats(self):
        # sweep(True, ...) wrote mu=True into its rows, and phi_deg="5" wrote '5'
        rows = sweep(np.float32(0.5), [np.int64(10)], Fraction(5), 2, [Criterion("db")])
        assert all(type(getattr(rows[0], field)) is float
                   for field in ("mu", "alpha_deg", "phi_deg", "value"))
        config = _mc_config(mu_grid=(np.float32(0.5),), bound_factor=np.int64(1))
        estimates = violation_probability(config) + raised_bound_table((Fraction(11, 10),), 1, 10)[0]
        assert type(config.bound_factor) is float
        assert all(type(est.mu) is float and type(est.bound_factor) is float for est in estimates)


#: Each parameter that takes a list of numbers, and a call that passes a value to it.
LIST_PARAMETERS = {
    "mu grid": lambda v: _mc_config(mu_grid=v),
    "alpha grid": lambda v: sweep(0.9, v, 0.0, 2, _SHANNON),
    "bound factors": lambda v: raised_bound_table(v, 0.9, 10),
}


@pytest.mark.parametrize("parameter", LIST_PARAMETERS)
@pytest.mark.parametrize("value", [1.5, "1", None, np.array(1.0)])
def test_a_bare_number_or_a_string_is_not_a_list(parameter, value):
    # 1.5 raised "'float' object is not iterable"; "1" ran raised_bound_table at factor 1.0
    with pytest.raises(ValueError) as info:
        LIST_PARAMETERS[parameter](value)
    assert str(info.value) == f"{parameter} must be a list of numbers, got {value!r}"


#: Each rule's message for a NaN entry after the name, up to its end.
PROBABILITIES = " must be non-empty with entries in [0, 1], got "
WHOLE_COUNTS = " must be whole numbers in [0, 2**53), got nan"
UNIT_NORM = " must be unit norm, got |v| = nan"

_DIRECTIONS = np.array([Z, X])
_HIST_CONFIG = MCConfig(m=2, scheme="haar", mu_grid=(1.0,), n_samples=100, seed=23)

#: Each public array parameter: its name in messages, an integer-valued array it
#: accepts, a call that passes an array to it and nothing else out of the
#: ordinary, and the message a NaN entry raises after the name.
ARRAY_PARAMETERS = {
    "JointTable": ("joint table", [[1, 0], [0, 0]], lambda v: JointTable(v), PROBABILITIES),
    "shannon_entropy": ("distribution", [1, 0], lambda v: shannon_entropy(v), PROBABILITIES),
    "tsallis_entropy": ("distribution", [1, 0], lambda v: tsallis_entropy(v, 2.0), PROBABILITIES),
    "renyi_entropy": ("distribution", [1, 0], lambda v: renyi_entropy(v, 2.0), PROBABILITIES),
    "CountsData counts": ("counts", [[[1, 2], [3, 4]]], lambda v: CountsData(v), WHOLE_COUNTS),
    "CountsData alice": ("measurement direction", _DIRECTIONS,
                         lambda v: CountsData(np.ones((2, 2, 2)), v, _DIRECTIONS), UNIT_NORM),
    "CountsData bob": ("measurement direction", _DIRECTIONS,
                       lambda v: CountsData(np.ones((2, 2, 2)), _DIRECTIONS, v), UNIT_NORM),
    "counts_to_table": ("counts", [[1, 2], [3, 4]], lambda v: counts_to_table(v), WHOLE_COUNTS),
    "violation_histogram bin_counts": (
        "bin_counts", [1, 3], lambda v: violation_histogram(_HIST_CONFIG, 2, bin_counts=v),
        WHOLE_COUNTS),
    "Scenario alice": ("measurement direction", _DIRECTIONS, lambda v: Scenario(
        0.9, mode="explicit", alice=v, bob=_DIRECTIONS), UNIT_NORM),
    "Scenario bob": ("measurement direction", _DIRECTIONS, lambda v: Scenario(
        0.9, mode="explicit", alice=_DIRECTIONS, bob=v), UNIT_NORM),
    "db_lhs alice": ("measurement direction", _DIRECTIONS,
                     lambda v: db_lhs(v, _DIRECTIONS, 0.9), UNIT_NORM),
    "db_steering bob": ("measurement direction", _DIRECTIONS,
                        lambda v: db_steering(_DIRECTIONS, v, 0.9), UNIT_NORM),
    "joint_table_closed a_vec": ("measurement direction", Z,
                                 lambda v: joint_table_closed(0.9, v, Z), UNIT_NORM),
    "synthesize_counts alice": ("measurement direction", _DIRECTIONS,
                                lambda v: synthesize_counts(0.9, v, _DIRECTIONS, 100), UNIT_NORM),
    "joint_table_trace rho": ("density matrix", np.diag([1, 0, 0, 0]),
                              lambda v: joint_table_trace(v, Z, Z), " is not Hermitian"),
}


def _with_entry(valid, entry, dtype=object):
    """``valid`` as a ``dtype`` array with its first entry replaced by ``entry``."""
    array = np.array(valid, dtype=dtype)
    array.flat[0] = entry
    return array


class TestArrayRule:
    def test_as_array(self):
        assert qcore.as_array("x", [Fraction(1, 4), 10 ** 30]).tolist() == [0.25, 1e30]
        assert qcore.as_array("x", np.float32([0.5])).dtype == np.float64
        assert qcore.as_array("x", [1j, 2], complex).tolist() == [1j, 2]
        # numpy read a bool among floats as a float: [0.5, True] passed as [0.5, 1.0]
        for value in ("0.25", b"1", None, True, [0.5, None], [[0.5, "a"]], 1j, [0.5, True],
                      [[0.0, True], [0.0, 0.0]], [np.array([True, False]), [0.5, 0.5]],
                      (0.5, np.True_)):
            with pytest.raises(ValueError, match="^x must be an array of real numbers, got dtype "):
                qcore.as_array("x", value)
        with pytest.raises(ValueError, match="^joint table must be an array of real numbers"):
            JointTable([[0.0, True], [0.0, 0.0]])
        with pytest.raises(ValueError, match="^measurement direction must be an array of real"):
            qcore.as_unit_vector([0.0, 0.0, True])
        with pytest.raises(ValueError, match="^x has an entry past float range$"):
            qcore.as_array("x", [0.5, 10 ** 400])

    def test_as_probabilities_and_as_counts(self):
        assert qcore.as_probabilities("p", [1.0 + 1e-13, -1e-13]).tolist() == [1.0, 0.0]
        for value in ([], [0.5, math.nan], [1.5, -0.5], [math.inf, -math.inf]):
            with pytest.raises(ValueError, match=f"^p{re.escape(PROBABILITIES)}"):
                qcore.as_probabilities("p", value)
        with pytest.raises(ValueError, match=r"^p entries sum to 1.000000000002, expected 1$"):
            qcore.as_probabilities("p", [0.5, 0.500000000002])
        counts = qcore.as_counts("n", [0, 2.0 ** 53 - 1, np.uint64(7)])
        assert counts.dtype == np.int64 and counts.tolist() == [0, 2 ** 53 - 1, 7]
        for value, shown in ((-1, "-1.0"), (0.5, "0.5"), (2.0 ** 53, "9007199254740992.0"),
                             (math.inf, "inf"), (10 ** 30, "1e+30")):
            message = f"n must be whole numbers in [0, 2**53), got {shown}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                qcore.as_counts("n", [3, value])

    @pytest.mark.parametrize("parameter", ARRAY_PARAMETERS)
    @pytest.mark.parametrize("kind", ["string", "bool", "None", "bool entry", "complex"])
    def test_non_numbers_raise_the_type_message(self, parameter, kind):
        # "0.25" and True read as numbers in tables, directions and matrices; counts
        # raised TypeError for strings, None and complex numbers
        name, valid, call, _ = ARRAY_PARAMETERS[parameter]
        bad = {"string": lambda: np.array(valid).astype(str),
               "bool": lambda: np.array(valid).astype(bool),
               "None": lambda: _with_entry(valid, None),
               "bool entry": lambda: _with_entry(valid, True),
               "complex": lambda: _with_entry(valid, 1j, complex)}[kind]()
        if kind == "complex" and name == "density matrix":
            return  # complex entries are the point of a density matrix
        number = "complex" if name == "density matrix" else "real"
        with pytest.raises(ValueError) as info:
            call(bad)
        message = f"{name} must be an array of {number} numbers, got dtype {bad.dtype}"
        assert str(info.value) == message

    @pytest.mark.parametrize("parameter", ARRAY_PARAMETERS)
    def test_nan_raises_the_value_message(self, parameter):
        # shannon_entropy([0.5, 0.5, nan]) returned ln 2 and tsallis_entropy([nan, 1], 2) NaN
        name, valid, call, message = ARRAY_PARAMETERS[parameter]
        dtype = complex if name == "density matrix" else float
        with pytest.raises(ValueError) as info:
            call(_with_entry(valid, math.nan, dtype))
        assert str(info.value).startswith(name + message)

    @pytest.mark.parametrize("parameter", ARRAY_PARAMETERS)
    def test_float32_int64_and_fraction_entries_are_accepted(self, parameter):
        _, valid, call, _ = ARRAY_PARAMETERS[parameter]
        fractions = np.array([Fraction(x) for x in np.ravel(valid)], dtype=object)
        for value in (np.array(valid, np.float32), np.array(valid, np.int64),
                      fractions.reshape(np.shape(valid))):
            call(value)
