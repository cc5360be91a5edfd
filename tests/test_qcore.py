import numpy as np
import pytest

from steerkit import qcore
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
        with pytest.raises(ValueError, match="misalignment angles must be finite, got alpha = "):
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
