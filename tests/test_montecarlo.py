import io
import math
import sys
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    crm_probability,
    dihedral_probability,
    haar_probability,
    ks_statistic,
    ks_two_sample,
)
from steerkit import cli, montecarlo
from steerkit.criteria import DB_VECTOR_THRESHOLD
from steerkit.montecarlo import (
    CHUNK_SIZE,
    MCConfig,
    _chunk_geometry,
    _map_chunks,
    chunk_rng,
    estimates_to_csv,
    histogram_to_csv,
    measurement_class,
    raised_bound_table,
    violation_histogram,
    violation_probability,
)


def within_stderr(estimate, target, n_sigma=4.0, floor=1e-4):
    return abs(estimate.p_violation - target) <= max(n_sigma * estimate.stderr, floor)


def two_thread_window():
    """Chunks the threaded engine keeps in flight on two threads."""
    return 2 * montecarlo._CHUNKS_IN_FLIGHT_PER_THREAD


class TestConfigValidation:
    def test_scheme_class_mapping(self):
        assert measurement_class("dihedral") == "rom"
        assert measurement_class("haar") == "rom"
        assert measurement_class("isotropic") == "crm"
        with pytest.raises(ValueError):
            measurement_class("other")

    def test_rejects_bad_configs(self):
        good = dict(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=10, seed=0)
        MCConfig(**good)
        with pytest.raises(ValueError):
            MCConfig(**{**good, "m": 4})
        with pytest.raises(ValueError):
            MCConfig(**{**good, "m": 3})  # dihedral is two-setting only
        with pytest.raises(ValueError):
            MCConfig(**{**good, "mu_grid": (1.2,)})
        with pytest.raises(ValueError):
            MCConfig(**{**good, "mu_grid": ()})
        with pytest.raises(ValueError):
            MCConfig(**{**good, "n_samples": 0})
        with pytest.raises(ValueError):
            MCConfig(**{**good, "bound_factor": 0.0})

    @pytest.mark.parametrize("n_samples", [math.nan, 2.5, 10.0, True, "10", None])
    def test_rejects_non_integer_sample_count(self, n_samples):
        # NaN and 2.5 passed the range checks and raised TypeError in _chunk_plan
        with pytest.raises(ValueError, match="sample count must be an integer"):
            MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=n_samples)

    @pytest.mark.parametrize("seed", [1.5, math.nan, 1.0, False, "1"])
    def test_rejects_non_integer_seed(self, seed):
        # seed=1.5 ran silently as seed 1
        with pytest.raises(ValueError, match="seed must be an integer"):
            MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=10, seed=seed)

    def test_numpy_integers_accepted_as_python_ints(self):
        cfg = MCConfig(m=2, scheme="haar", mu_grid=(0.9,), n_samples=np.int64(3000),
                       seed=np.uint64(7))
        assert type(cfg.n_samples) is int and type(cfg.seed) is int
        plain = MCConfig(m=2, scheme="haar", mu_grid=(0.9,), n_samples=3000, seed=7)
        assert violation_probability(cfg) == violation_probability(plain)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_bound_factor(self, factor):
        # a NaN threshold compares False everywhere and would report p = 0
        with pytest.raises(ValueError):
            MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=10, bound_factor=factor)

    @pytest.mark.parametrize(
        "n_samples, n_mu",
        [(montecarlo.MAX_SAMPLES + 1, 1), (10 ** 18, 1)],
    )
    def test_rejects_oversized_runs_before_planning(self, monkeypatch, n_samples, n_mu):
        # 1e18 samples hung in _chunk_plan; the check runs before any plan exists
        monkeypatch.setattr(montecarlo, "_chunk_plan", None)
        with pytest.raises(ValueError, match="sample count"):
            MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,) * n_mu, n_samples=n_samples)

    def test_size_caps_admit_the_documented_runs(self):
        # the mc-grid benchmark's 1001-point grid at 1e6 samples, the largest grid
        # the CLI accepts at the same size and at the largest sample count, and the
        # largest sample count on one point: counts are summed, not kept per chunk
        for n_mu, n_samples in ((1001, 1_000_000), (cli.MAX_GRID_POINTS, 1_000_000),
                                (cli.MAX_GRID_POINTS, montecarlo.MAX_SAMPLES),
                                (1, montecarlo.MAX_SAMPLES)):
            MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,) * n_mu, n_samples=n_samples)


def assert_orthonormal_rows(vecs):
    """Rows of each (..., k, 3) block are orthonormal to 1e-12."""
    gram = np.einsum("...ij,...kj->...ik", vecs, vecs)
    assert np.allclose(gram, np.eye(vecs.shape[-2]), rtol=0.0, atol=1e-12)


class TestSamplers:
    """The full-vector reference draws, and what the engine draws per sample."""

    def test_unit_vector_norm_and_isotropy(self):
        alice, bob = reference_directions("isotropic", 2, chunk_rng(42, 0), 10000)
        vecs = np.concatenate([alice, bob]).reshape(-1, 3)
        assert np.allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=0.0, atol=1e-12)
        # component means are 0 +- 4 sigma, second moment 1/3
        sigma = math.sqrt(1.0 / 3.0 / len(vecs))
        assert np.all(np.abs(vecs.mean(axis=0)) < 4.0 * sigma)
        assert np.allclose((vecs ** 2).mean(axis=0), 1.0 / 3.0, atol=0.01)

    @pytest.mark.parametrize("scheme", ["dihedral", "haar"])
    def test_pairs_orthonormal(self, scheme):
        alice, bob = reference_directions(scheme, 2, chunk_rng(43, 0), 200)
        assert alice.shape == (200, 2, 3)
        assert_orthonormal_rows(alice)
        assert_orthonormal_rows(bob)

    def test_dihedral_angle_uniform(self):
        # dihedral geometry is |n_A . y| = cos(gamma)
        geom = _chunk_geometry("dihedral", 2, 44, 0, 20000)
        gammas = np.degrees(np.arccos(np.minimum(1.0, geom)))
        stat = ks_statistic(gammas, lambda g: np.clip(g / 90.0, 0.0, 1.0))
        assert stat < 1.5 * 1.36 / math.sqrt(len(gammas))

    def test_haar_plane_normal_cosine_uniform(self):
        cosines = _chunk_geometry("haar", 2, 45, 0, 20000)
        stat = ks_statistic(cosines, lambda c: np.clip(c, 0.0, 1.0))
        assert stat < 1.5 * 1.36 / math.sqrt(len(cosines))

    def test_draw_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            _chunk_geometry("other", 2, 0, 0, 1)

    def test_triads_right_handed_orthonormal(self):
        rot = reference_rotations(chunk_rng(46, 0).standard_normal((2000, 4)))
        assert_orthonormal_rows(rot)
        assert np.allclose(np.linalg.det(rot), 1.0, rtol=0.0, atol=1e-12)
        triads, bob = reference_directions("haar", 3, chunk_rng(46, 0), 2000)
        assert np.array_equal(triads, rot.swapaxes(1, 2))  # directions are the columns
        firsts = triads[:, 0]
        sigma = math.sqrt(1.0 / 3.0 / len(firsts))
        assert np.all(np.abs(firsts.mean(axis=0)) < 5.0 * sigma)
        # |det A| |det B| = 1: the three-setting step function
        assert np.allclose(reference_geometry(triads, bob), 1.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_geometry_matches_linear_algebra(self, m):
        # the reference reduction against textbook formulas on isotropic directions
        alice, bob = reference_directions("isotropic", m, chunk_rng(48, 0), 500)
        if m == 2:
            # Binet-Cauchy: (a1 x a2) . (b1 x b2) = (a1.b1)(a2.b2) - (a1.b2)(a2.b1)
            dots = np.einsum("nik,njk->nij", alice, bob)
            expected = np.abs(dots[:, 0, 0] * dots[:, 1, 1] - dots[:, 0, 1] * dots[:, 1, 0])
        else:
            expected = np.abs(np.linalg.det(alice)) * np.abs(np.linalg.det(bob))
        assert np.allclose(reference_geometry(alice, bob), expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "scheme, m, per_sample",
        [("dihedral", 2, 1), ("haar", 2, 1), ("haar", 3, 0), ("isotropic", 2, 3), ("isotropic", 3, 4)],
    )
    def test_draws_per_sample(self, monkeypatch, scheme, m, per_sample):
        drawn = []
        real_rng = montecarlo.chunk_rng

        class RecordingGenerator:
            def __init__(self, seed, chunk_index):
                self._rng = real_rng(seed, chunk_index)

            def random(self, size):
                drawn.append(np.prod(size))
                return self._rng.random(size)

        monkeypatch.setattr(montecarlo, "chunk_rng", RecordingGenerator)
        assert _chunk_geometry(scheme, m, 1, 0, 1000).shape == (1000,)
        assert sum(drawn) == per_sample * 1000


SCHEME_PAIRS = [("dihedral", 2), ("haar", 2), ("haar", 3), ("isotropic", 2), ("isotropic", 3)]


def reference_rotations(quat):
    """Full rotation matrices (n, 3, 3), normalised with np.linalg.norm."""
    q = quat / np.linalg.norm(quat, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    rot = np.empty((q.shape[0], 3, 3))
    rot[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rot[:, 0, 1] = 2.0 * (x * y - w * z)
    rot[:, 0, 2] = 2.0 * (x * z + w * y)
    rot[:, 1, 0] = 2.0 * (x * y + w * z)
    rot[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rot[:, 1, 2] = 2.0 * (y * z - w * x)
    rot[:, 2, 0] = 2.0 * (x * z - w * y)
    rot[:, 2, 1] = 2.0 * (y * z + w * x)
    rot[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rot


def reference_dihedral_pairs(uniforms):
    """Alice's dihedral pairs from the stacked in-plane basis (e1, e2).

    Columns of ``uniforms`` map to gamma/(pi/2), psi/(2 pi), chi/(2 pi): the
    dihedral angle from Bob's plane normal (y), the azimuth of Alice's plane
    normal around y, and Alice's in-plane orientation.
    """
    gamma = uniforms[:, 0] * (np.pi / 2.0)
    psi = uniforms[:, 1] * (2.0 * np.pi)
    chi = uniforms[:, 2] * (2.0 * np.pi)
    e1 = np.stack([np.cos(psi), np.zeros_like(psi), -np.sin(psi)], axis=1)
    e2 = np.stack(
        [-np.cos(gamma) * np.sin(psi), np.sin(gamma), -np.cos(gamma) * np.cos(psi)], axis=1
    )
    cos_c, sin_c = np.cos(chi)[:, None], np.sin(chi)[:, None]
    pairs = np.empty((uniforms.shape[0], 2, 3))
    pairs[:, 0] = cos_c * e1 + sin_c * e2
    pairs[:, 1] = -sin_c * e1 + cos_c * e2
    return pairs


def reference_directions(scheme, m, rng, n):
    """Each scheme's full direction arrays (n, m, 3) for Alice and Bob.

    Bob's dihedral pair is the fixed (z, x) and broadcasts as (m, 3).
    """
    if scheme == "dihedral":
        return reference_dihedral_pairs(rng.random((n, 3))), np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    if scheme == "haar":
        rot_a = reference_rotations(rng.standard_normal((n, 4)))
        rot_b = reference_rotations(rng.standard_normal((n, 4)))
        return rot_a[:, :, :m].swapaxes(1, 2), rot_b[:, :, :m].swapaxes(1, 2)
    vecs_a = rng.standard_normal((n, m, 3))
    vecs_b = rng.standard_normal((n, m, 3))
    vecs_a /= np.linalg.norm(vecs_a, axis=2, keepdims=True)
    vecs_b /= np.linalg.norm(vecs_b, axis=2, keepdims=True)
    return vecs_a, vecs_b


def reference_geometry(alice, bob):
    """|(a1 x a2) . (b1 x b2)| for pairs, |det A| |det B| for triads."""
    if alice.shape[-2] == 2:
        normal_a = np.cross(alice[..., 0, :], alice[..., 1, :])
        normal_b = np.cross(bob[..., 0, :], bob[..., 1, :])
        return np.abs(np.einsum("...i,...i->...", normal_a, normal_b))

    def det(vecs):
        return np.einsum("...i,...i->...", vecs[..., 0, :], np.cross(vecs[..., 1, :], vecs[..., 2, :]))

    return np.abs(det(alice)) * np.abs(det(bob))


class TestSamplerReference:
    """The engine's scalar draws follow the law of the full-vector reference geometry."""

    @pytest.mark.parametrize("scheme, m", [pair for pair in SCHEME_PAIRS if pair != ("haar", 3)])
    @pytest.mark.parametrize("seed, chunk", [(0, 0), (7, 3), (2024, 11)])
    def test_distributed_as_reference(self, scheme, m, seed, chunk):
        n = 4 * CHUNK_SIZE
        geom = _chunk_geometry(scheme, m, seed, chunk, n)
        # the reference draws from the next Philox key, independent of the engine's
        ref_alice, ref_bob = reference_directions(scheme, m, chunk_rng(seed, chunk + 1), n)
        stat = ks_two_sample(geom, reference_geometry(ref_alice, ref_bob))
        assert stat < 1.5 * 1.36 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("scheme, m", [("haar", 3)])
    @pytest.mark.parametrize("seed, chunk", [(0, 0), (7, 3), (2024, 11)])
    def test_bit_identical_to_reference(self, scheme, m, seed, chunk):
        # Haar triads are rotations, so the reference geometry is |det| |det| = 1
        # up to its rounding; the engine returns that exact value, bit for bit
        n = 10_000
        ref = reference_geometry(*reference_directions(scheme, m, chunk_rng(seed, chunk), n))
        assert np.max(np.abs(ref - 1.0)) < 1e-12
        assert np.array_equal(_chunk_geometry(scheme, m, seed, chunk, n), np.rint(ref))


class TestThresholdCounting:
    """Per-chunk counts against a brute-force comparison of every sample with every threshold."""

    @pytest.mark.parametrize(
        "m, mu, factor", [(2, 1e-5, 1e-310), (3, 1e-3, 3e-312), (2, 1e-100, 1e-315)]
    )
    def test_threshold_where_the_bound_underflows(self, m, mu, factor):
        # factor * T_m is subnormal: dividing it by mu^m as it stands is off by
        # 298, 25,897 and 43.8 million ulp at these cells
        assert 0.0 < factor * DB_VECTOR_THRESHOLD[m] < sys.float_info.min
        exact = Fraction(factor) * Fraction(DB_VECTOR_THRESHOLD[m]) / Fraction(mu) ** m
        error = abs(Fraction(montecarlo._threshold(m, mu, factor)) - exact)
        assert error <= Fraction(math.ulp(float(exact)))

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.sampled_from([2, 3]),
        mus=st.lists(
            st.sampled_from([0.0, 0.5, 0.75, 0.9, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=6
        ),
        factor=st.floats(0.1, 3.0),
        noise=st.lists(st.floats(0.0, 2.0), max_size=20),
        n_samples=st.sampled_from([1, 2, 17, 300, CHUNK_SIZE + 3]),
    )
    def test_counts_match_brute_force(self, m, mus, factor, noise, n_samples):
        thresholds = np.array(
            [factor * DB_VECTOR_THRESHOLD[m] / mu ** m if mu ** m > 0.0 else math.inf for mu in mus]
        )
        finite = thresholds[np.isfinite(thresholds)]
        # samples on, just below and just above every threshold, plus noise
        pool = np.concatenate(
            [finite, np.nextafter(finite, 0.0), np.nextafter(finite, np.inf), noise, [0.0, 1.0]]
        )

        def geometry(scheme, m, seed, chunk_index, size):
            return np.resize(np.roll(pool, chunk_index), size)

        cfg = MCConfig(m=m, scheme="isotropic", mu_grid=tuple(mus), n_samples=n_samples,
                       bound_factor=factor)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_chunk_geometry", geometry)
            estimates = violation_probability(cfg)
        expected = sum(
            (geometry(None, m, None, c, size)[None, :] > thresholds[:, None]).sum(axis=1)
            for c, size in montecarlo._chunk_plan(n_samples)
        )
        assert [est.p_violation for est in estimates] == list(expected / n_samples)


#: Drawn angles at and near the ends of [0, 1): u = 6.4e-8 lies just past
#: the band around acos(1) = 0, which ends at u = 1e-7 / (pi/2).
SPECIAL_U = (0.0, 5e-324, 1e-17, 6.4e-8, float(np.nextafter(1.0, 0.0)))


class TestDihedralAngleCount:
    """The single-cell dihedral count on the drawn u against np.cos(u pi/2) > t, sample by sample."""

    @pytest.mark.parametrize("size", [1, 17, CHUNK_SIZE])
    @pytest.mark.parametrize("special", (None,) + SPECIAL_U)
    def test_matches_cosine_comparison(self, size, special):
        u = chunk_rng(9, size).random(size)
        if special is not None:
            u[0] = special
        cosines = np.cos(u * (np.pi / 2.0))
        picked = cosines[np.random.default_rng(size).integers(0, size, 200)]
        on = np.concatenate([picked, np.cos(np.array(SPECIAL_U) * (np.pi / 2.0))])
        thresholds = np.concatenate([
            on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf),
            [0.0, 1.0, np.nextafter(1.0, 0.0), 1.0 - 1e-10, np.inf],
        ])
        expected = [np.count_nonzero(cosines > t) for t in thresholds]
        assert montecarlo._dihedral_counts(u, thresholds).tolist() == expected


class TestWorkers:
    def test_rejects_worker_count_below_one(self):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=10)
        for workers in (0, -3):
            with pytest.raises(ValueError):
                violation_probability(cfg, n_workers=workers)

    @pytest.mark.parametrize(
        "n_workers, n_chunks, cpus, expected",
        [(64, 3, 8, 3), (64, 10, 4, 4), (2, 10, 4, 2), (8, 10, None, None)],
    )
    def test_thread_count_capped(self, monkeypatch, n_workers, n_chunks, cpus, expected):
        """At most min(workers, chunks, CPUs) threads; one thread runs serially."""
        started = []

        class RecordingExecutor:
            # runs tasks inline, so no real pool is ever started
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        plan = [(c, 1) for c in range(n_chunks)]
        assert _map_chunks(lambda c, size: c, plan, n_workers) == sum(range(n_chunks))
        assert started == ([] if expected is None else [expected])


class TestViolationProbability:
    def test_three_settings_step_function(self):
        mu_star = 1.0 / math.sqrt(3.0)
        cfg = MCConfig(
            m=3,
            scheme="haar",
            mu_grid=(0.5, mu_star * 0.995, mu_star * 1.005, 0.8, 1.0),
            n_samples=20000,
            seed=5,
        )
        probs = [est.p_violation for est in violation_probability(cfg)]
        assert probs == [0.0, 0.0, 1.0, 1.0, 1.0]  # exact, no sampling noise
        assert probs == [haar_probability(3, 1.0, mu) for mu in cfg.mu_grid]

    def test_three_settings_raised_bounds_still_certain(self):
        for factor in (1.0, 1.1, 1.2):
            cfg = MCConfig(
                m=3, scheme="haar", mu_grid=(1.0,), n_samples=5000, bound_factor=factor, seed=6
            )
            assert violation_probability(cfg)[0].p_violation == 1.0 == haar_probability(3, factor)

    def test_dihedral_matches_analytic(self):
        for factor in (1.0, 1.1, 1.2):
            cfg = MCConfig(
                m=2,
                scheme="dihedral",
                mu_grid=(1.0,),
                n_samples=400_000,
                bound_factor=factor,
                seed=7,
            )
            est = violation_probability(cfg)[0]
            assert within_stderr(est, dihedral_probability(1.0, factor))

    def test_dihedral_partial_visibility(self):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(0.85,), n_samples=400_000, seed=8)
        est = violation_probability(cfg)[0]
        assert within_stderr(est, dihedral_probability(0.85))

    def test_haar_pairs_give_half(self):
        cfg = MCConfig(m=2, scheme="haar", mu_grid=(0.75, 0.9, 1.0), n_samples=400_000, seed=9)
        estimates = violation_probability(cfg)
        assert within_stderr(estimates[-1], 0.5)
        for est in estimates:
            assert within_stderr(est, haar_probability(2, 1.0, est.mu))

    @pytest.mark.parametrize("m", [2, 3])
    def test_isotropic_matches_quadrature(self, m):
        cfg = MCConfig(m=m, scheme="isotropic", mu_grid=(0.8, 0.9, 1.0), n_samples=400_000, seed=10)
        for est in violation_probability(cfg):
            assert within_stderr(est, crm_probability(m, 1.0, est.mu))

    def test_zero_visibility_never_violates(self):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(0.0,), n_samples=1000, seed=11)
        assert violation_probability(cfg)[0].p_violation == 0.0

    def test_underflowing_visibility_never_violates(self):
        # mu^m underflows to 0: the threshold is infinite, not a division by zero
        cfg = MCConfig(m=3, scheme="isotropic", mu_grid=(1e-200, 1.0), n_samples=1000, seed=11)
        assert violation_probability(cfg)[0].p_violation == 0.0

    def test_stderr_formula(self):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=50_000, seed=12)
        est = violation_probability(cfg)[0]
        expected = math.sqrt(est.p_violation * (1.0 - est.p_violation) / est.n_samples)
        assert np.isclose(est.stderr, expected, atol=1e-15)
        assert 0.0 <= est.p_violation <= 1.0

    def test_deterministic_across_workers(self, monkeypatch):
        cfg = MCConfig(
            m=2,
            scheme="isotropic",
            mu_grid=(0.8, 0.9, 1.0),
            n_samples=3 * CHUNK_SIZE + 12345,
            seed=13,
        )
        results = [
            tuple(est.p_violation for est in violation_probability(cfg, n_workers=w))
            for w in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]

        # twice the two-thread window of chunks plus a partial one: the window refills
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = MCConfig(
            m=2,
            scheme="isotropic",
            mu_grid=(0.8, 0.9, 1.0),
            n_samples=2 * two_thread_window() * CHUNK_SIZE + 4321,
            seed=13,
        )
        assert violation_probability(cfg, n_workers=1) == violation_probability(cfg, n_workers=2)

    def test_threaded_memory_does_not_grow_with_the_run(self, monkeypatch):
        # every chunk's counts and future used to be kept until an ordered merge:
        # 1.6 MiB at 256 chunks, 8.5 MiB at 4,096
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)

        def peak(n_chunks):
            cfg = MCConfig(m=3, scheme="haar", mu_grid=(1.0,), n_samples=n_chunks * CHUNK_SIZE)
            tracemalloc.start()
            try:
                violation_probability(cfg, n_workers=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4096) - peak(256) <= 1 << 20

    def test_deterministic_rerun(self):
        cfg = MCConfig(m=2, scheme="haar", mu_grid=(1.0,), n_samples=30_000, seed=14)
        first = violation_probability(cfg)
        second = violation_probability(cfg)
        assert first == second


class TestViolationHistogram:
    def test_density_normalised(self):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=200_000, seed=20)
        hist = violation_histogram(cfg, bins=50)
        widths = np.diff(hist.bin_edges)
        assert np.isclose((hist.density * widths).sum(), 1.0, atol=1e-9)
        assert hist.bin_edges[0] == 0.0
        assert np.isclose(hist.bin_edges[-1], 1.0 - 0.5, atol=1e-12)

    def test_dihedral_mode_at_maximal_violation(self):
        # cos(gamma) with gamma uniform has diverging density at 1, so the
        # top violation bin is the densest
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=200_000, seed=21)
        hist = violation_histogram(cfg, bins=50)
        assert hist.density.argmax() == len(hist.density) - 1

    def test_haar_density_flat(self):
        # |cos gamma| uniform: violation amounts uniform on (0, 1/2], density 2
        cfg = MCConfig(m=2, scheme="haar", mu_grid=(1.0,), n_samples=400_000, seed=22)
        hist = violation_histogram(cfg, bins=20)
        assert np.all(np.abs(hist.density - 2.0) < 0.15)
        # chi-square against uniform bin occupancy
        counts = hist.density * np.diff(hist.bin_edges) * hist.n_violations
        expected = hist.n_violations / len(counts)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 19 dof: 99.9th percentile is 43.8
        assert chi2 < 43.8

    def test_requires_single_mu_and_violations(self):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(0.9, 1.0), n_samples=100, seed=23)
        with pytest.raises(ValueError):
            violation_histogram(cfg)
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(0.5,), n_samples=100, seed=23)
        with pytest.raises(ValueError):
            violation_histogram(cfg)  # max LHS = 0.25 < bound: no attainable violation

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pass_matches_separate_passes(self, monkeypatch, workers):
        # more chunks than the two-thread window, so the window refills
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        n_samples = (two_thread_window() + 3) * CHUNK_SIZE + 99
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(0.95,), n_samples=n_samples, seed=24)
        estimates, bin_counts = violation_probability(cfg, n_workers=workers, hist_bins=16)
        assert estimates == violation_probability(cfg)
        hist = violation_histogram(cfg, bins=16)
        reproduced = violation_histogram(cfg, bins=16, bin_counts=bin_counts)
        assert reproduced.n_violations == hist.n_violations > 0
        assert np.array_equal(reproduced.bin_edges, hist.bin_edges)
        assert np.array_equal(reproduced.density, hist.density)

    def test_rejects_bins_of_zero_width(self):
        # a subnormal violation range gave edges [0, 0, ..., 5e-324, ...] and
        # a density of nan and inf
        cfg = MCConfig(2, "haar", (2e-162,), 2000, bound_factor=5e-324, seed=1)
        for make in (lambda: montecarlo.histogram_edges(cfg, 50),
                     lambda: violation_histogram(cfg, bins=50),
                     lambda: violation_probability(cfg, hist_bins=50)):
            with pytest.raises(ValueError, match="too narrow"):
                make()
        # a narrow range of normal doubles still gives finite widths and densities
        cfg = MCConfig(2, "haar", (1e-150,), 2000, bound_factor=1e-300, seed=1)
        hist = violation_histogram(cfg, bins=50)
        assert np.all(np.diff(hist.bin_edges) > 0.0) and np.all(np.isfinite(hist.density))

    def test_rejects_oversized_bin_count_before_allocating(self):
        # 1e12 bins ended in a MemoryError from np.linspace
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=100, seed=23)
        with pytest.raises(ValueError, match="bin count"):
            montecarlo.histogram_edges(cfg, 10 ** 12)
        cap = montecarlo.MAX_HIST_BINS
        assert len(montecarlo.histogram_edges(cfg, 50)) == 51
        assert len(montecarlo.histogram_edges(cfg, cap)) == cap + 1
        with pytest.raises(ValueError, match="bin count"):
            montecarlo.histogram_edges(cfg, cap + 1)

    @pytest.mark.parametrize(
        "bin_counts",
        [[1, 2, 3], [1, 2, 3, 4, 5, 6], [[1, 2, 3, 4, 5]], [1, 2, 3, 4, -1], [1, 2, 3, 4, 0.5],
         [1, 2, 3, 4, math.nan], [1, 2, 3, 4, math.inf], [1, 2, 3, 4, 2.0 ** 53]],
    )
    def test_rejects_bin_counts_that_do_not_fit_the_bins(self, bin_counts):
        # 3 counts for 5 bins gave a 3-entry density that the CSV writer cut
        # short silently; a negative count gave a negative density
        cfg = MCConfig(m=2, scheme="haar", mu_grid=(1.0,), n_samples=100, seed=23)
        with pytest.raises(ValueError, match=r"^bin_counts must be 5 whole counts in \[0, 2\*\*53\)$"):
            violation_histogram(cfg, bins=5, bin_counts=np.array(bin_counts))

    def test_takes_whole_float_bin_counts(self):
        cfg = MCConfig(m=2, scheme="haar", mu_grid=(1.0,), n_samples=100, seed=23)
        hist = violation_histogram(cfg, bins=2, bin_counts=[1.0, 3])
        assert hist.n_violations == 4 and list(hist.density) == [1.0, 3.0]


class TestRaisedBoundTable:
    def test_layout_and_reference_rows(self):
        table = raised_bound_table(n_samples=200_000, seed=30)
        assert [row[0].m for row in table] == [2, 3, 2, 3]
        assert [row[0].scheme for row in table] == ["dihedral", "haar", "isotropic", "isotropic"]
        for row in table:
            assert [est.bound_factor for est in row] == [1.0, 1.1, 1.2]
        # 2 ROM row follows the uniform-dihedral analytic values
        for est, factor in zip(table[0], (1.0, 1.1, 1.2)):
            assert within_stderr(est, dihedral_probability(1.0, factor))
        # 3 ROM row is certain violation at every factor
        assert all(est.p_violation == 1.0 == haar_probability(3, est.bound_factor) for est in table[1])
        # CRM rows follow the isotropic quadrature oracle
        for m, row in ((2, table[2]), (3, table[3])):
            for est, factor in zip(row, (1.0, 1.1, 1.2)):
                assert within_stderr(est, crm_probability(m, factor))


    @pytest.mark.parametrize(
        "kwargs",
        [
            {"factors": (math.nan,)},
            {"factors": (1.0, math.inf)},
            {"factors": (0.0,)},
            {"factors": (-1.1,)},
            {"mu": 1.5},
            {"mu": -0.1},
            {"mu": math.nan},
            {"n_samples": 0},
            {"n_samples": -5},
            {"n_samples": montecarlo.MAX_SAMPLES + 1},
        ],
    )
    def test_rejects_invalid_inputs(self, kwargs):
        # a NaN factor reported p = 0 on every row; zero samples raised TypeError
        with pytest.raises(ValueError):
            raised_bound_table(**{"n_samples": 1000, **kwargs})

    def test_rejects_an_empty_factor_list_before_drawing(self, monkeypatch):
        # drew every row's samples and returned [[], [], [], []]
        monkeypatch.setattr(montecarlo, "_estimate_cells", None)
        with pytest.raises(ValueError, match="^bound factor list must be non-empty$"):
            raised_bound_table(factors=())


def assert_probabilities(estimates):
    for est in estimates:
        assert 0.0 <= est.p_violation <= 1.0
        assert math.isfinite(est.stderr)


def floats_or(low, high):
    """Mostly a float from [low, high], ends included; else any float, nan and +-inf too."""
    return st.floats(low, high) | st.sampled_from([low, high]) | st.floats()


#: Small valid runs, out-of-range counts and huge ones (never planned).
SAMPLE_COUNTS = (
    st.integers(1, 3000) | st.integers(-3, 0) | st.integers(montecarlo.MAX_SAMPLES + 1, 10 ** 30)
)


class TestEntryPointProperties:
    """Each entry point raises ValueError or gives finite probabilities in [0, 1]."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        row=st.sampled_from(montecarlo.RAISED_BOUND_ROWS + ((2, "haar"),)),
        mu_grid=st.lists(floats_or(0.0, 1.0), min_size=1, max_size=3),
        n_samples=SAMPLE_COUNTS,
        bound_factor=floats_or(0.1, 3.0),
        seed=st.integers(-2, 2 ** 64 + 2),
    )
    def test_mc_config(self, row, mu_grid, n_samples, bound_factor, seed):
        try:
            cfg = MCConfig(*row, tuple(mu_grid), n_samples, bound_factor, seed)
        except ValueError:
            return
        assert_probabilities(violation_probability(cfg, n_workers=2))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        row=st.sampled_from(montecarlo.RAISED_BOUND_ROWS),
        mu_grid=st.lists(floats_or(0.9, 1.0), min_size=1, max_size=2),
        n_samples=SAMPLE_COUNTS,
        bound_factor=floats_or(0.5, 1.5),
        bins=st.integers(1, 64) | st.integers(-2, 0) | st.integers(montecarlo.MAX_HIST_BINS + 1, 10 ** 15),
    )
    def test_histogram_edges(self, row, mu_grid, n_samples, bound_factor, bins):
        try:
            cfg = MCConfig(*row, tuple(mu_grid), n_samples, bound_factor)
            edges = montecarlo.histogram_edges(cfg, bins)
        except ValueError:
            return
        assert len(edges) == bins + 1 and np.all(np.isfinite(edges))
        estimates, bin_counts = violation_probability(cfg, hist_bins=bins)
        assert_probabilities(estimates)
        assert bin_counts.min() >= 0 and bin_counts.sum() <= n_samples

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        factors=st.lists(floats_or(0.1, 3.0), max_size=3),
        mu=floats_or(0.0, 1.0),
        n_samples=SAMPLE_COUNTS,
        seed=st.integers(-2, 2 ** 64 + 2),
    )
    def test_raised_bound_table(self, factors, mu, n_samples, seed):
        try:
            table = raised_bound_table(factors, mu, n_samples, seed)
        except ValueError:
            return
        assert len(table) == len(montecarlo.RAISED_BOUND_ROWS)
        for row in table:
            assert_probabilities(row)


class TestCsvWriters:
    def test_estimates_csv(self, tmp_path):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(0.9, 1.0), n_samples=1000, seed=31)
        estimates = violation_probability(cfg)
        path = tmp_path / "mc.csv"
        with open(path, "w") as stream:
            estimates_to_csv(estimates, stream)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "m,scheme,mu,bound_factor,n_samples,p_violation,stderr"
        assert len(lines) == 3

    def test_histogram_csv(self, tmp_path):
        cfg = MCConfig(m=2, scheme="dihedral", mu_grid=(1.0,), n_samples=5000, seed=32)
        hist = violation_histogram(cfg, bins=10)
        path = tmp_path / "hist.csv"
        with open(path, "w") as stream:
            histogram_to_csv(hist, stream)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin_left,bin_right,density"
        assert len(lines) == 11


class TestHistogramPass:
    """``mc --hist`` draws every chunk once and fills the counts and the bins from it."""

    def test_one_geometry_call_per_chunk(self, tmp_path, monkeypatch):
        n_samples = 2 * CHUNK_SIZE + 5
        calls = []
        geometry = montecarlo._chunk_geometry

        def counting_geometry(*args):
            calls.append(args[3])
            return geometry(*args)

        monkeypatch.setattr(montecarlo, "_chunk_geometry", counting_geometry)
        out = tmp_path / "mc.csv"
        code = cli.main([
            "mc", "--m", "2", "--class", "crm", "--mu-grid", "1", "--samples", str(n_samples),
            "--seed", "3", "--workers", "2", "--hist", "12", "--out", str(out),
        ])
        assert code == 0
        assert sorted(calls) == [0, 1, 2]

        cfg = MCConfig(m=2, scheme="isotropic", mu_grid=(1.0,), n_samples=n_samples, seed=3)
        expected, expected_hist = io.StringIO(), io.StringIO()
        estimates_to_csv(violation_probability(cfg), expected)
        histogram_to_csv(violation_histogram(cfg, bins=12), expected_hist)
        assert out.read_text() == expected.getvalue()
        assert (tmp_path / "mc.csv.hist.csv").read_text() == expected_hist.getvalue()

    @pytest.mark.parametrize(
        "grid, with_out, message",
        [
            ("0.9:1:0.05", True, "violation_histogram needs a single-mu configuration"),
            ("1", False, "--hist needs --hist-out (or --out to derive a path from)"),
            ("0.5", True, "no attainable violation at mu = 0.5 with bound factor 1.0"),
        ],
    )
    def test_errors_follow_the_main_output(self, tmp_path, capsys, grid, with_out, message):
        base = ["mc", "--m", "2", "--class", "rom", "--mu-grid", grid, "--samples", "3000"]
        out = tmp_path / "mc.csv"
        out_flags = ["--out", str(out)] if with_out else []
        assert cli.main(base + out_flags) == 0
        plain = out.read_text() if with_out else capsys.readouterr().out

        assert cli.main(base + out_flags + ["--hist", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"steerkit: {message}\n"
        assert (out.read_text() if with_out else captured.out) == plain
        assert not (tmp_path / "mc.csv.hist.csv").exists()
