import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import qcore
from steerkit.criteria import (
    DB_SCALE,
    DB_VECTOR_THRESHOLD,
    Criterion,
    Scenario,
    SweepRow,
    closed_form,
    critical_alpha,
    critical_mu,
    db_bound,
    db_lhs,
    db_steering,
    evaluate,
    renyi_steering,
    sweep,
    sweep_rows_to_csv,
    tsallis_steering,
)
from steerkit.expio import CountsData, evaluate_with_errors

INF = math.inf


def mub_tables(mu, m, alpha=0.0, phi=0.0):
    alice, bob = qcore.mub_settings(m, alpha, phi)
    return [qcore.joint_table_closed(mu, u, v) for u, v in zip(alice, bob)]


def nom_tables(mu, m):
    alice, bob = qcore.nom_settings(m)
    return [qcore.joint_table_closed(mu, u, v) for u, v in zip(alice, bob)]


def random_rotation(rng):
    quat = rng.standard_normal(4)
    w, x, y, z = quat / np.linalg.norm(quat)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


class TestCriterionParsing:
    def test_tokens(self):
        assert Criterion.parse("shannon").kind == "shannon"
        assert Criterion.parse("db").kind == "db"
        crit = Criterion.parse("tsallis2")
        assert crit.kind == "tsallis" and crit.q == 2.0
        crit = Criterion.parse("tsallis1.5")
        assert crit.q == 1.5
        crit = Criterion.parse("renyi")
        assert (crit.r, crit.s) == (0.5, INF)
        crit = Criterion.parse("renyi(0.75,1.5)")
        assert (crit.r, crit.s) == (0.75, 1.5)
        crit = Criterion.parse("renyi(0.5,inf)")
        assert (crit.r, crit.s) == (0.5, INF)

    def test_bad_tokens_rejected(self):
        for token in ("tsallis", "gauss", "renyi(1)", "tsallis0.5"):
            with pytest.raises(ValueError):
                Criterion.parse(token)

    @pytest.mark.parametrize("q", [math.nan, INF, None, 0.5])
    def test_tsallis_order_must_be_finite_and_at_least_one(self, q):
        # NaN compares False with 1, so "q < 1" alone lets it through
        with pytest.raises(ValueError):
            Criterion("tsallis", q=q)


class TestCriterionValidation:
    @pytest.mark.parametrize(
        "kind, orders",
        [
            ("renyi", dict(r=2.0, s=2.0)),  # 1/r + 1/s = 1
            ("renyi", dict(r=0.3, s=INF)),  # r < 1/2
            ("renyi", dict(r=math.nan, s=1.0)),  # NaN passed the old "r < 1/2" test
            ("renyi", dict(r=-INF, s=0.5)),
            ("renyi", dict(r=1.0, s=1.0, q=2.0)),
            ("shannon", dict(q=5.0)),
            ("shannon", dict(q=math.nan)),
            ("tsallis", dict(q=2.0, r=0.5)),
            ("db", dict(r=1.0)),
            ("db", dict(q=2.0)),
        ],
    )
    def test_invalid_orders_rejected(self, kind, orders):
        with pytest.raises(ValueError):
            Criterion(kind, **orders)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^unknown criterion 'shanon'$"):
            Criterion("shanon")

    def test_unknown_measurement_mode_rejected(self):
        with pytest.raises(ValueError, match="^unknown measurement mode 'mubs'$"):
            Scenario(0.9, mode="mubs")

    @pytest.mark.parametrize("vectors", [{}, {"alice": qcore.mub_settings(2)[0]},
                                         {"bob": qcore.mub_settings(2)[1]}])
    def test_explicit_mode_needs_both_parties_vectors(self, vectors):
        with pytest.raises(ValueError, match="^explicit mode needs alice and bob vectors$"):
            Scenario(0.9, mode="explicit", **vectors)

    def test_tsallis_order_one_is_shannon(self):
        crit = Criterion("tsallis", q=1)
        assert crit == Criterion("shannon") == Criterion("shannon", q=1.0)
        assert crit == Criterion.parse("tsallis1") == Criterion.parse("shannon")
        assert (crit.kind, crit.q, crit.order_label()) == ("shannon", 1.0, "q=1")

    def test_order_labels_match_the_estimators(self):
        tables = mub_tables(0.9, 2, alpha=10.0)
        alice, bob = qcore.mub_settings(2, 10.0)
        cases = [
            (Criterion("shannon"), tsallis_steering(tables, 1.0)),
            (Criterion("tsallis", q=2.5), tsallis_steering(tables, 2.5)),
            (Criterion.parse("renyi"), renyi_steering(tables, 0.5, INF)),
            (Criterion.parse("renyi(0.75,1.5)"), renyi_steering(tables, 0.75, 1.5)),
            (Criterion("db"), db_steering(alice, bob, 0.9)),
        ]
        for crit, result in cases:
            assert (crit.kind, crit.order_label(2)) == (result.criterion, result.order)
        assert [c.order_label(2) for c, _ in cases] == ["q=1", "q=2.5", "r=0.5,s=inf",
                                                        "r=0.75,s=1.5", "m=2"]
        assert Criterion("db").order_label() == ""


def conjugate(r):
    """The order s with 1/r + 1/s = 2 (any float in, no exception)."""
    if r == INF:
        return 0.5
    return INF if r == 0.5 else r / (2.0 * r - 1.0)


#: Orders: mostly valid ones, then the edges, then any float (NaN and +-inf too).
#: Renyi r just above 1/2 pairs with s above 2500, where p**s underflows.
ORDERS = (
    st.floats(0.5, 50.0)
    | st.floats(0.5, 0.5001)
    | st.sampled_from((0.5, 1.0, 2.0, 0.49, 0.0, -1.0, INF, -INF, math.nan))
    | st.floats()
)


@st.composite
def criterion_args(draw):
    """A kind with its own orders (Renyi pairs often conjugate), sometimes one stray order."""
    kind = draw(st.sampled_from(("shannon", "tsallis", "renyi", "db")))
    orders = {}
    if kind in ("shannon", "tsallis"):
        orders["q"] = draw(st.none() | ORDERS)
    elif kind == "renyi":
        r = draw(st.none() | ORDERS)
        partner = st.none() if r is None else st.just(conjugate(r))
        orders.update(r=r, s=draw(partner | ORDERS))
    stray = draw(st.none() | st.sampled_from(("q", "r", "s")))
    if stray is not None:
        orders[stray] = draw(ORDERS)
    return kind, orders


@settings(max_examples=300)
@given(
    args=criterion_args(),
    mu=st.floats(0.0, 1.0),
    phi=st.floats(-360.0, 360.0),
    alpha=st.floats(-360.0, 360.0),
    m=st.sampled_from((2, 3)),
)
def test_criterion_rejected_or_closed_form_finite(args, mu, phi, alpha, m):
    kind, orders = args
    try:
        crit = Criterion(kind, **orders)
    except ValueError:
        return
    m = 2 if crit.kind == "renyi" else m
    assert math.isfinite(closed_form(Scenario(mu=mu, alpha_deg=alpha, phi_deg=phi, m=m), crit))
    root = critical_alpha(crit, mu, phi, m)
    assert root is None or 0.0 <= root <= 90.0


@st.composite
def unit_vector(draw):
    """A unit 3-vector from three coordinates, z where they nearly vanish."""
    vec = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 1e-6 else np.array([0.0, 0.0, 1.0])


@st.composite
def valid_scenarios(draw):
    """A valid scenario in any mode: mub and nom at any finite angles, or explicit vectors."""
    m = draw(st.sampled_from((2, 3)))
    mode = draw(st.sampled_from(("mub", "nom", "explicit")))
    mu = draw(st.floats(0.0, 1.0))
    if mode != "explicit":
        angles = st.floats(allow_nan=False, allow_infinity=False)
        return Scenario(mu=mu, alpha_deg=draw(angles), phi_deg=draw(angles), m=m, mode=mode)
    vectors = draw(st.lists(unit_vector(), min_size=2 * m, max_size=2 * m))
    return Scenario(mu=mu, m=m, mode="explicit", alice=vectors[:m], bob=vectors[m:])


@settings(max_examples=300)
@given(scenario=valid_scenarios(), args=criterion_args())
def test_evaluate_rejected_or_finite(scenario, args):
    kind, orders = args
    try:
        result = evaluate(scenario, Criterion(kind, **orders))
    except ValueError:
        return
    assert math.isfinite(result.value)


@pytest.mark.parametrize(
    "criterion",
    [
        Criterion("renyi", r=0.5 + 2.0 ** -52, s=2.25e15),
        Criterion("renyi", r=2.25e15, s=0.5 + 2.0 ** -52),
        Criterion("tsallis", q=2000.0),
    ],
)
def test_underflowing_orders_agree_with_closed_form(criterion):
    # p ** s underflowed in the pipeline: Renyi gave -inf and Tsallis nan
    scenario = Scenario(mu=0.9, alpha_deg=10.0)
    assert abs(evaluate(scenario, criterion).value - closed_form(scenario, criterion)) < 1e-10


class TestTsallisSteering:
    def test_aligned_singlet_q2(self):
        result = tsallis_steering(mub_tables(1.0, 2), 2.0)
        assert np.isclose(result.value, 0.5, atol=1e-12)
        assert result.steerable

    def test_white_noise_negative(self):
        result = tsallis_steering(mub_tables(0.0, 2), 2.0)
        assert np.isclose(result.value, -0.5, atol=1e-12)
        assert not result.steerable

    def test_nom_anchor(self):
        # closed form: 0.5 + f_2 terms at mu = 0.963 -> 0.311448 (rounds to 0.311)
        result = tsallis_steering(nom_tables(0.963, 2), 2.0)
        assert np.isclose(result.value, 0.3114478750, atol=1e-9)
        assert np.isclose(result.value, 0.311, atol=1e-3)

    def test_shannon_labelling(self):
        result = tsallis_steering(mub_tables(1.0, 2), 1.0)
        assert result.criterion == "shannon" and result.order == "q=1"


class TestRenyiSteering:
    def test_shannon_orders_match_tsallis_limit(self):
        tables = mub_tables(0.9, 2, alpha=12.0)
        renyi = renyi_steering(tables, 1.0, 1.0)
        tsallis = tsallis_steering(tables, 1.0)
        assert np.isclose(renyi.value, tsallis.value, atol=1e-12)

    def test_aligned_singlet_extreme_orders(self):
        result = renyi_steering(mub_tables(1.0, 2), 0.5, INF)
        assert np.isclose(result.value, math.log(2.0), atol=1e-12)

    def test_nom_anchor(self):
        result = renyi_steering(nom_tables(0.963, 2), 0.5, INF)
        assert np.isclose(result.value, 0.367866, atol=1e-6)
        assert np.isclose(result.value, 0.367, atol=1.0e-3)

    def test_constraints_enforced(self):
        tables = mub_tables(1.0, 2)
        with pytest.raises(ValueError):
            renyi_steering(tables, 0.5, 2.0)  # 1/r + 1/s != 2
        with pytest.raises(ValueError):
            renyi_steering(tables, 0.3, INF)  # r < 1/2
        with pytest.raises(ValueError):
            renyi_steering(mub_tables(1.0, 3), 1.0, 1.0)  # three tables


class TestDeterminantCriterion:
    def test_parallel_plane_normals(self):
        pair = (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]))
        assert np.isclose(db_lhs(pair, pair, 1.0), 1.0, atol=1e-12)
        assert db_lhs(pair, pair, 1.0) > DB_VECTOR_THRESHOLD[2]

    def test_orthonormal_triads(self):
        alice, bob = qcore.mub_settings(3)
        assert np.isclose(db_lhs(alice, bob, 1.0), 1.0, atol=1e-12)
        assert db_lhs(alice, bob, 1.0) > DB_VECTOR_THRESHOLD[3]

    def test_nom_pair_value(self):
        alice, bob = qcore.nom_settings(2)
        expected = 0.963 ** 2 * math.sqrt(3.0) / 2.0
        assert np.isclose(db_lhs(alice, bob, 0.963), expected, atol=1e-12)
        assert np.isclose(db_lhs(alice, bob, 0.963), 0.8030, atol=2e-4)

    def test_mismatched_counts_rejected(self):
        alice, bob = qcore.mub_settings(3)
        with pytest.raises(ValueError):
            db_lhs(alice[:2], bob, 1.0)

    def test_bound_values(self):
        assert np.isclose(db_bound(2, 2), 1.0 / (8.0 * math.sqrt(2.0)), atol=1e-16)
        assert np.isclose(db_bound(2, 2), 0.0883883, atol=1e-7)
        assert np.isclose(db_bound(3, 2), 1.0 / 108.0, atol=1e-16)
        assert np.isclose(db_bound(3, 2), 0.0092593, atol=1e-7)

    def test_bound_decreasing_in_m(self):
        values = [db_bound(m, 2) for m in range(2, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_bound_rejects_bad_args(self):
        with pytest.raises(ValueError):
            db_bound(1, 2)
        with pytest.raises(ValueError):
            db_bound(2, 1)

    @pytest.mark.parametrize(
        "m, d_a", [(INF, 2), (math.nan, 2), (2.5, 2), (2.0, 2), (True, 2), (2, 2.5), (2, INF)]
    )
    def test_bound_rejects_non_integer_args(self, m, d_a):
        # db_bound(inf) was 0.0, a bound that certifies anything; nan and 2.5 gave numbers too
        with pytest.raises(ValueError, match="must be an integer"):
            db_bound(m, d_a)

    @pytest.mark.parametrize("m, d_a", [(10 ** 400, 2), (2, 10 ** 400), (2 ** 53, 2)])
    def test_bound_rejects_integers_past_float_arithmetic(self, m, d_a):
        # 10**400 raised OverflowError: int too large to convert to float
        with pytest.raises(ValueError, match=r"must lie in \[2, 9007199254740991\]"):
            db_bound(m, d_a)

    def test_bound_takes_numpy_integers(self):
        assert db_bound(np.int64(3), np.int32(2)) == db_bound(3, 2)

    def test_scale_factors(self):
        assert np.isclose(DB_SCALE[2], 1.0 / (4.0 * math.sqrt(2.0)), atol=1e-16)
        assert np.isclose(DB_SCALE[3], 1.0 / (12.0 * math.sqrt(3.0)), atol=1e-16)

    def test_steering_values(self):
        alice, bob = qcore.mub_settings(2)
        result = db_steering(alice, bob, 1.0)
        assert np.isclose(result.value, 1.0 / (8.0 * math.sqrt(2.0)), atol=1e-12)

        alice, bob = qcore.nom_settings(2)
        result = db_steering(alice, bob, 0.963)
        assert np.isclose(result.value, 0.05358546, atol=1e-7)
        assert np.isclose(result.value, 0.053, atol=1e-3)

        alice, bob = qcore.nom_settings(3)
        result = db_steering(alice, bob, 0.963)
        assert np.isclose(result.value, 0.02112313, atol=1e-7)
        assert np.isclose(result.value, 0.021, atol=1e-3)

    @pytest.mark.parametrize("mu", [2.0, -1.0, INF, math.nan])
    def test_visibility_outside_the_unit_interval_rejected(self, mu):
        # these gave +0.619, +0.088 (mu^2 = 1), inf and nan
        alice, bob = qcore.mub_settings(2)
        with pytest.raises(ValueError, match="mixing probability"):
            db_steering(alice, bob, mu)
        with pytest.raises(ValueError, match="mixing probability"):
            db_lhs(alice, bob, mu)

    def test_bad_settings_count_rejected(self):
        # four settings: the first two repeated
        alice, bob = qcore.mub_settings(2)
        with pytest.raises(ValueError, match=r"settings count must lie in \[2, 3\], got 4"):
            db_steering([*alice, *alice], [*bob, *bob], 1.0)

    def test_triad_rotation_invariance(self):
        rng = np.random.default_rng(100)
        alice, bob = qcore.mub_settings(3)
        reference = db_steering(alice, bob, 0.9).value
        for _ in range(100):
            rot_a, rot_b = random_rotation(rng), random_rotation(rng)
            rotated = db_steering(
                [rot_a @ u for u in alice], [rot_b @ v for v in bob], 0.9
            ).value
            assert abs(rotated - reference) < 1e-12

    def test_pair_in_plane_rotation_invariance(self):
        rng = np.random.default_rng(101)
        alice, bob = qcore.mub_settings(2, 20.0, 30.0)
        reference = db_steering(alice, bob, 0.9).value
        for _ in range(50):
            theta, eta = rng.uniform(0.0, 2.0 * np.pi, 2)
            alice_rot = (
                math.cos(theta) * alice[0] + math.sin(theta) * alice[1],
                -math.sin(theta) * alice[0] + math.cos(theta) * alice[1],
            )
            bob_rot = (
                math.cos(eta) * bob[0] + math.sin(eta) * bob[1],
                -math.sin(eta) * bob[0] + math.cos(eta) * bob[1],
            )
            assert abs(db_steering(alice_rot, bob_rot, 0.9).value - reference) < 1e-12


class TestClosedForms:
    def test_tsallis_aligned_singlet(self):
        scen = Scenario(mu=1.0, m=2)
        assert np.isclose(closed_form(scen, Criterion("tsallis", q=2.0)), 0.5, atol=1e-14)

    def test_renyi_at_sixty_degrees(self):
        scen = Scenario(mu=1.0, alpha_deg=60.0, m=2)
        expected = math.log(1.5) - math.log(1.0 + math.sqrt(0.75))
        value = closed_form(scen, Criterion("renyi"))
        assert np.isclose(value, expected, atol=1e-14)
        assert np.isclose(value, -0.2183, atol=1e-3)

    def test_shannon_nom_three_settings(self):
        scen = Scenario(mu=0.963, m=3, mode="nom")
        assert np.isclose(closed_form(scen, Criterion("shannon")), 0.668202, atol=1e-6)

    def test_explicit_mode_rejected(self):
        alice, bob = qcore.mub_settings(2)
        scen = Scenario(mu=1.0, m=2, mode="explicit", alice=alice, bob=bob)
        with pytest.raises(ValueError):
            closed_form(scen, Criterion("db"))

    def test_renyi_needs_two_settings(self):
        with pytest.raises(ValueError):
            closed_form(Scenario(mu=1.0, m=3), Criterion("renyi"))

    @pytest.mark.parametrize("phi", [0.0, 30.0, 90.0])
    @pytest.mark.parametrize("m", [2, 3])
    def test_pipeline_equivalence_grid(self, m, phi):
        criteria = [
            Criterion("shannon"),
            Criterion("tsallis", q=2.0),
            Criterion("tsallis", q=3.0),
            Criterion("db"),
        ]
        if m == 2:
            criteria += [
                Criterion("renyi"),
                Criterion("renyi", r=1.0, s=1.0),
                Criterion("renyi", r=2.0 / 3.0, s=2.0),
            ]
        for mu in np.linspace(0.0, 1.0, 10):
            for alpha in np.linspace(0.0, 90.0, 10):
                scen = Scenario(mu=mu, alpha_deg=alpha, phi_deg=phi, m=m)
                for criterion in criteria:
                    assert abs(
                        closed_form(scen, criterion) - evaluate(scen, criterion).value
                    ) < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_nom_pipeline_equivalence(self, m):
        criteria = [Criterion("shannon"), Criterion("tsallis", q=2.0), Criterion("db")]
        if m == 2:
            criteria.append(Criterion("renyi"))
        for mu in np.linspace(0.0, 1.0, 10):
            scen = Scenario(mu=mu, m=m, mode="nom")
            for criterion in criteria:
                assert abs(closed_form(scen, criterion) - evaluate(scen, criterion).value) < 1e-10

    @pytest.mark.parametrize(
        "criterion",
        [Criterion("shannon"), Criterion("tsallis", q=2.0), Criterion("renyi"), Criterion("db")],
    )
    def test_evenness_in_angles(self, criterion):
        for alpha, phi in [(25.0, 0.0), (40.0, 30.0), (70.0, 60.0)]:
            base = closed_form(Scenario(mu=0.9, alpha_deg=alpha, phi_deg=phi), criterion)
            assert np.isclose(
                closed_form(Scenario(mu=0.9, alpha_deg=-alpha, phi_deg=phi), criterion),
                base,
                atol=1e-12,
            )
            assert np.isclose(
                closed_form(Scenario(mu=0.9, alpha_deg=alpha, phi_deg=-phi), criterion),
                base,
                atol=1e-12,
            )

    @pytest.mark.parametrize("m", [2, 3])
    def test_monotone_in_mu_when_aligned(self, m):
        criteria = [Criterion("shannon"), Criterion("tsallis", q=2.0), Criterion("db")]
        if m == 2:
            criteria.append(Criterion("renyi"))
        mus = np.linspace(0.05, 1.0, 20)
        for criterion in criteria:
            values = [closed_form(Scenario(mu=mu, m=m), criterion) for mu in mus]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_sign_equivalence_tsallis2_renyi(self):
        for mu in np.linspace(0.05, 1.0, 12):
            for alpha in np.linspace(0.0, 85.0, 12):
                for phi in (0.0, 30.0, 90.0):
                    scen = Scenario(mu=mu, alpha_deg=alpha, phi_deg=phi, m=2)
                    t = closed_form(scen, Criterion("tsallis", q=2.0))
                    h = closed_form(scen, Criterion("renyi"))
                    detectable = (
                        mu * math.cos(math.radians(alpha))
                        * math.sqrt(1.0 + math.cos(math.radians(phi)) ** 2)
                        > 1.0
                    )
                    assert (t > 0) == detectable
                    assert (h > 0) == detectable

    def test_full_tilt_kills_two_setting_db(self):
        for mu in (0.0, 0.5, 1.0):
            scen = Scenario(mu=mu, phi_deg=90.0, m=2)
            assert np.isclose(
                closed_form(scen, Criterion("db")), -1.0 / (8.0 * math.sqrt(2.0)), atol=1e-14
            )


class TestBobOrthogonality:
    """Entropic criteria use the bound for orthogonal measurements, so they need Bob's to be."""

    def test_one_repeated_setting_is_refused(self):
        # Shannon +0.459, Tsallis-2 +0.402 and Renyi +0.396 from one setting, which
        # always has a local model; db gave -0.088 and still does
        z = np.array([0.0, 0.0, 1.0])
        scenario = Scenario(mu=0.95, m=2, mode="explicit", alice=(z, z), bob=(z, z))
        for criterion in (Criterion("shannon"), Criterion("tsallis", q=2.0), Criterion("renyi")):
            with pytest.raises(ValueError, match=r"pairwise orthogonal, got \|b1.b2\| = 1$"):
                evaluate(scenario, criterion)
        assert abs(evaluate(scenario, Criterion("db")).value + 0.0884) < 1e-4

    def test_largest_overlap_named(self):
        bob = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]),
               np.array([0.0, math.sin(0.1), math.cos(0.1)])]
        scenario = Scenario(mu=0.9, m=3, mode="explicit", alice=bob, bob=bob)
        with pytest.raises(ValueError, match=r"got \|b1.b3\| = 0.995004$"):
            evaluate(scenario, Criterion("shannon"))

    def test_orthogonal_to_within_atol_accepted(self):
        alice, bob = qcore.mub_settings(3, 10.0, 20.0)
        bob = [np.array(v) @ random_rotation(np.random.default_rng(5)).T for v in bob]
        scenario = Scenario(mu=0.9, m=3, mode="explicit", alice=alice, bob=bob)
        assert math.isfinite(evaluate(scenario, Criterion("shannon")).value)


class TestCriticalSolvers:
    def test_critical_mu_values(self):
        assert np.isclose(critical_mu(0.0, 0.0), 1.0 / math.sqrt(2.0), atol=1e-12)
        assert np.isclose(critical_mu(45.0, 0.0), 1.0, atol=1e-12)
        assert np.isclose(critical_mu(0.0, 90.0), 1.0, atol=1e-12)
        assert critical_mu(60.0, 0.0) > 1.0  # undetectable regime

    def test_critical_mu_requires_positive_cosine(self):
        with pytest.raises(ValueError):
            critical_mu(90.0, 0.0)

    @pytest.mark.parametrize("alpha, phi", [(math.nan, 0.0), (0.0, INF), (-INF, 0.0), (0.0, math.nan)])
    def test_critical_mu_rejects_non_finite_angles(self, alpha, phi):
        # critical_mu(nan, 0) returned nan; critical_mu(0, inf) raised "math domain error"
        message = r"^misalignment angle (alpha|phi) must lie in \(-inf, inf\), got "
        with pytest.raises(ValueError, match=message):
            critical_mu(alpha, phi)

    def test_closed_form_at_a_huge_renyi_order(self):
        # r just above 1/2 pairs with s = 2.3e15: f_s underflowed to 0 and
        # math.log(0) raised; the value tends to that of (1/2, inf)
        r = 0.5 + 2.0 ** -52
        crit = Criterion("renyi", r=r, s=conjugate(r))
        scen = Scenario(mu=0.9, alpha_deg=10.0)
        assert crit.s > 1e15
        assert abs(closed_form(scen, crit) - closed_form(scen, Criterion("renyi"))) < 1e-12

    def test_critical_alpha_singlet_is_45(self):
        alpha = critical_alpha(Criterion("tsallis", q=2.0), 1.0, 0.0, 2)
        assert abs(alpha - 45.0) < 1e-6

    def test_critical_alpha_matches_critical_mu_inversion(self):
        # at mu = critical_mu(alpha, phi), the zero sits at that alpha
        mu = critical_mu(30.0, 0.0)
        alpha = critical_alpha(Criterion("tsallis", q=2.0), mu, 0.0, 2)
        assert abs(alpha - 30.0) < 1e-6

    def test_experimental_visibility_thresholds(self):
        assert abs(critical_alpha(Criterion("tsallis", q=2.0), 0.9733, 0.0, 2) - 43.406) < 1e-3
        assert abs(critical_alpha(Criterion("shannon"), 0.9733, 0.0, 2) - 36.742) < 1e-3

    def test_no_threshold_cases(self):
        assert critical_alpha(Criterion("tsallis", q=2.0), 0.5, 0.0, 2) is None
        assert critical_alpha(Criterion("db"), 0.9, 0.0, 3) is None  # constant in alpha


class TestSweep:
    def test_shape_and_columns(self):
        criteria = [Criterion.parse(t) for t in ("shannon", "tsallis2", "renyi", "db")]
        rows = sweep(0.9733, np.arange(0.0, 91.0, 10.0), 0.0, 2, criteria)
        assert len(rows) == 10 * 4
        stream = io.StringIO()
        sweep_rows_to_csv(rows, stream)
        lines = stream.getvalue().strip().split("\n")
        assert lines[0] == "mu,alpha_deg,phi_deg,m,criterion,order,value,steerable"
        assert len(lines) == 41

    def test_db_column_constant_in_alpha(self):
        rows = sweep(0.9, np.arange(0.0, 91.0, 10.0), 30.0, 3, [Criterion("db")])
        values = {row.value for row in rows}
        assert len(values) == 1
        expected = (0.9 ** 3 / math.sqrt(3.0) - 1.0 / 9.0) / 12.0
        assert np.isclose(values.pop(), expected, atol=1e-12)

    def test_full_tilt_no_detection_below_singlet(self):
        criteria = [Criterion.parse(t) for t in ("shannon", "tsallis2", "renyi", "db")]
        rows = sweep(0.98, np.arange(0.0, 91.0, 10.0), 90.0, 2, criteria)
        assert all(row.value <= 1e-12 for row in rows)
        assert not any(row.steerable for row in rows)

    def test_empty_grid_gives_no_rows(self):
        # nothing is evaluated, so nothing is checked either
        assert sweep(0.9, [], 0.0, 2, [Criterion("shannon")]) == []
        assert sweep(2.0, [], 0.0, 7, [Criterion("db")]) == []

    def test_angles_are_checked_before_any_criterion(self):
        # every alpha builds its Scenario before the one batched evaluation
        message = r"^misalignment angle alpha must lie in \(-inf, inf\), got nan$"
        with pytest.raises(ValueError, match=message):
            sweep(0.9, [0.0, math.nan], 0.0, 3, [Criterion("renyi")])
        with pytest.raises(ValueError, match="needs exactly two settings"):
            sweep(0.9, [0.0, 10.0], 0.0, 3, [Criterion("renyi")])


def reference_sweep(mu, alpha_grid, phi_deg, m, criteria, mode):
    """The sweep as one evaluate per (alpha, criterion), alpha-major (the reference)."""
    rows = []
    for alpha_deg in map(float, alpha_grid):
        scenario = Scenario(mu=mu, alpha_deg=alpha_deg, phi_deg=phi_deg, m=m, mode=mode)
        for criterion in criteria:
            res = evaluate(scenario, criterion)
            rows.append(SweepRow(mu, alpha_deg, phi_deg, m, res.criterion, res.order, res.value,
                                 res.steerable))
    return rows


SWEEP_CRITERIA = (
    [Criterion("shannon"), Criterion("db")]
    + [Criterion("tsallis", q=q) for q in (1.5, 2.0, 3.0)]
    + [Criterion("renyi", r=r, s=s) for r, s in ((0.5, INF), (0.75, 1.5), (1.0, 1.0))]
)
SWEEP_ANGLES = st.sampled_from((0.0, 45.0, 90.0, -90.0, 180.0)) | st.floats(-720.0, 720.0)


@st.composite
def sweep_args(draw):
    """Arguments of a valid sweep: one-point grids and angles outside [0, 90] included."""
    m = draw(st.sampled_from((2, 3)))
    usable = [c for c in SWEEP_CRITERIA if m == 2 or c.kind != "renyi"]
    return (
        draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)),
        draw(st.lists(SWEEP_ANGLES, min_size=1, max_size=8)),
        draw(SWEEP_ANGLES),
        m,
        draw(st.lists(st.sampled_from(usable), min_size=1, max_size=6)),
        draw(st.sampled_from(("mub", "nom"))),
    )


@settings(max_examples=200)
@given(args=sweep_args())
def test_sweep_equals_one_evaluate_per_point(args):
    rows = sweep(*args[:5], mode=args[5])
    assert rows == reference_sweep(*args)
    assert all(type(row.steerable) is bool for row in rows)  # json.dumps rejects np.bool_


@settings(max_examples=200)
@given(args=sweep_args())
def test_sweep_equals_the_closed_form(args):
    mu, _, phi, m, criteria, mode = args
    rows = sweep(*args[:5], mode=mode)
    assert len(rows) == len(args[1]) * len(criteria)
    for k, row in enumerate(rows):
        scenario = Scenario(mu=mu, alpha_deg=row.alpha_deg, phi_deg=phi, m=m, mode=mode)
        assert abs(row.value - closed_form(scenario, criteria[k % len(criteria)])) <= 1e-10


def _tables(cells):
    return [qcore.JointTable(np.reshape(cells[4 * k:4 * k + 4], (2, 2))) for k in range(2)]


def _counts_data(values):
    return CountsData(np.reshape(values[:8], (2, 2, 2)), *np.reshape(values[8:20], (2, 2, 3)))


_ALIGNED = [c for vec in qcore.mub_settings(2)[0] + qcore.mub_settings(2)[1] for c in vec]
_SINGLET_CELLS = [c for t in mub_tables(1.0, 2) for c in t.probs.ravel()]
_FOUR = [Criterion("shannon"), Criterion("tsallis", q=2.0), Criterion("renyi", r=0.75, s=1.5),
         Criterion("db")]

#: Each entry point with the numbers of a steerable call (the singlet along
#: aligned directions), and the call that rebuilds it from those numbers.
NON_FINITE_ENTRIES = {
    "evaluate": ([1.0, 0.0, 0.0, 2.0], lambda v: [
        evaluate(Scenario(v[0], v[1], v[2], 2), Criterion("tsallis", q=v[3]))]),
    "evaluate_explicit": ([1.0, *_ALIGNED], lambda v: [evaluate(
        Scenario(v[0], m=2, mode="explicit", alice=np.reshape(v[1:7], (2, 3)),
                 bob=np.reshape(v[7:13], (2, 3))), Criterion("db"))]),
    "sweep": ([1.0, 0.0, 5.0, 0.0], lambda v: sweep(v[0], v[1:3], v[3], 2, _FOUR)),
    "db_steering": ([*_ALIGNED, 1.0], lambda v: [
        db_steering(np.reshape(v[:6], (2, 3)), np.reshape(v[6:12], (2, 3)), v[12])]),
    "tsallis_steering": ([*_SINGLET_CELLS, 2.0], lambda v: [tsallis_steering(_tables(v), v[8])]),
    "renyi_steering": ([*_SINGLET_CELLS, 0.75, 1.5], lambda v: [
        renyi_steering(_tables(v), v[8], v[9])]),
    "evaluate_with_errors": ([0, 500, 500, 0, 0, 500, 500, 0, *_ALIGNED, 0.1], lambda v: [
        result for result, _ in evaluate_with_errors(_counts_data(v), _FOUR, 10, v[20], seed=0)]),
}


def test_non_finite_entries_start_steerable():
    for values, call in NON_FINITE_ENTRIES.values():
        results = call(values)
        assert results and all(result.steerable for result in results)


@settings(max_examples=300)
@given(entry=st.sampled_from(sorted(NON_FINITE_ENTRIES)), data=st.data())
def test_non_finite_input_is_never_steerable(entry, data):
    values, call = NON_FINITE_ENTRIES[entry]
    values = list(values)
    slots = data.draw(st.sets(st.integers(0, len(values) - 1), min_size=1))
    for slot in slots:
        values[slot] = data.draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    try:
        results = call(values)
    except ValueError:
        return
    assert not any(result.steerable for result in results)
