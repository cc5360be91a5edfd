import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from steerkit import expio, qcore
from steerkit.criteria import (
    DB_SCALE,
    Criterion,
    Scenario,
    closed_form,
    criterion_values,
    db_bound,
    db_steering,
    renyi_steering,
    tsallis_steering,
)
from steerkit.expio import (
    MAX_BOOTSTRAP,
    CountsData,
    CountsFormatError,
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
        data = load_counts(write_file(tmp_path, WELL_FORMED))
        assert data.counts.shape == (2, 2, 2) and data.counts.dtype == np.int64
        assert data.counts[0].sum() == 1010
        assert data.counts[0, 0, 1] == 488
        assert data.alice is None and data.bob is None

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

    @pytest.mark.parametrize(
        "row, message",
        [
            # a field past csv.field_size_limit() raised csv.Error
            ("2,+1,+1," + "9" * 131_073, "line 6: field larger than field limit"),
            # a count past 2**63 raised OverflowError on its way into the int64 cell
            ("2,+1,+1," + "9" * 20, r"line 6: counts must lie in \[0, 2\*\*53\), got 9{20}"),
            ("2,+1,+1,-3", r"line 6: counts must lie in \[0, 2\*\*53\), got -3"),
        ],
    )
    def test_unreadable_field_names_line(self, tmp_path, row, message):
        bad = WELL_FORMED.replace("2,+1,+1,90", row)
        with pytest.raises(CountsFormatError, match=message):
            load_counts(write_file(tmp_path, bad))

    @pytest.mark.parametrize(
        "content, message",
        [
            # raised the codec's UnicodeDecodeError without a line number: exit 2
            (WELL_FORMED.encode().replace(b"1,-1,+1,502", b"1,-1,+1,5\xff2"),
             "line 4: 'utf-8' codec can't decode byte 0xff in position 9: invalid start byte"),
            (b"setting,a,b,co\xe9nts\n", "line 1: 'utf-8' codec can't decode byte 0xe9"),
            (WELL_FORMED.encode().replace(b"\n", b"\r")[:-1] + b"\xc3", "line 9: 'utf-8' codec"),
        ],
    )
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, content, message):
        path = tmp_path / "counts.csv"
        path.write_bytes(content)
        with pytest.raises(CountsFormatError, match=message):
            load_counts(path)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            # named line 4, the row count, after the quoted count that spans lines 2 and 3
            ("1,-1,+1,x", "line 5: counts must be an integer, got 'x'"),
            ("1,-1,+1", "line 5: expected 4 fields, got 3"),
            ("1,+1,+1,7", r"line 5: duplicate entry for setting 1, outcomes \(1, 1\)"),
        ],
    )
    def test_lines_after_a_field_over_two_lines_named_physically(self, tmp_path, bad_row, message):
        text = f'setting,a,b,counts\n1,+1,+1,"12\n"\n1,+1,-1,488\n{bad_row}\n'
        with pytest.raises(CountsFormatError, match=message):
            load_counts(write_file(tmp_path, text))

    def test_a_row_over_two_lines_named_by_its_first(self, tmp_path):
        text = 'setting,a,b,counts\n1,+1,+1,488\n1,+1,-1,"1\r\n2"\n'
        with pytest.raises(CountsFormatError, match=r"^line 3: counts must be an integer"):
            load_counts(write_file(tmp_path, text))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_line_endings(self, tmp_path, newline):
        # the file is split into lines as text mode with newline="" splits it
        path = tmp_path / "counts.csv"
        path.write_bytes(WELL_FORMED.replace("\n", newline).encode())
        assert load_counts(path).counts.tolist() == (
            load_counts(write_file(tmp_path, WELL_FORMED, "lf.csv")).counts.tolist())

    def test_each_vector_component_named(self, tmp_path):
        # read "vector components must be numbers", whichever of the six it was
        alice, bob = qcore.nom_settings(2)
        path = tmp_path / "synthetic.csv"
        write_counts(synthesize_counts(0.9, alice, bob, 1000), path)
        lines = path.read_text().split("\n")
        lines[3] = ",".join(lines[3].split(",")[:8] + ["x", "0"])
        path.write_text("\n".join(lines))
        message = "line 4: vector component by must be a number, got 'x'$"
        with pytest.raises(CountsFormatError, match=message):
            load_counts(path)

    def test_bad_header(self, tmp_path):
        with pytest.raises(CountsFormatError, match="header"):
            load_counts(write_file(tmp_path, "a,b,c\n1,2,3\n"))

    def test_vector_round_trip(self, tmp_path):
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.9, alice, bob, 100000)
        path = tmp_path / "synthetic.csv"
        write_counts(data, path)
        loaded = load_counts(path)
        assert np.array_equal(data.counts, loaded.counts)
        assert np.array_equal(data.alice, loaded.alice) and np.array_equal(data.bob, loaded.bob)

    def test_inconsistent_vectors_rejected(self, tmp_path):
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.9, alice, bob, 1000)
        path = tmp_path / "synthetic.csv"
        write_counts(data, path)
        lines = path.read_text().split("\n")
        parts = lines[1].split(",")
        parts[4] = "0.123"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines))
        with pytest.raises(CountsFormatError, match="vectors differ"):
            load_counts(path)

    @pytest.mark.parametrize("row, value", [(3, "1.000009"), (4, "0.99999999999999989")])
    def test_vectors_differ_in_any_row(self, tmp_path, row, value):
        # a non-unit az in the third row loaded silently: np.allclose passed it,
        # and only the first row's vector was kept and checked
        path = tmp_path / "synthetic.csv"
        write_counts(synthesize_counts(0.9, *qcore.nom_settings(2), 1000), path)
        lines = path.read_text().split("\n")
        parts = lines[row].split(",")
        assert parts[6] == "1"  # Alice's first direction is z
        lines[row] = ",".join(parts[:6] + [value] + parts[7:])
        path.write_text("\n".join(lines))
        message = f"^line {row + 1}: vectors differ within setting 1$"
        with pytest.raises(CountsFormatError, match=message):
            load_counts(path)

    @pytest.mark.parametrize(
        "column, text, message",
        [
            # int() and float() read each of these as a number
            (3, "1_0", "counts must be an integer, got '1_0'"),
            (3, "\u0661\u0660", "counts must be an integer, got '\u0661\u0660'"),
            (3, "\uff11\uff10", "counts must be an integer, got '\uff11\uff10'"),
            (0, "\u0661", "setting must be an integer, got '\u0661'"),
            (0, "0_1", "setting must be an integer, got '0_1'"),
            (6, "1_0", "vector component az must be a number, got '1_0'"),
            (6, "\u0661.0", "vector component az must be a number, got '\u0661.0'"),
            (9, "1.0_0", "vector component bz must be a number, got '1.0_0'"),
        ],
    )
    def test_numerals_are_ascii(self, tmp_path, column, text, message):
        path = tmp_path / "synthetic.csv"
        write_counts(synthesize_counts(0.9, *qcore.nom_settings(2), 1000), path)
        lines = path.read_text().split("\n")
        lines[1] = ",".join(text if k == column else part
                            for k, part in enumerate(lines[1].split(",")))
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(CountsFormatError, match=f"^line 2: {message}$"):
            load_counts(path)

    def test_ascii_numerals_in_every_form_accepted(self, tmp_path):
        # a sign, surrounding whitespace and the float forms of Python's float()
        data = synthesize_counts(0.9, *qcore.nom_settings(2), 1000)
        path = tmp_path / "synthetic.csv"
        write_counts(data, path)
        lines = path.read_text().split("\n")
        forms = {"0": ["+0.", " .0e0 ", "-0.0E+00", "0e-5", "\t0\n"], "1": ["1.", "+1E0", " 10e-1"]}
        for k in range(1, 5):  # setting 1, each row spelt its own way
            parts = lines[k].split(",")
            parts = [f" +{p} " if c in (0, 3) else p for c, p in enumerate(parts)]
            parts[4:] = [f'"{forms[p][(k + c) % len(forms[p])]}"' for c, p in enumerate(parts[4:])]
            lines[k] = ",".join(parts)
        path.write_text("\n".join(lines))
        loaded = load_counts(path)  # spelt differently, the four rows hold equal floats
        assert np.array_equal(loaded.counts, data.counts)
        assert np.array_equal(loaded.alice, data.alice) and np.array_equal(loaded.bob, data.bob)

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


@st.composite
def datasets(draw):
    """A CountsData: m settings of counts in [0, 2**53) and, mostly, drawn unit directions."""
    m = draw(st.integers(1, 4))
    cells = st.integers(0, 3) | st.integers(0, 2 ** 53 - 1)
    counts = np.array(draw(st.lists(cells, min_size=4 * m, max_size=4 * m))).reshape(m, 2, 2)
    counts[:, 0, 0] += counts.sum(axis=(1, 2)) == 0  # no zero-total setting
    if draw(st.integers(0, 4)) == 0:
        return CountsData(counts)
    coords = st.floats(-1.0, 1.0, allow_subnormal=False)
    vecs = np.array(draw(st.lists(coords, min_size=6 * m, max_size=6 * m))).reshape(2, m, 3)
    norms = np.linalg.norm(vecs, axis=2, keepdims=True)
    vecs = np.where(norms > 1e-3, vecs / np.where(norms > 1e-3, norms, 1.0), [0.0, 0.0, -1.0])
    return CountsData(counts, *vecs)


@settings(max_examples=200)
@given(data=datasets())
def test_write_then_load_round_trips(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("round") / "counts.csv"
    write_counts(data, path)
    loaded = load_counts(path)
    assert loaded.counts.dtype == np.int64 and np.array_equal(loaded.counts, data.counts)
    if data.alice is None:
        assert loaded.alice is None and loaded.bob is None
        return
    for back, orig in ((loaded.alice, data.alice), (loaded.bob, data.bob)):
        assert back.tobytes() == orig.tobytes()  # bit for bit, the sign of a zero too


TOTAL_RANGE = r"^total_per_setting must lie in \[5e-324, 9007199254740991\], got "


class TestSynthesizeCounts:
    def test_settings_must_pair_up(self):
        # zip truncated the longer list: one record came back for two settings
        alice, bob = qcore.mub_settings(2)
        with pytest.raises(ValueError, match="alice and bob must list as many settings"):
            synthesize_counts(0.9, alice, bob[:1], 1000)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf, 0, -5.0])
    def test_total_must_be_finite_and_positive(self, total):
        # nan and inf warned in numpy's cast, then raised "counts must be non-negative"
        alice, bob = qcore.mub_settings(2)
        with pytest.raises(ValueError, match=TOTAL_RANGE):
            synthesize_counts(0.9, alice, bob, total)

    def test_rejects_a_total_past_the_largest_exact_count(self):
        # 1e300 warned "invalid value encountered in cast" without a seed and
        # raised numpy's "lam value too large" with one
        alice, bob = qcore.mub_settings(2)
        for seed in (None, 1):
            for total in (2.0 ** 53, 1e300):
                with pytest.raises(ValueError, match=TOTAL_RANGE):
                    synthesize_counts(0.9, alice, bob, total, seed=seed)


#: The count rule's message, as a pattern.
WHOLE_COUNTS = re.escape("counts must be whole numbers in [0, 2**53)")


class TestCountsToTable:
    def test_uniform(self):
        table = counts_to_table(np.full((2, 2), 100))
        assert np.allclose(table.probs, 0.25, atol=1e-15)

    def test_anticorrelated(self):
        table = counts_to_table(np.array([[0, 500], [500, 0]]))
        assert np.allclose(table.probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)

    def test_simple_arithmetic(self):
        table = counts_to_table(CountsData([[[10, 40], [40, 10]]]).counts[0])
        assert np.isclose(table.probs[0, 0], 0.1, atol=1e-15)

    def test_counts_follow_the_dataset_rules(self):
        # zeros warned "invalid value encountered in divide" before the ValueError;
        # strings raised TypeError
        with pytest.raises(ValueError, match="^setting 1 has zero total counts$"):
            counts_to_table(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="^counts must be an array of real numbers, got dtype"):
            counts_to_table([["10", "40"], ["40", "10"]])
        with pytest.raises(ValueError, match=f"^{WHOLE_COUNTS}, got 0.5$"):
            counts_to_table([[0.5, 40], [40, 10]])

    def test_zero_total_rejected(self):
        for k in range(3):  # named by its number, k + 1
            counts = np.ones((3, 2, 2), dtype=np.int64)
            counts[k] = 0
            with pytest.raises(ValueError, match=f"^setting {k + 1} has zero total counts$"):
                CountsData(counts)

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
        with pytest.raises(ValueError, match=f"^{WHOLE_COUNTS}, got "):
            CountsData(np.array([[[1, 1], [1, 1]], counts]))

    def test_integer_valued_float_counts_accepted(self):
        data = CountsData(np.array([[[10.0, 40.0], [40.0, 10.0]]]))
        assert data.counts.dtype == np.int64
        assert data.counts.tolist() == [[[10, 40], [40, 10]]]


Z_AXIS, X_AXIS = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)


class TestCountsData:
    """One test per rule the constructor checks, each with its message."""

    @pytest.mark.parametrize("counts", [np.ones((2, 2)), np.ones((2, 2, 3)), np.ones((1, 4, 1, 1))])
    def test_shape(self, counts):
        with pytest.raises(ValueError, match=r"^counts must have shape \(m, 2, 2\), got shape"):
            CountsData(counts)

    def test_no_settings(self):
        with pytest.raises(ValueError, match="^no count rows found$"):
            CountsData(np.zeros((0, 2, 2), dtype=np.int64))

    def test_negative(self):
        with pytest.raises(ValueError, match=f"^{WHOLE_COUNTS}, got -2.0$"):
            CountsData([[[1, 2], [3, 4]], [[1, -2], [3, 4]]])

    @pytest.mark.parametrize("party", ["alice", "bob"])
    def test_unit_directions(self, party):
        vectors = {"alice": [Z_AXIS, X_AXIS], "bob": [Z_AXIS, X_AXIS]}
        vectors[party] = [Z_AXIS, (1.0, 0.0, 1e-3)]
        with pytest.raises(ValueError, match=r"^measurement direction must be unit norm"):
            CountsData(np.ones((2, 2, 2)), **vectors)
        vectors[party] = [Z_AXIS, (1.0, 0.0, math.nan)]
        with pytest.raises(ValueError, match="must be unit norm"):
            CountsData(np.ones((2, 2, 2)), **vectors)

    @pytest.mark.parametrize("directions", [[Z_AXIS], [Z_AXIS, X_AXIS, X_AXIS], [(0.0, 1.0)] * 2])
    def test_one_direction_per_setting(self, directions):
        with pytest.raises(ValueError, match=r"^bob directions must have shape \(2, 3\), got"):
            CountsData(np.ones((2, 2, 2)), [Z_AXIS, X_AXIS], directions)

    def test_both_parties_or_neither(self):
        message = "^measurement vectors must be recorded for both parties on every setting or on none"
        for vectors in ({"alice": [Z_AXIS, X_AXIS]}, {"bob": [Z_AXIS, X_AXIS]}):
            with pytest.raises(ValueError, match=message):
                CountsData(np.ones((2, 2, 2)), **vectors)

    def test_read_only_copies(self):
        counts, alice = np.ones((2, 2, 2), dtype=np.int64), np.array([Z_AXIS, X_AXIS])
        data = CountsData(counts, alice, alice)
        counts[0, 0, 0] = alice[0, 0] = 7
        assert data.counts[0, 0, 0] == 1 and data.alice[0, 0] == 0.0
        for array in (data.counts, data.alice, data.bob):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 2


class TestVisibilityFit:
    def test_exact_recovery(self):
        for mu in (0.3, 0.7, 0.963):
            alice, bob = qcore.nom_settings(3)
            data = synthesize_counts(mu, alice, bob, 10_000_000)
            assert abs(fit_visibility(data) - mu) < 1e-6

    def test_needs_vectors(self):
        with pytest.raises(ValueError, match="need measurement vectors"):
            fit_visibility(CountsData(np.full((1, 2, 2), 50)))

    def test_orthogonal_overlaps_unidentifiable(self):
        with pytest.raises(ValueError, match="all measurement overlaps vanish"):
            fit_visibility(CountsData(np.full((1, 2, 2), 50), [Z_AXIS], [X_AXIS]))


class TestEvaluateWithErrors:
    def test_noiseless_matches_closed_form(self):
        mu = 0.963
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(mu, alice, bob, 10_000_000)
        out = evaluate_with_errors(data, [SHANNON, TSALLIS2, RENYI, DB], bootstrap=0, jitter_deg=0.0)
        scen = Scenario(mu=mu, m=2, mode="nom")
        for (result, budget), criterion in zip(out, [SHANNON, TSALLIS2, RENYI, DB]):
            assert abs(result.value - closed_form(scen, criterion)) < 1e-5
            assert budget.stat == 0.0 and budget.sys == 0.0 and budget.total == 0.0

    def test_statistical_error_shrinks_with_counts(self):
        mu = 0.9
        alice, bob = qcore.nom_settings(2)
        sigmas = []
        for total in (1_000, 10_000, 100_000):
            data = synthesize_counts(mu, alice, bob, total)
            out = evaluate_with_errors(data, [TSALLIS2], bootstrap=400, jitter_deg=0.0, seed=17)
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
            data = synthesize_counts(mu, alice, bob, 10_000_000, seed=99)
            out = evaluate_with_errors(data, criteria, bootstrap=200, jitter_deg=0.0, seed=7)
            scen = Scenario(mu=mu, m=m, mode="nom")
            for (result, budget), criterion in zip(out, criteria):
                target = closed_form(scen, criterion)
                assert abs(result.value - target) < 3.0 * max(budget.stat, 1e-7)

    def test_point_estimate_invariant_under_rescaling(self):
        alice, bob = qcore.mub_settings(2, 15.0, 0.0)
        data = synthesize_counts(0.85, alice, bob, 10_000)
        scaled = CountsData(data.counts * 7, data.alice, data.bob)
        base = evaluate_with_errors(data, [TSALLIS2], bootstrap=0, jitter_deg=0.0)
        big = evaluate_with_errors(scaled, [TSALLIS2], bootstrap=0, jitter_deg=0.0)
        assert np.isclose(base[0][0].value, big[0][0].value, atol=1e-12)

    def test_systematic_error_from_jitter(self):
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.95, alice, bob, 1_000_000)
        out = evaluate_with_errors(data, [TSALLIS2, DB], bootstrap=200, jitter_deg=0.5, seed=21)
        for result, budget in out:
            assert budget.sys > 0.0
            assert np.isclose(budget.total, math.hypot(budget.stat, budget.sys), atol=1e-15)

    def test_budget_total_exact(self):
        budget = ErrorBudget(stat=0.003, sys=0.004)
        assert np.isclose(budget.total, 0.005, atol=1e-15)
        assert budget.total >= max(budget.stat, budget.sys)

    def test_jitter_needs_vectors(self):
        data = CountsData(np.full((2, 2, 2), 50))
        with pytest.raises(ValueError, match="vectors"):
            evaluate_with_errors(data, [TSALLIS2], bootstrap=10, jitter_deg=0.1)
        # without jitter and without db, vectors are unnecessary
        out = evaluate_with_errors(data, [TSALLIS2], bootstrap=10, jitter_deg=0.0)
        assert len(out) == 1

    def test_entropic_replicates_do_not_read_the_refit(self):
        # entropic-only runs passed the overlaps and refitted every replicate for nothing
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.9, alice, bob, 1000)
        draws = np.random.default_rng(1).poisson(data.counts, size=(300,) + data.counts.shape)
        entropic = [SHANNON, TSALLIS2, RENYI]
        refitted = expio._replicate_values(draws, entropic, data.alice, data.bob,
                                           qcore.dot(data.alice, data.bob))
        plain = expio._replicate_values(draws, entropic, data.alice, data.bob, None)
        assert np.array_equal(refitted, plain)

    def test_db_needs_vectors(self):
        data = CountsData(np.full((2, 2, 2), 50))
        with pytest.raises(ValueError, match="vectors"):
            evaluate_with_errors(data, [DB], bootstrap=0, jitter_deg=0.0)

    def test_renyi_needs_two_settings(self):
        alice, bob = qcore.nom_settings(3)
        data = synthesize_counts(0.9, alice, bob, 1000)
        with pytest.raises(ValueError, match="settings"):
            evaluate_with_errors(data, [RENYI], bootstrap=0, jitter_deg=0.0)

    @pytest.mark.parametrize(
        "bootstrap, jitter_deg",
        [(-5, 0.1), (-1, 0.0), (100, math.nan), (100, -0.1), (100, math.inf), (0, math.nan)],
    )
    def test_rejects_negative_bootstrap_or_bad_jitter(self, bootstrap, jitter_deg):
        # these used to report stat_err or sys_err 0 without a word
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.9, alice, bob, 1000)
        with pytest.raises(ValueError):
            evaluate_with_errors(data, [TSALLIS2], bootstrap=bootstrap, jitter_deg=jitter_deg)

    @pytest.mark.parametrize("bootstrap, seed", [(2.5, 0), (True, 0), (10, 1.5), (10, None)])
    def test_rejects_non_integer_bootstrap_or_seed(self, monkeypatch, bootstrap, seed):
        # 2.5, True and 1.5 raised TypeError inside numpy; None drew an unseeded stream
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.9, alice, bob, 1000)
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError, match="must be an integer"):
            evaluate_with_errors(data, [TSALLIS2], bootstrap=bootstrap, seed=seed)

    def test_rejects_an_error_budget_that_overflows(self):
        # Bob 1e-100 from orthogonal, with |(a1 x a2).(b1 x b2)| = 0.4 below the
        # separable bound 1/2, so db cannot certify even at visibility 1 and is not
        # refused; each replicate's fit is noise over 1e-100, and the spread of
        # the bootstrap's db values overflows
        alice = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        side, top = math.sqrt(0.6), math.sqrt(0.4)
        bob = [np.array([top, side, 1e-100]), np.array([1e-100, side, top])]
        data = synthesize_counts(0.9, alice, bob, 10_000, seed=2)
        with pytest.raises(ValueError, match="error budget overflows"):
            with np.errstate(over="ignore"):
                evaluate_with_errors(data, [DB], bootstrap=200, jitter_deg=0.0, seed=1)

    def test_rejects_oversized_bootstrap_before_drawing(self, monkeypatch):
        # 1e12 replicates ended in a MemoryError from rng.poisson
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.9, alice, bob, 1000)
        monkeypatch.setattr(np.random, "default_rng", None)
        for bootstrap in (MAX_BOOTSTRAP + 1, 10 ** 12):
            with pytest.raises(ValueError, match="bootstrap replicate count"):
                evaluate_with_errors(data, [TSALLIS2], bootstrap=bootstrap, jitter_deg=0.0)
        assert MAX_BOOTSTRAP >= 1000  # the README's and the analyze benchmark's size

    def test_deterministic_given_seed(self):
        alice, bob = qcore.nom_settings(2)
        data = synthesize_counts(0.9, alice, bob, 10_000, seed=5)
        first = evaluate_with_errors(data, [TSALLIS2, DB], bootstrap=100, jitter_deg=0.2, seed=9)
        second = evaluate_with_errors(data, [TSALLIS2, DB], bootstrap=100, jitter_deg=0.2, seed=9)
        assert first == second

    def test_db_bootstrap_keeps_replicate_fits_above_one(self):
        # mu = 0.95991549, alpha = 41.7025 deg, phi = 54.7386 deg, m = 2, with
        # Poisson counts whose visibility fit lands at 1.031.  Clamping each
        # replicate's fit to [0, 1] pinned most replicates at exactly 1 and
        # shrank the db error budget far below the true scatter.
        alice_1 = (0.38406116370763022, 0.54320532599284299, 0.74660899830135319)
        alice_2 = (0.43102272923032103, 0.60962644564634449, -0.66526310859347215)
        data = CountsData([[[78, 552], [541, 59]], [[169, 449], [442, 185]]],
                          [alice_1, alice_2], [Z_AXIS, X_AXIS])
        assert fit_visibility(data) > 1.0
        [(result, budget)] = evaluate_with_errors(
            data, [DB], bootstrap=1000, jitter_deg=0.1, seed=2009872275
        )
        scen = Scenario(mu=0.95991549, alpha_deg=41.7025, phi_deg=54.7386, m=2)
        assert abs(result.value - closed_form(scen, DB)) <= 5.0 * budget.total + 1e-3


def mub_dataset():
    """A valid m = 2 dataset with directions."""
    return synthesize_counts(0.9, *qcore.mub_settings(2, 10.0, 20.0), 1000)


#: Each entry point that reads a counts dataset, called on one.
DATASET_READERS = {
    "evaluate_with_errors": lambda data, path: evaluate_with_errors(
        data, [SHANNON], bootstrap=10, jitter_deg=0.0),
    "fit_visibility": lambda data, path: fit_visibility(data),
    "write_counts": lambda data, path: write_counts(data, path),
}


class TestDatasetRule:
    """One rule for a counts dataset, whichever entry point reads it.

    The rule is :class:`CountsData`'s, checked on construction, so no entry
    point is handed a dataset that breaks it and none writes a file.
    """

    @pytest.mark.parametrize("reader", sorted(DATASET_READERS))
    @pytest.mark.parametrize(
        "numbers, message",
        [
            # an empty list of records failed inside numpy ("need at least one array to stack")
            # or wrote a header alone
            ((), "no count rows found"),
        ],
    )
    def test_numbering(self, tmp_path, reader, numbers, message):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=message):
            DATASET_READERS[reader](CountsData(np.zeros((len(numbers), 2, 2))), path)
        assert not path.exists()

    @pytest.mark.parametrize("reader", sorted(DATASET_READERS))
    def test_directions_on_every_setting_or_none(self, tmp_path, reader):
        data = mub_dataset()
        for vectors in ((data.alice, None), (None, data.bob)):
            with pytest.raises(ValueError, match="for both parties on every setting or on none"):
                DATASET_READERS[reader](CountsData(data.counts, *vectors), tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_one_setting_evaluated_once(self, tmp_path):
        # [r1, r1] reported Shannon +0.262, steerable, from one setting counted twice;
        # given twice with its directions, Bob's repeated direction is refused
        data = mub_dataset()
        twice = CountsData(data.counts[[0, 0]], data.alice[[0, 0]], data.bob[[0, 0]])
        with pytest.raises(ValueError, match=r"pairwise orthogonal, got \|b1.b2\| = 1"):
            evaluate_with_errors(twice, [SHANNON], jitter_deg=0.0)
        # and a file cannot list one setting twice
        write_counts(twice, tmp_path / "twice.csv")
        text = (tmp_path / "twice.csv").read_text().replace("\n2,", "\n1,")
        with pytest.raises(CountsFormatError, match=r"line 6: duplicate entry for setting 1"):
            load_counts(write_file(tmp_path, text))

    def test_records_in_any_order(self, tmp_path):
        # a file's rows may come in any order; the dataset is in setting order
        forward = mub_dataset()
        write_counts(forward, tmp_path / "forward.csv")
        header, *rows = (tmp_path / "forward.csv").read_text().splitlines()
        shuffled = write_file(tmp_path, "\n".join([header] + rows[::-3] + rows[-2::-3]
                                                   + rows[-3::-3]) + "\n")
        data = load_counts(shuffled)
        assert np.array_equal(data.counts, forward.counts)
        assert np.array_equal(data.alice, forward.alice) and np.array_equal(data.bob, forward.bob)
        write_counts(data, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "forward.csv").read_bytes()


def near_orthogonal(offsets, alice=None):
    """Directions with Bob ``offsets[k]`` rad from orthogonal to Alice in setting k.

    Alice measures along (z, x) by default; Bob measures along her other
    directions, cyclically shifted and tilted towards hers, so the
    determinant's geometry is as large as it can be while every overlap is
    ``sin(offset)``.
    """
    alice = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])] if alice is None else alice
    bob = alice[1:] + alice[:1]
    bob = [math.cos(eps) * v + math.sin(eps) * u for u, v, eps in zip(alice, bob, offsets)]
    return alice, bob


class TestUnidentifiableFit:
    def test_db_refused(self):
        alice, bob = near_orthogonal([1e-5, 1e-5])
        # the fit gave 972.7, was clipped to 1, and db read +0.0884, steerable,
        # with stat_err 2.8e5
        poisson = synthesize_counts(0.9, alice, bob, 10_000, seed=2)
        # fitted 1e5 and was certified too; the binomial variance (1 - E^2)/N is 0 here
        perfect = CountsData([[[0, 500], [500, 0]]] * 2, alice, bob)
        for data in (poisson, perfect):
            with pytest.raises(ValueError, match="visibility fit is unidentifiable"):
                evaluate_with_errors(data, [SHANNON, DB], bootstrap=100, jitter_deg=0.0)

    def test_db_refused_on_a_fit_far_above_one(self):
        # Bob 1e-2 from orthogonal: the fit is 100.0 with a standard error of 3.5e-5,
        # was clipped to 1, and db read +0.0884, steerable
        alice, bob = near_orthogonal([1e-2, 1e-2])
        data = CountsData([[[0, 10**6], [10**6, 0]]] * 2, alice, bob)
        with pytest.raises(ValueError, match="counts contradict the recorded directions"):
            evaluate_with_errors(data, [DB], bootstrap=100, jitter_deg=0.0)

    def test_entropic_criteria_refused_on_these_directions(self):
        # near_orthogonal tilts Bob's two directions towards each other, so they
        # overlap by sin(2e-5), where the orthogonal bound does not hold
        alice, bob = near_orthogonal([1e-5, 1e-5])
        data = synthesize_counts(0.9, alice, bob, 10_000, seed=2)
        with pytest.raises(ValueError, match=r"pairwise orthogonal, got \|b1.b2\| = 2e-05"):
            evaluate_with_errors(data, [SHANNON], bootstrap=100)

    def test_entropic_criteria_still_evaluated(self):
        # Bob along x' = cos(e) x + sin(e) z and z' = cos(e) z - sin(e) x, orthogonal
        # to each other and each 1e-5 rad from orthogonal to Alice's (z, x): db is
        # refused, while the entropic values and errors do not rest on the fit's
        # precision; the jitter's Werner model takes the clipped fit
        eps = 1e-5
        alice = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
        bob = [math.cos(eps) * alice[1] + math.sin(eps) * alice[0],
               math.cos(eps) * alice[0] - math.sin(eps) * alice[1]]
        data = synthesize_counts(0.9, alice, bob, 10_000, seed=2)
        with pytest.raises(ValueError, match="visibility fit is unidentifiable"):
            evaluate_with_errors(data, [SHANNON, DB], bootstrap=100, jitter_deg=0.0)
        [(result, budget)] = evaluate_with_errors(data, [SHANNON], bootstrap=100)
        assert math.isfinite(result.value) and math.isfinite(budget.total)
        assert abs(fit_visibility(data)) > 100.0  # the fit itself is not refused

    def test_benchmark_sized_fit_accepted(self):
        # overlaps of 0.35 and 1000 counts per setting, as in the analyze benchmark
        alice, bob = near_orthogonal([math.asin(0.35)] * 2)
        for mu in (0.0, 0.9, 1.0):
            data = synthesize_counts(mu, alice, bob, 1000, seed=4)
            assert abs(fit_visibility(data) - mu) < 0.2
            evaluate_with_errors(data, [DB], bootstrap=100)

    def test_uncorrelated_counts_never_certify_db(self):
        # 400 datasets, fixed before the rule was run: mu = 0, m = 2 or 3, a random
        # orientation, and Bob 1e-4 to 1 rad from orthogonal to Alice, so that
        # fits are refused, accepted, and in the band between
        rng = np.random.default_rng(20261020)
        certified = refused = reachable = 0
        for i in range(400):
            m = 2 + i % 2
            frame = np.linalg.qr(rng.standard_normal((3, 3)))[0].T
            offsets = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-4.0, 0.0, m)
            alice, bob = near_orthogonal(offsets, list(frame[:m]))
            data = synthesize_counts(0.0, alice, bob, 10_000, seed=i)
            try:
                [(result, _)] = evaluate_with_errors(data, [DB], bootstrap=0, jitter_deg=0.0)
            except ValueError:
                refused += 1
                continue
            certified += result.steerable
            # accepted where db certifies at visibility 1: the fit alone stands in the way
            reachable += db_steering(alice, bob, 1.0).steerable
        assert certified == 0
        assert refused > 0
        assert reachable > 0


def product_data(total=10 ** 6):
    """|0> (x) |n>: Alice along z twice, Bob along z and (sqrt(3)/2, 0, 1/2), n halfway."""
    z, n = np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.0, math.sqrt(3.0) / 2.0])
    bob = [z, np.array([math.sqrt(3.0) / 2.0, 0.0, 0.5])]
    cells = [[[(1 + a) * (1 + b * np.dot(n, v)) / 4 * total for b in (1, -1)] for a in (1, -1)]
             for v in bob]
    return CountsData(np.rint(cells), [z, z], bob)


class TestBobOrthogonality:
    def test_product_state_refused(self):
        # Shannon 0.202, Tsallis-2 0.250 and Renyi 0.218, each steerable with
        # total_err <= 0.001, from a state that cannot steer
        for criterion in (SHANNON, TSALLIS2, RENYI):
            with pytest.raises(ValueError, match=r"pairwise orthogonal, got \|b1.b2\| = 0.5$"):
                evaluate_with_errors(product_data(), [criterion])

    def test_checked_after_the_settings_count(self):
        data = product_data()
        four = CountsData(*(np.concatenate([a, a]) for a in (data.counts, data.alice, data.bob)))
        with pytest.raises(ValueError, match=r"settings count must lie in \[2, 3\], got 4"):
            evaluate_with_errors(four, [SHANNON], bootstrap=0, jitter_deg=0.0)

    def test_records_without_directions_keep_the_orthogonal_bound(self):
        # nothing says which directions Bob measured along: orthogonal ones are assumed
        bare = CountsData(product_data().counts)
        [(result, _)] = evaluate_with_errors(bare, [SHANNON], bootstrap=0, jitter_deg=0.0)
        assert result.value == tsallis_steering([counts_to_table(c) for c in bare.counts], 1.0).value


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
    """One replicate's value through the public estimators; db at an unclipped fit too."""
    if criterion.kind == "db":
        return reference_db_value(alice, bob, mu)
    if criterion.kind == "renyi":
        return renyi_steering(tables, criterion.r, criterion.s).value
    return tsallis_steering(tables, criterion.q).value


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
                num += -float(qcore.correlation(table.probs)) * overlap
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

    @settings(max_examples=150)
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
        data = synthesize_counts(0.95, alice, bob, 10_000, seed=3)
        criteria = [SHANNON, TSALLIS2, DB]
        for jitter_deg in (0.0, 0.1):
            # a small call first, so that first-call costs stay out of the peak
            evaluate_with_errors(data, criteria, bootstrap=10, jitter_deg=jitter_deg)
            tracemalloc.start()
            try:
                evaluate_with_errors(data, criteria, MAX_BOOTSTRAP, jitter_deg=jitter_deg)
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

    @settings(max_examples=80)
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

    def test_an_axis_of_norm_zero_skips_the_angle_draw(self):
        # there the loop returns Bob's direction and draws no angle; a real
        # generator gives such an axis at odds near 2**-104, so one is scripted
        alice, bob = (np.array(vecs) for vecs in qcore.mub_settings(2, 10.0, 20.0))  # Bob on z, x
        normals = np.random.default_rng(6).standard_normal(100)
        normals[28:31] = 1.7 * bob[1]  # replicate 3, Bob's x: g - (g.x) x is exactly 0
        criteria = BATCH_CRITERIA + [DB] + RENYI_PAIRS
        sigma = math.radians(1.0)
        reference, batched = ScriptedNormals(normals), ScriptedNormals(normals)
        expected = reference_jitter_values(criteria, alice, bob, 0.9, sigma, 10, reference)
        with mock.patch.object(expio, "_REPLICATE_BATCH", 4):
            values = expio._jitter_values(criteria, alice, bob, 0.9, sigma, 10, batched)
        assert np.array_equal(values, expected)
        # the batches after the skipped angle read the stream one normal on
        assert batched.state == reference.state == 10 * 2 * 4 - 1
        scripted = ScriptedNormals(normals)
        first = expio._jittered_batch(bob, sigma, 4, scripted)
        assert np.array_equal(first[3, 1], bob[1]) and scripted.state == 4 * 2 * 4 - 1


class ScriptedNormals:
    """A stand-in generator whose normals are read from a list in order; its state is the index."""

    def __init__(self, normals):
        self.normals = np.asarray(normals, dtype=float)
        self.state = 0
        self.bit_generator = self

    def standard_normal(self, size):
        count = int(np.prod(size))
        drawn = self.normals[self.state:self.state + count]
        self.state += count
        return drawn.reshape(size)

    def normal(self, loc, scale):
        return loc + scale * float(self.standard_normal(1)[0])


#: Job 1307 of the analyze benchmark at seed 1 (its file counts-1311.csv): empty cells
#: in setting 1.
EMPTY_CELL_FILE = """setting,a,b,counts,ax,ay,az,bx,by,bz
1,+1,+1,0,0.00075400874810969943,0.00031456750483174512,0.99999966625899062,0,0,1
1,+1,-1,2124,0.00075400874810969943,0.00031456750483174512,0.99999966625899062,0,0,1
1,-1,+1,2084,0.00075400874810969943,0.00031456750483174512,0.99999966625899062,0,0,1
1,-1,-1,0,0.00075400874810969943,0.00031456750483174512,0.99999966625899062,0,0,1
2,+1,+1,101,0.92290391984229947,0.38502946284383371,-0.00081699565930427442,1,0,0
2,+1,-1,2081,0.92290391984229947,0.38502946284383371,-0.00081699565930427442,1,0,0
2,-1,+1,2080,0.92290391984229947,0.38502946284383371,-0.00081699565930427442,1,0,0
2,-1,-1,82,0.92290391984229947,0.38502946284383371,-0.00081699565930427442,1,0,0
"""

#: The criteria the analyze benchmark evaluates at each settings count.
BENCHMARK_CRITERIA = {2: ["shannon", "tsallis2", "db", "renyi"], 3: ["shannon", "tsallis2", "db"]}


def misses(data, scenario, tokens, seed):
    """The criteria whose value lies more than 5 total errors from the closed form."""
    evaluated = evaluate_with_errors(data, [Criterion.parse(t) for t in tokens], 1000, 0.1, seed)
    return [token for token, (result, budget) in zip(tokens, evaluated)
            if abs(result.value - closed_form(scenario, Criterion.parse(token))) > 5 * budget.total]


def empty_cell_datasets(seed, count):
    """``(scenario, data)`` with an empty cell, drawn as the analyze benchmark draws its files.

    mu in [0.8, 1], alpha in [0, 45] and phi in [0, 60] degrees, 10**U(3, 5)
    Poisson counts per setting.  Draws whose smallest cell mean N (1 - mu u.v)/4
    is over 10 are passed over: an empty cell there has odds below 12 e**-10.
    """
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        m = rng.choice((2, 3, 2), size=4096)
        mu, alpha, phi = (rng.uniform(0.8, 1.0, 4096), rng.uniform(0.0, 45.0, 4096),
                          rng.uniform(0.0, 60.0, 4096))
        total = np.rint(10.0 ** rng.uniform(3.0, 5.0, 4096))
        seeds = rng.integers(2 ** 31, size=4096)
        # the largest overlap of qcore.mub_settings: cos(alpha), or cos(phi) at m = 3
        overlap = np.maximum(np.cos(np.radians(alpha)), (m == 3) * np.cos(np.radians(phi)))
        for k in np.flatnonzero(total * (1.0 - mu * overlap) / 4.0 <= 10.0):
            scenario = Scenario(mu=mu[k], alpha_deg=alpha[k], phi_deg=phi[k], m=int(m[k]))
            data = synthesize_counts(mu[k], *scenario.settings(), total[k], seed=int(seeds[k]))
            if data.counts.min() == 0 and len(found) < count:
                found.append((scenario, data))
    return found


class TestEmptyCells:
    """An empty cell is bootstrapped with mean 1/2: at mean 0 it never varies."""

    def test_benchmark_file_within_five_errors(self, tmp_path):
        # Renyi read 0.6501 against 0.6109 with total_err 0.0031: 12.6 errors off
        data = load_counts(write_file(tmp_path, EMPTY_CELL_FILE))
        scenario = Scenario(mu=0.9990576846751928, alpha_deg=0.046810408366160794,
                            phi_deg=22.645577341674812, m=2)
        assert misses(data, scenario, BENCHMARK_CRITERIA[2], seed=1622077078) == []

    def test_coverage_over_the_benchmark_range(self):
        # The bound was fixed before the first run: at most 3 of 150 datasets
        # miss per criterion.  In a study of 2,000 such datasets Renyi missed
        # on 1 of 1,075 and the others never (4 misses at a rate of 0.2 % have
        # odds of 3e-4); with Poisson(0) Renyi missed on 15 %.
        datasets = empty_cell_datasets(seed=9, count=150)
        missed = [token for i, (scenario, data) in enumerate(datasets)
                  for token in misses(data, scenario, BENCHMARK_CRITERIA[scenario.m], seed=i)]
        assert all(missed.count(token) <= 3 for token in BENCHMARK_CRITERIA[2]), missed


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


@settings(max_examples=400)
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
        dataset = synthesize_counts(mu, alice, bob, total, seed=counts_seed)
    except ValueError:
        return
    assert dataset.counts.sum(axis=(1, 2)).min() >= 1
    try:
        assert math.isfinite(fit_visibility(dataset))
    except ValueError:
        pass
    criteria = data.draw(st.lists(st.sampled_from(ALL_CRITERIA), min_size=1, max_size=4))
    try:
        out = evaluate_with_errors(dataset, criteria, bootstrap, jitter_deg, seed)
    except ValueError:
        return
    for result, budget in out:
        assert all(math.isfinite(x) for x in (result.value, budget.stat, budget.sys))


@st.composite
def bloch_vector(draw):
    """A point of the unit ball."""
    vec = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    return vec / max(1.0, float(np.linalg.norm(vec)))


@st.composite
def unit_direction(draw):
    """A unit 3-vector, z where the drawn coordinates nearly vanish."""
    vec = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 1e-6 else np.array([0.0, 0.0, 1.0])


@st.composite
def orthonormal_frame(draw):
    """Three orthonormal rows: the Q of a drawn matrix, the axes where it is near singular."""
    mat = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3)
    return np.linalg.qr(mat)[0].T if abs(np.linalg.det(mat)) > 1e-3 else np.eye(3)


def separable_probs(weights, alice_states, bob_states, alice, bob):
    """p_k(a, b) = sum_l w_l (1 + a r_l.u_k)(1 + b s_l.v_k)/4, as ``(m, 2, 2)``."""
    signs = np.array([1.0, -1.0])
    p_a = (1.0 + signs * (np.array(alice_states) @ np.array(alice).T)[..., None]) / 2.0
    p_b = (1.0 + signs * (np.array(bob_states) @ np.array(bob).T)[..., None]) / 2.0
    return np.clip(np.einsum("l,lka,lkb->kab", weights, p_a, p_b), 0.0, None)


@settings(max_examples=200)
@given(
    m=st.sampled_from((2, 3)),
    weights=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    data=st.data(),
)
def test_separable_states_never_certified(m, weights, data):
    # fixed before the first run: 200 examples, up to 4 product terms, 1e-12
    weights = np.array(weights) / sum(weights)
    alice_states = [data.draw(bloch_vector()) for _ in weights]
    bob_states = [data.draw(bloch_vector()) for _ in weights]
    alice = [data.draw(unit_direction()) for _ in range(m)]
    entropic = [c for c in BATCH_CRITERIA + RENYI_PAIRS if m == 2 or c.kind != "renyi"]
    # Bob along an orthonormal frame: the orthogonal bound holds
    bob = data.draw(orthonormal_frame())[:m]
    probs = separable_probs(weights, alice_states, bob_states, alice, bob)
    assert criterion_values(entropic, probs[None], np.array(alice), bob, None).max() <= 1e-12
    # Bob along directions that are not orthogonal: refused
    bob = [data.draw(unit_direction()) for _ in range(m)]
    overlap = max(abs(float(np.dot(u, v))) for k, u in enumerate(bob) for v in bob[k + 1:])
    assume(overlap > 1e-9)
    counts = np.rint(separable_probs(weights, alice_states, bob_states, alice, bob) * 10_000)
    with pytest.raises(ValueError, match="pairwise orthogonal"):
        evaluate_with_errors(CountsData(counts, alice, bob), entropic, bootstrap=5, jitter_deg=0.0)
