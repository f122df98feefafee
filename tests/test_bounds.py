"""Log-space bound formulas against direct evaluation and exact counts."""

import math

import pytest

from designcount.bounds import (
    BadKError,
    LogScalar,
    NotDivisibleBy4Error,
    OddNError,
    UnknownBoundError,
    ZeroDegreeError,
    bound_report,
    cameron_lower_log,
    conjectured_rate_log,
    kahn_lovasz_log,
    log_factorial,
    peel_bound_log,
    vdw_latin_lower_log,
    wilson_bounds,
)
from designcount.entropylab.rates import finite_sum_rate
from designcount.enumeration import (
    count_latin_squares,
    count_one_factorizations,
    count_triple_systems,
)

REL = 1e-12


def close(a, b):
    return math.isclose(a, b, rel_tol=REL, abs_tol=1e-12)


class TestLogFactorial:
    def test_base_cases(self):
        assert log_factorial(0).value == 0.0
        assert log_factorial(1).value == 0.0

    def test_small_products(self):
        assert close(log_factorial(3).value, math.log(6))
        assert close(log_factorial(5).value, math.log(120))

    def test_large_against_lgamma(self):
        for k in (100, 10_000, 1_000_000):
            ref = math.lgamma(k + 1)
            assert abs(log_factorial(k).value - ref) / ref <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(Exception):
            log_factorial(-1)


class TestWilson:
    def test_n7(self):
        lo, hi = wilson_bounds(7)
        assert close(lo.value, (49 / 6) * (math.log(7) - 2 - 1.5 * math.log(3)))
        assert close(hi.value, (49 / 6) * (math.log(7) - 0.5))
        assert round(lo.value, 2) == -13.90 and round(hi.value, 2) == 11.81

    def test_n9(self):
        lo, hi = wilson_bounds(9)
        assert round(lo.value, 2) == -19.58 and round(hi.value, 2) == 22.91

    def test_order_for_all_n(self):
        for n in range(1, 200):
            lo, hi = wilson_bounds(n)
            assert lo.value < hi.value

    def test_sandwich_with_exact_counts(self):
        for n in (7, 9):
            lo, hi = wilson_bounds(n)
            logc = math.log(count_triple_systems(n).count)
            assert lo.value <= logc <= hi.value


class TestKahnLovasz:
    def test_k2(self):
        assert kahn_lovasz_log([1, 1]).value == 0.0

    def test_k4(self):
        v = kahn_lovasz_log([3, 3, 3, 3]).value
        assert close(v, 4 * math.log(6) / 6)
        assert math.exp(v) >= 3  # K_4 has exactly 3 perfect matchings

    def test_regular_identity(self):
        for n, d in ((6, 5), (10, 3), (8, 7)):
            v = kahn_lovasz_log([d] * n).value
            assert close(v, (n / (2 * d)) * log_factorial(d).value)

    def test_zero_degree(self):
        with pytest.raises(ZeroDegreeError):
            kahn_lovasz_log([2, 0, 2])


class TestPeel:
    def test_n2(self):
        assert peel_bound_log(2).value == 0.0

    def test_n4(self):
        v = peel_bound_log(4).value
        assert close(v, math.log(2) + (2 / 3) * math.log(6))
        assert v >= math.log(count_one_factorizations(4, labeled=True).count)

    def test_n6(self):
        v = peel_bound_log(6).value
        want = sum((6 / (2 * d)) * math.lgamma(d + 1) for d in range(1, 6))
        assert close(v, want)
        assert v >= math.log(720)

    def test_dominates_labeled_counts(self):
        for n in (2, 4, 6, 8):
            labeled = count_one_factorizations(n, labeled=True).count
            assert peel_bound_log(n).value >= math.log(labeled)

    def test_odd_n(self):
        with pytest.raises(OddNError):
            peel_bound_log(5)


class TestSummation:
    def test_pinned_digits(self):
        # the last digit moves if the summation order or precision changes
        assert repr(peel_bound_log(8).value) == "20.041042463755947"
        assert repr(kahn_lovasz_log([15] * 16).value) == "14.879611404715142"
        assert repr(finite_sum_rate("sts", 1000).value) == "5.91060519786385"


class TestVdwLatinLower:
    def test_values(self):
        assert vdw_latin_lower_log(1).value == 0.0
        assert close(vdw_latin_lower_log(3).value, 6 * math.log(6) - 9 * math.log(3))
        assert close(vdw_latin_lower_log(5).value,
                     10 * math.log(120) - 25 * math.log(5))

    def test_dominated_by_exact_counts(self):
        for n in range(1, 6):
            assert vdw_latin_lower_log(n).value <= math.log(count_latin_squares(n).count)


class TestCameron:
    def test_n8_exact_bases(self):
        v = cameron_lower_log(8, latin_count=576, onef_count=1)
        assert close(v.value, math.log(576))
        assert v.value <= math.log(count_one_factorizations(8, labeled=False).count)
        assert "exact" in v.note

    def test_n4_unordered_reading_overshoots(self):
        # with unordered base counts the bound value exceeds the unordered
        # count F(4) = 1; the reading discrepancy is surfaced, not hidden
        v = cameron_lower_log(4, latin_count=2, onef_count=1)
        assert close(v.value, math.log(2))
        assert v.value > math.log(count_one_factorizations(4, labeled=False).count or 1)
        # the labeled reading is consistent: 6 >= 2
        assert math.log(count_one_factorizations(4, labeled=True).count) >= v.value

    def test_fallback_provenance(self):
        v = cameron_lower_log(8)
        assert "vdW" in v.note and "recursive" in v.note

    def test_rejects_other_n(self):
        with pytest.raises(NotDivisibleBy4Error):
            cameron_lower_log(6)


class TestConjecturedRates:
    def test_values(self):
        assert close(conjectured_rate_log(7, 6).value, (49 / 6) * (math.log(7) - 2))
        assert close(conjectured_rate_log(9, 6).value, (81 / 6) * (math.log(9) - 2))
        assert round(conjectured_rate_log(9, 6).value, 3) == 2.663

    def test_monotone_growth_beyond_e_squared(self):
        vals = [conjectured_rate_log(n, 6).value for n in range(8, 21)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_bad_k(self):
        with pytest.raises(BadKError):
            conjectured_rate_log(9, 3)


class TestLogScalar:
    def test_addition_multiplies_counts(self):
        a, b = LogScalar(math.log(6)), LogScalar(math.log(4))
        assert close((a + b).value, math.log(24))

    def test_magnitude_string(self):
        assert LogScalar(11.808266).magnitude() == "e^11.8083"

    def test_float(self):
        assert float(LogScalar(2.5, note="x")) == 2.5


class TestBoundReport:
    def test_full_report(self):
        rep = bound_report(8, latin_count=576, onef_count=1)
        assert set(rep.bounds) == {
            "wilson-lower", "wilson-upper", "kahn-lovasz", "peel",
            "vdw-latin-lower", "cameron-lower",
            "conjecture-6", "conjecture-2", "conjecture-1",
        }
        assert rep.bounds["wilson-lower"].value < rep.bounds["wilson-upper"].value

    def test_csv_shape(self):
        rep = bound_report(9, ["wilson-lower", "wilson-upper"])
        lines = rep.to_csv().splitlines()
        assert lines[0] == "name,n,log-value,magnitude"
        assert len(lines) == 3 and lines[1].startswith("wilson-lower,9,")

    def test_json_round_trip(self):
        import json
        rep = bound_report(8, ["peel"])
        doc = json.loads(rep.to_json())
        assert doc["n"] == 8 and "peel" in doc["bounds"]

    def test_unknown_name(self):
        with pytest.raises(UnknownBoundError):
            bound_report(9, ["birkhoff"])

    @pytest.mark.parametrize("name", ["conjecture-06", "conjecture-+6", "conjecture-\u0666",
                                      "conjecture- 6", "conjecture-6\n", "conjecture-3"])
    def test_only_the_listed_names_are_bounds(self, name):
        # int() reads each of these suffixes; only BOUND_NAMES name a bound
        with pytest.raises(UnknownBoundError) as refused:
            bound_report(16, ["conjecture-6", name])
        assert str(refused.value) == f"unknown bound {name!r}"

    def test_notes_are_the_values_notes(self):
        rep = bound_report(8)
        assert rep.notes == {name: ls.note for name, ls in rep.bounds.items() if ls.note}
        assert list(rep.notes) == ["kahn-lovasz", "vdw-latin-lower", "cameron-lower"]
        assert rep.notes["kahn-lovasz"] == "complete-graph degree sequence"

    def test_upper_bound_dominates_exact_counts(self):
        # the closed-form upper bound stays above the exact log-count
        for n in (7, 9):
            logc = math.log(count_triple_systems(n).count)
            assert wilson_bounds(n)[1].value >= logc
