import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hcimpact import (
    LaborMarketState,
    MortalityTable,
    RelativeRisk,
    StudyRecord,
    StudyRecords,
    ValidationError,
    apply_mortality_shock,
    build_rr_envelope,
    dilute_relative_risk,
    parse_selector,
)
from hcimpact.manifest import parse_manifest
from hcimpact.relative_risk import BOUNDS, MortalityRRTable

from conftest import DATA_DIR, grid_of


class TestDilution:
    @pytest.mark.parametrize(
        "rr, expected",
        [(1.20, 1.02), (1.57, 1.057), (1.33, 1.033), (2.00, 1.10), (1.63, 1.063)],
    )
    def test_reference_values_at_ten_percent_unemployment(self, rr, expected):
        out = dilute_relative_risk(RelativeRisk(rr), LaborMarketState(0.10))
        assert out.diluted
        assert out.value == pytest.approx(expected, abs=1e-12)

    def test_unit_risk_is_fixed_point(self):
        out = dilute_relative_risk(RelativeRisk(1.0), LaborMarketState(0.37))
        assert out.value == 1.0

    def test_rejects_negative_risk(self):
        with pytest.raises(ValidationError):
            RelativeRisk(-0.1)

    def test_rejects_unemployment_outside_unit_interval(self):
        with pytest.raises(ValidationError):
            LaborMarketState(1.5)
        with pytest.raises(ValidationError):
            LaborMarketState(-0.01)

    def test_rejects_already_diluted_input(self):
        with pytest.raises(ValidationError):
            dilute_relative_risk(RelativeRisk(1.2, diluted=True), LaborMarketState(0.1))

    @given(lo=st.floats(0.0, 50.0), hi=st.floats(0.0, 50.0), w=st.floats(0.0, 1.0))
    @example(lo=0.0, hi=1.2755912860596903e-09, w=1.2755912860596903e-09)  # a gap below 1's spacing
    def test_monotone_in_risk(self, lo, hi, w):
        a, b = sorted((lo, hi))
        labor = LaborMarketState(w)
        da = dilute_relative_risk(RelativeRisk(a), labor).value
        db = dilute_relative_risk(RelativeRisk(b), labor).value
        assert da <= db
        if w * (b - a) > 1e-12:  # strict once the diluted gap is representable
            assert da < db

    @given(rr=st.floats(1.0, 50.0), w1=st.floats(0.0, 1.0), w2=st.floats(0.0, 1.0))
    def test_monotone_in_unemployment_above_one(self, rr, w1, w2):
        a, b = sorted((w1, w2))
        da = dilute_relative_risk(RelativeRisk(rr), LaborMarketState(a)).value
        db = dilute_relative_risk(RelativeRisk(rr), LaborMarketState(b)).value
        assert da <= db
        if (b - a) * (rr - 1.0) > 1e-9:
            assert da < db

    @given(rr=st.floats(0.0, 50.0), w=st.floats(0.0, 1.0))
    def test_dilution_bounds(self, rr, w):
        d = dilute_relative_risk(RelativeRisk(rr), LaborMarketState(w)).value
        if rr >= 1.0:
            assert 1.0 <= d <= rr
        else:
            assert rr <= d <= 1.0

    @given(rr=st.floats(0.0, 50.0))
    def test_endpoints_exact(self, rr):
        assert dilute_relative_risk(RelativeRisk(rr), LaborMarketState(0.0)).value == 1.0
        assert dilute_relative_risk(RelativeRisk(rr), LaborMarketState(1.0)).value == rr


class TestMortalityShock:
    def _table(self, grid, fill):
        return MortalityTable(grid, np.full((grid.n_cohorts, grid.n_dates), fill))

    def test_unit_risks_leave_table_unchanged(self):
        grid = grid_of(4, 3)
        table = self._table(grid, 0.12)
        out = apply_mortality_shock(table, np.ones(4), 2015)
        assert np.array_equal(out.death_prob, table.death_prob)

    def test_rescales_only_the_window_column(self):
        grid = grid_of(3, 3)
        table = self._table(grid, 0.04)
        out = apply_mortality_shock(table, np.full(3, 1.25), 2015)
        # element-wise recomputation oracle
        for a in range(grid.n_cohorts):
            for j, date in enumerate(grid.dates):
                expected = 0.04 * 1.25 if date == 2015 else 0.04
                assert out.death_prob[a, j] == pytest.approx(expected, abs=1e-15)
        assert out.death_prob[0, grid.date_index(2015)] == pytest.approx(0.05)
        assert out.death_prob[0, grid.date_index(2020)] == 0.04

    def test_clamps_to_probability_range(self):
        grid = grid_of(2, 2)
        table = self._table(grid, 0.90)
        out = apply_mortality_shock(table, np.full(2, 1.30), 2010)
        assert np.all(out.death_prob[:, 0] == 1.0)

    def test_rejects_window_off_grid(self):
        grid = grid_of(2, 2)
        with pytest.raises(ValidationError):
            apply_mortality_shock(self._table(grid, 0.1), np.ones(2), 2013)

    def test_rejects_incomplete_risk_vector(self):
        grid = grid_of(3, 2)
        with pytest.raises(ValidationError):
            apply_mortality_shock(self._table(grid, 0.1), np.ones(2), 2010)

    @given(
        n=st.integers(2, 8),
        d=st.integers(1, 5),
        j=st.integers(0, 4),
        seed=st.integers(0, 2**31),
    )
    def test_difference_vanishes_outside_window(self, n, d, j, seed):
        j = j % d
        rng = np.random.default_rng(seed)
        grid = grid_of(n, d)
        table = MortalityTable(grid, rng.uniform(0, 1, (n, d)))
        rr = rng.uniform(0, 3, n)
        out = apply_mortality_shock(table, rr, grid.dates[j])
        diff = out.death_prob - table.death_prob
        mask = np.ones(d, bool)
        mask[j] = False
        assert np.all(diff[:, mask] == 0.0)
        assert np.all(out.death_prob >= 0.0) and np.all(out.death_prob <= 1.0)


class TestEnvelope:
    def test_singleton_record(self):
        grid = grid_of(3, 1)
        labor = LaborMarketState(0.10)
        records = [
            StudyRecord(0, 9, 1.0, 1.0, diluted=True),
            StudyRecord(10, 14, 1.05, 1.05, diluted=True, source="single"),
        ]
        table = build_rr_envelope(records, labor, grid)
        assert table.lower[2] == table.upper[2] == 1.05

    def test_overlapping_intervals_intersect(self):
        # interval-intersection oracle: [1.02,1.08] ^ [1.05,1.12] = [1.05,1.08]
        grid = grid_of(2, 1)
        records = [
            StudyRecord(0, 9, 1.02, 1.08, diluted=True, source="a"),
            StudyRecord(0, 9, 1.05, 1.12, diluted=True, source="b"),
        ]
        table = build_rr_envelope(records, LaborMarketState(0.1), grid)
        assert np.allclose(table.lower, 1.05)
        assert np.allclose(table.upper, 1.08)

    def test_disjoint_policy_table(self):
        # enumerate both policies over the same disjoint pair
        grid = grid_of(2, 1)
        records = [
            StudyRecord(0, 9, 1.30, 1.40, diluted=False, source="unemployed_only"),
            StudyRecord(0, 9, 1.01, 1.02, diluted=True, source="population_wide"),
        ]
        labor = LaborMarketState(0.10)  # dilutes the first to [1.03, 1.04]: disjoint
        pop = build_rr_envelope(records, labor, grid, policy="population_level")
        assert np.allclose(pop.lower, 1.01) and np.allclose(pop.upper, 1.02)
        hull = build_rr_envelope(records, labor, grid, policy="hull")
        assert np.allclose(hull.lower, 1.01) and np.allclose(hull.upper, 1.04)

    def test_undiluted_records_are_normalized_first(self):
        grid = grid_of(1, 1)
        records = [StudyRecord(0, 4, 2.0, 3.0, diluted=False)]
        table = build_rr_envelope(records, LaborMarketState(0.10), grid)
        assert table.lower[0] == pytest.approx(1.10, abs=1e-12)
        assert table.upper[0] == pytest.approx(1.20, abs=1e-12)

    def test_empty_record_set_rejected(self):
        with pytest.raises(ValidationError):
            build_rr_envelope([], LaborMarketState(0.1), grid_of(2, 1))

    def test_uncovered_cohort_rejected(self):
        records = [StudyRecord(0, 4, 1.0, 1.1, diluted=True)]
        with pytest.raises(ValidationError, match="no study record covers"):
            build_rr_envelope(records, LaborMarketState(0.1), grid_of(3, 1))

    def test_disjoint_without_population_level_record_rejected(self):
        records = [
            StudyRecord(0, 4, 1.01, 1.02, diluted=False),
            StudyRecord(0, 4, 3.00, 4.00, diluted=False),
        ]
        with pytest.raises(ValidationError, match="no population-level record"):
            build_rr_envelope(records, LaborMarketState(1.0), grid_of(1, 1))

    def test_unknown_policy_rejected(self):
        records = [StudyRecord(0, 4, 1.0, 1.1, diluted=True)]
        with pytest.raises(ValidationError, match="envelope policy"):
            build_rr_envelope(records, LaborMarketState(0.1), grid_of(1, 1), policy="newest")


# The envelope against the per-cohort loop it replaced. ``_reference_envelope``
# is a copy of that loop, with the dilution formula as it was written there,
# and lives only here, as the reference.

def _reference_dilute(rr, w):
    return rr if w == 1.0 else 1.0 + w * (rr - 1.0)


def _reference_envelope(records, labor, grid, policy="population_level"):
    if policy not in ("population_level", "hull"):
        raise ValidationError(
            f"unknown envelope policy {policy!r}; valid: population_level, hull"
        )
    if not records:
        raise ValidationError("empty record set")
    w = labor.unemployment_rate
    normalized = [
        (r.age_lo, r.age_hi, r.rr_lower, r.rr_upper, True) if r.diluted else
        (r.age_lo, r.age_hi, _reference_dilute(r.rr_lower, w), _reference_dilute(r.rr_upper, w),
         False)
        for r in records
    ]
    lower = np.empty(grid.n_cohorts)
    upper = np.empty(grid.n_cohorts)
    for i, start in enumerate(grid.cohort_starts):
        covering = [r for r in normalized if r[0] <= start <= r[1]]
        if not covering:
            raise ValidationError(f"no study record covers cohort {grid.cohort_label(i)}")
        lo = max(r[2] for r in covering)
        hi = min(r[3] for r in covering)
        if lo > hi:
            if policy == "hull":
                lo = min(r[2] for r in covering)
                hi = max(r[3] for r in covering)
            else:
                pop_level = [r for r in covering if r[4]]
                if not pop_level:
                    raise ValidationError(
                        f"disjoint intervals for cohort {grid.cohort_label(i)} and no "
                        "population-level record to fall back on"
                    )
                lo = max(r[2] for r in pop_level)
                hi = min(r[3] for r in pop_level)
                if lo > hi:
                    raise ValidationError(
                        f"population-level records disagree for cohort {grid.cohort_label(i)}"
                    )
        lower[i] = lo
        upper[i] = hi
    return lower, upper


@st.composite
def _study_record(draw):
    lo, hi = sorted(draw(st.lists(st.integers(-5, 40), min_size=2, max_size=2)))
    bounds = sorted(draw(st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2)))
    return StudyRecord(lo, hi, *bounds, diluted=draw(st.booleans()))


@given(
    records=st.lists(_study_record(), max_size=8),
    w=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
    policy=st.sampled_from(("population_level", "hull")),
    n_cohorts=st.integers(1, 6),
)
def test_envelope_matches_reference(records, w, policy, n_cohorts):
    args = records, LaborMarketState(w), grid_of(n_cohorts, 1), policy
    try:
        want = _reference_envelope(*args)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            build_rr_envelope(*args)
        assert str(got.value) == str(exc)
        return
    table = build_rr_envelope(*args)
    assert np.array_equal(table.lower, want[0]) and np.array_equal(table.upper, want[1])


# Ages a file can hold that int64 cannot: the row loop keeps them as Python ints.
_AGES = st.one_of(st.integers(-5, 40), st.sampled_from(
    (2**63 - 1, 2**63, 2**64, 10**30, -(2**63) - 1, -(10**30))))


@st.composite
def _study_record_of_any_age(draw):
    lo, hi = sorted(draw(st.lists(_AGES, min_size=2, max_size=2)))
    bounds = sorted(draw(st.lists(st.floats(0.0, 4.0), min_size=2, max_size=2)))
    return StudyRecord(lo, hi, *bounds, diluted=draw(st.booleans()))


@given(
    records=st.lists(st.one_of(_study_record(), _study_record_of_any_age()), max_size=8),
    w=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
    policy=st.sampled_from(("population_level", "hull")),
    n_cohorts=st.integers(1, 6),
)
def test_envelope_of_a_list_equals_the_envelope_of_its_columns(records, w, policy, n_cohorts):
    columns = StudyRecords.of(records)
    assert list(columns) == records
    outcomes = []
    for given_records in (records, columns):
        try:
            table = build_rr_envelope(given_records, LaborMarketState(w), grid_of(n_cohorts, 1),
                                      policy)
            outcomes.append((table.lower.tobytes(), table.upper.tobytes()))
        except ValidationError as exc:
            outcomes.append(str(exc))
    try:
        want = _reference_envelope(records, LaborMarketState(w), grid_of(n_cohorts, 1), policy)
        want = (want[0].tobytes(), want[1].tobytes())
    except ValidationError as exc:
        want = str(exc)
    assert outcomes == [want, want]


def test_study_records_reject_a_bad_row_with_its_record_error():
    good = StudyRecord(0, 9, 1.0, 1.1, diluted=True)
    with pytest.raises(ValidationError, match="^record age range is inverted$"):
        StudyRecords([0, 9], [9, 4], [[1.0, 1.1], [1.0, 1.1]], [True, True], ["a", "b"])
    with pytest.raises(ValidationError, match=r"got \[1\.2, 1\.1\]$"):
        StudyRecords([0, 0], [9, 9], [[1.0, 1.1], [1.2, 1.1]], [True, False], ["a", "b"])
    with pytest.raises(ValidationError, match="rr has shape"):
        StudyRecords([0], [9], [1.0, 1.1], [True], ["a"])
    assert StudyRecords.of([good])[0] == good and StudyRecords.of([good])[-1] == good
    with pytest.raises(IndexError):
        StudyRecords.of([good])[1]


def test_the_bound_names_are_declared_once():
    assert BOUNDS == ("lower", "upper")
    table = MortalityRRTable(grid_of(2, 1), [1.0, 1.1], [1.2, 1.3])
    for b in BOUNDS:
        assert parse_selector(f" {b} ") == b
        assert table.select(b) is getattr(table, b)
    with pytest.raises(ValidationError) as exc:
        table.select("Upper")
    assert str(exc.value) == "unknown bound selection 'Upper'; use 'lower' or 'upper'"
    inputs = parse_manifest(DATA_DIR / "manifest.txt").load_inputs()
    assert list(inputs.rr_utilization) == list(BOUNDS)
