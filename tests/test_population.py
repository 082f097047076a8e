import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcimpact import (
    BirthRateScenario,
    MortalityTable,
    ValidationError,
    load_exogenous_path,
    project_population,
)
from hcimpact.io import read_population_csv

from conftest import grid_of


def _zero_mortality(grid):
    return MortalityTable(grid, np.zeros((grid.n_cohorts, grid.n_dates)))


class TestProjection:
    def test_pure_aging_shifts_and_conserves(self):
        grid = grid_of(5, 4)
        initial = np.array([100.0, 200.0, 300.0, 400.0, 500.0])
        path = project_population(
            initial, _zero_mortality(grid), BirthRateScenario("none", 0.0)
        )
        # one step: everyone moves up a cohort, top accumulates
        assert np.array_equal(path.at(2015), [0.0, 100.0, 200.0, 300.0, 900.0])
        for date in grid.dates:
            assert path.total(date) == initial.sum()

    def test_absorbing_top_cohort(self):
        grid = grid_of(3, 2)
        dp = np.zeros((3, 2))
        dp[-1, :] = 1.0  # nobody in the top cohort survives
        mortality = MortalityTable(grid, dp)
        path = project_population(
            np.array([10.0, 20.0, 30.0]), mortality, BirthRateScenario("none", 0.0)
        )
        # top cohort holds only the entrants from the cohort below
        assert path.at(2015)[-1] == 20.0

    def test_birth_step_arithmetic(self):
        grid = grid_of(20, 2)
        initial = np.full(20, 3000.0)  # 60,000 thousand total
        path = project_population(
            initial, _zero_mortality(grid), BirthRateScenario("high", 0.017)
        )
        assert path.at(2015)[0] == pytest.approx(60000.0 * 0.017 * 5.0, rel=1e-15)
        assert path.at(2015)[0] == pytest.approx(5100.0, rel=1e-12)

    def test_birth_step_matches_per_year_loop_under_zero_mortality(self):
        # yearly oracle: newborns accrue from the (constant) start-of-step base
        grid = grid_of(4, 2)
        initial = np.array([900.0, 1100.0, 700.0, 300.0])
        rate = 0.0123
        path = project_population(
            initial, _zero_mortality(grid), BirthRateScenario("b", rate)
        )
        base = initial.sum()
        yearly = sum(rate * base for _ in range(5))
        assert path.at(2015)[0] == pytest.approx(yearly, rel=1e-12)

    def test_horizon_truncates_path(self):
        grid = grid_of(3, 5)
        path = project_population(
            np.ones(3), _zero_mortality(grid), BirthRateScenario("none", 0.0),
            horizon=2020,
        )
        assert path.grid.dates == (2010, 2015, 2020)

    def test_horizon_off_grid_rejected(self):
        grid = grid_of(3, 3)
        with pytest.raises(ValidationError):
            project_population(
                np.ones(3), _zero_mortality(grid), BirthRateScenario("none", 0.0),
                horizon=2017,
            )

    def test_initial_coverage_gap_rejected(self):
        grid = grid_of(4, 2)
        with pytest.raises(ValidationError):
            project_population(
                np.ones(3), _zero_mortality(grid), BirthRateScenario("none", 0.0)
            )

    def test_deterministic_bit_identical(self, rng):
        grid = grid_of(6, 4)
        initial = rng.uniform(0, 4000, 6)
        mortality = MortalityTable(grid, rng.uniform(0, 1, (6, 4)))
        births = BirthRateScenario("b", 0.011)
        a = project_population(initial, mortality, births)
        b = project_population(initial, mortality, births)
        assert np.array_equal(a.counts, b.counts)

    @given(seed=st.integers(0, 2**31), n=st.integers(2, 8), d=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_step_decomposition(self, seed, n, d):
        rng = np.random.default_rng(seed)
        grid = grid_of(n, d)
        mortality = MortalityTable(grid, rng.uniform(0, 1, (n, d)))
        rate = float(rng.uniform(0, 0.03))
        initial = rng.uniform(0, 5000, n)
        path = project_population(initial, mortality, BirthRateScenario("b", rate))
        for j in range(d - 1):
            cur = path.counts[:, j]
            survivors = float(cur @ (1.0 - mortality.death_prob[:, j]))
            births = rate * cur.sum() * 5.0
            assert path.counts[:, j + 1].sum() == pytest.approx(
                survivors + births, rel=1e-12
            )

    @given(data=st.data(), n=st.integers(2, 8), d=st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_counts_are_bit_identical_to_a_scratch_vector_step(self, data, n, d):
        # the reference builds each step in its own vector and copies it in
        def reference(initial, death_prob, rate, last):
            counts = np.zeros((n, last + 1))
            counts[:, 0] = initial
            for i in range(last):
                cur = counts[:, i]
                surv = cur * (1.0 - death_prob[:, i])
                nxt = np.zeros(n)
                nxt[1:] = surv[:-1]
                nxt[-1] += surv[-1]
                nxt[0] = rate * cur.sum() * 5.0
                counts[:, i + 1] = nxt
            return counts

        unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
        grid = grid_of(n, d)
        dp = np.array(data.draw(st.lists(unit, min_size=n * d, max_size=n * d))).reshape(n, d)
        initial = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)))
        rate = data.draw(unit)
        last = data.draw(st.integers(0, d - 1))
        path = project_population(initial, MortalityTable(grid, dp), BirthRateScenario("b", rate),
                                  horizon=grid.dates[last])
        want = reference(initial, dp, rate, last)
        assert np.array_equal(path.counts.view(np.int64), want.view(np.int64))

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_monotone_damage(self, seed):
        # raising any single death probability never raises any later head-count
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        grid = grid_of(n, d)
        dp = rng.uniform(0.0, 0.8, (n, d))
        initial = rng.uniform(0.0, 5000.0, n)
        births = BirthRateScenario("b", float(rng.uniform(0, 0.03)))
        base = project_population(initial, MortalityTable(grid, dp), births)

        bumped = dp.copy()
        a, j = int(rng.integers(0, n)), int(rng.integers(0, d))
        bumped[a, j] = min(1.0, bumped[a, j] + float(rng.uniform(0.01, 0.2)))
        worse = project_population(initial, MortalityTable(grid, bumped), births)
        assert np.all(worse.counts <= base.counts + 1e-12)


class TestExogenousLoad:
    def test_bundled_file_structure(self, data_dir):
        paths = read_population_csv(data_dir / "population.csv")
        assert set(paths) == {"PopMV", "PopHV", "PopLV", "PopCFV"}
        mv = paths["PopMV"]
        assert mv.counts.shape == (20, 11)
        assert mv.counts.size == 220

    def test_load_single_scenario_verbatim(self, data_dir):
        mv = load_exogenous_path("PopMV", data_dir / "population.csv")
        assert mv.scenario == "PopMV"
        assert mv.total(2010) == pytest.approx(59550.0, rel=1e-9)

    def test_unknown_scenario_rejected(self, data_dir):
        with pytest.raises(ValidationError, match="PopXX"):
            load_exogenous_path("PopXX", data_dir / "population.csv")

    def test_missing_date_rejected(self, tmp_path):
        lines = ["scenario,date,cohort_lo,cohort_hi,count_thousands"]
        for date in (2010, 2020):  # 2015 missing
            for lo in (0, 5):
                lines.append(f"X,{date},{lo},{lo + 4},10")
        f = tmp_path / "pop.csv"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError):
            load_exogenous_path("X", f)

    def test_negative_count_rejected(self, tmp_path):
        lines = ["scenario,date,cohort_lo,cohort_hi,count_thousands"]
        for lo in (0, 5):
            lines.append(f"X,2010,{lo},{lo + 4},10")
        lines[1] = "X,2010,0,4,-1"
        f = tmp_path / "pop.csv"
        f.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="negative"):
            load_exogenous_path("X", f)
