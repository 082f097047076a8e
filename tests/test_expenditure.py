import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcimpact import (
    CostProfile,
    DSRatioProfile,
    ExpenditureShares,
    ModelParameters,
    MortalityTable,
    NumericalError,
    PopulationPath,
    UtilizationRRSet,
    ValidationError,
    decompose_costs,
    evaluate_model,
    expenditure_ch,
    expenditure_dc,
    expenditure_pd,
    rescaling_factor,
)

from hcimpact.expenditure import contract, model_weights
from hcimpact.manifest import parse_manifest

from conftest import BUNDLED_SHARES, DATA_DIR, grid_of


def _constant_mortality(grid, pd5):
    return MortalityTable(grid, np.full((grid.n_cohorts, grid.n_dates), pd5))


class TestPureDemographic:
    def test_single_cohort_unit_conversion(self):
        grid = grid_of(1, 1)
        pop = PopulationPath("S", grid, np.array([[1000.0]]))  # one million people
        costs = CostProfile("C", grid, np.array([2000.0]))
        path = expenditure_pd(pop, costs, ModelParameters())
        assert path.value_at(2010) == pytest.approx(2000.0, rel=1e-15)

    def test_empty_population_is_zero_everywhere(self):
        grid = grid_of(4, 3)
        pop = PopulationPath("S", grid, np.zeros((4, 3)))
        costs = CostProfile("C", grid, np.full(4, 1500.0))
        path = expenditure_pd(pop, costs, ModelParameters())
        assert np.all(path.values == 0.0)

    def test_three_cohort_scalar_loop_oracle(self):
        grid = grid_of(3, 2)
        counts = np.array([[120.0, 130.0], [340.0, 350.0], [560.0, 570.0]])
        c = np.array([900.0, 1800.0, 4200.0])
        u = np.array([1.0, 0.8, 1.3])
        pop = PopulationPath("S", grid, counts)
        costs = CostProfile("C", grid, c)
        path = expenditure_pd(pop, costs, ModelParameters(utilization=u))
        for j, date in enumerate(grid.dates):
            total = 0.0
            for a in range(3):
                total += counts[a, j] * u[a] * c[a]
            assert path.value_at(date) == pytest.approx(total / 1000.0, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        pop = PopulationPath("S", grid_of(3, 2), np.ones((3, 2)))
        costs = CostProfile("C", grid_of(4, 2), np.ones(4))
        with pytest.raises(ValidationError, match="grid"):
            expenditure_pd(pop, costs, ModelParameters())

    @given(seed=st.integers(0, 2**31), alpha=st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_population(self, seed, alpha):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        grid = grid_of(n, d)
        counts = rng.uniform(0, 4000, (n, d))
        costs = CostProfile("C", grid, rng.uniform(0, 6000, n))
        params = ModelParameters()
        base = expenditure_pd(PopulationPath("S", grid, counts), costs, params)
        scaled = expenditure_pd(PopulationPath("S", grid, alpha * counts), costs, params)
        assert np.allclose(scaled.values, alpha * base.values, rtol=1e-12, atol=1e-12)
        # additive over a disjoint split of the population
        split = rng.uniform(0, 1, (n, d))
        part1 = expenditure_pd(PopulationPath("S", grid, counts * split), costs, params)
        part2 = expenditure_pd(
            PopulationPath("S", grid, counts * (1.0 - split)), costs, params
        )
        assert np.allclose(part1.values + part2.values, base.values, rtol=1e-9)


class TestConstantHealth:
    def test_zero_rate_degenerates_to_pd_exactly(self, rng):
        grid = grid_of(6, 4)
        pop = PopulationPath("S", grid, rng.uniform(0, 5000, (6, 4)))
        costs = CostProfile("C", grid, rng.uniform(100, 8000, 6))
        mort = _constant_mortality(grid, 0.05)
        params = ModelParameters(health_improvement_rate=0.0)
        pd_path = expenditure_pd(pop, costs, params)
        ch_path = expenditure_ch(pop, costs, mort, params)
        assert np.array_equal(ch_path.values, pd_path.values)

    def test_twenty_years_prices_next_younger_cohort(self):
        # 0.25 y/y for 20 years = one full 5-year cohort of effective-age shift
        grid = grid_of(4, 5)  # dates 2010..2030
        c = np.array([1000.0, 2000.0, 3000.0, 4000.0])
        counts = np.zeros((4, 5))
        counts[:, 4] = [10.0, 10.0, 10.0, 10.0]
        pop = PopulationPath("S", grid, counts)
        costs = CostProfile("C", grid, c)
        mort = _constant_mortality(grid, 0.0)
        path = expenditure_ch(pop, costs, mort, ModelParameters(health_improvement_rate=0.25))
        # cohort a priced at c[a-1]; the youngest extrapolates flat to c[0]
        expected = 10.0 * (c[0] + c[0] + c[1] + c[2]) / 1000.0
        assert path.value_at(2030) == pytest.approx(expected, rel=1e-12)

    def test_dominated_by_pd_on_increasing_profile(self, rng):
        grid = grid_of(8, 6)
        pop = PopulationPath("S", grid, rng.uniform(0, 3000, (8, 6)))
        increasing = np.sort(rng.uniform(100, 9000, 8))
        costs = CostProfile("C", grid, increasing)
        mort = _constant_mortality(grid, 0.1)
        params = ModelParameters(health_improvement_rate=0.3)
        ch_path = expenditure_ch(pop, costs, mort, params)
        pd_path = expenditure_pd(pop, costs, params)
        assert np.all(ch_path.values <= pd_path.values + 1e-9)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            ModelParameters(health_improvement_rate=-0.1)


class TestCostDecomposition:
    def test_unit_ratio_collapses_split(self):
        grid = grid_of(3, 2)
        costs = CostProfile("C", grid, np.array([800.0, 1600.0, 3200.0]))
        ds = DSRatioProfile("D", grid, np.ones(3))
        s, d = decompose_costs(costs, ds, _constant_mortality(grid, 0.2))
        assert np.array_equal(s, costs.values)
        assert np.array_equal(d, costs.values)

    def test_zero_mortality_keeps_survivor_cost(self):
        grid = grid_of(2, 1)
        costs = CostProfile("C", grid, np.array([1000.0, 2000.0]))
        ds = DSRatioProfile("D", grid, np.array([3.0, 5.0]))
        s, d = decompose_costs(costs, ds, _constant_mortality(grid, 0.0))
        assert np.array_equal(s, costs.values)
        assert np.allclose(d, ds.values * costs.values, rtol=1e-15)

    def test_closed_form_value(self):
        # pd1 = 0.02 corresponds to a 5-year death probability of 1 - 0.98^5
        grid = grid_of(1, 1)
        pd5 = 1.0 - 0.98 ** 5
        costs = CostProfile("C", grid, np.array([3000.0]))
        ds = DSRatioProfile("D", grid, np.array([4.0]))
        s, d = decompose_costs(costs, ds, _constant_mortality(grid, pd5))
        assert s[0] == pytest.approx(3000.0 / 1.06, rel=1e-12)
        assert s[0] == pytest.approx(2830.19, abs=0.01)
        assert d[0] == pytest.approx(4.0 * 3000.0 / 1.06, rel=1e-12)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_recomposition_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        grid = grid_of(n, 1)
        costs = CostProfile("C", grid, rng.uniform(10, 9000, n))
        ds = DSRatioProfile("D", grid, rng.uniform(0.5, 20, n))
        mort = MortalityTable(grid, rng.uniform(0, 0.95, (n, 1)))
        s, d = decompose_costs(costs, ds, mort)
        pd1 = mort.annualized_at(grid.base_date)
        assert np.allclose(s * (1.0 - pd1) + d * pd1, costs.values, rtol=1e-12)

    def test_degenerate_denominator_rejected(self):
        # pd1 = 1 with a vanishing ratio collapses the denominator to zero
        grid = grid_of(1, 1)
        costs = CostProfile("C", grid, np.array([1000.0]))
        ds = DSRatioProfile("D", grid, np.array([1e-300]))
        mort = _constant_mortality(grid, 1.0)
        with pytest.raises(NumericalError):
            decompose_costs(costs, ds, mort)


class TestDeathRelatedCosts:
    def test_constant_mortality_reproduces_pd(self, rng):
        grid = grid_of(5, 4)
        pop = PopulationPath("S", grid, rng.uniform(0, 4000, (5, 4)))
        costs = CostProfile("C", grid, rng.uniform(200, 7000, 5))
        ds = DSRatioProfile("D", grid, rng.uniform(1, 12, 5))
        mort = _constant_mortality(grid, 0.07)
        params = ModelParameters()
        dc_path = expenditure_dc(pop, costs, ds, mort, params)
        pd_path = expenditure_pd(pop, costs, params)
        assert np.allclose(dc_path.values, pd_path.values, rtol=1e-12)

    def test_unit_ratio_reproduces_pd_under_shock(self, rng):
        grid = grid_of(5, 3)
        pop = PopulationPath("S", grid, rng.uniform(0, 4000, (5, 3)))
        costs = CostProfile("C", grid, rng.uniform(200, 7000, 5))
        ds = DSRatioProfile("D", grid, np.ones(5))
        dp = rng.uniform(0, 1, (5, 3))  # arbitrary, wildly non-constant mortality
        mort = MortalityTable(grid, dp)
        params = ModelParameters()
        dc_path = expenditure_dc(pop, costs, ds, mort, params)
        pd_path = expenditure_pd(pop, costs, params)
        assert np.allclose(dc_path.values, pd_path.values, rtol=1e-9)

    def test_small_instance_per_person_oracle(self):
        grid = grid_of(2, 2)
        persons = np.array([[4000, 3000], [2000, 1000]], dtype=int)
        pop = PopulationPath("S", grid, persons / 1000.0)
        costs = CostProfile("C", grid, np.array([1500.0, 4500.0]))
        ds = DSRatioProfile("D", grid, np.array([6.0, 3.0]))
        mort = MortalityTable(grid, np.array([[0.02, 0.05], [0.30, 0.45]]))
        path = expenditure_dc(pop, costs, ds, mort, ModelParameters())

        # brute force: survivor/decedent expectation accumulated person by person
        pd1_base = 1.0 - (1.0 - mort.death_prob[:, 0]) ** 0.2
        for j, date in enumerate(grid.dates):
            pd1 = 1.0 - (1.0 - mort.death_prob[:, j]) ** 0.2
            total_eur = 0.0
            for a in range(2):
                denom = 1.0 + pd1_base[a] * (ds.values[a] - 1.0)
                s = costs.values[a] / denom
                d = ds.values[a] * s
                for _ in range(persons[a, j]):
                    total_eur += s * (1.0 - pd1[a]) + d * pd1[a]
            assert path.value_at(date) == pytest.approx(total_eur / 1e6, rel=1e-9)


class TestRescalingFactor:
    def test_unit_risks_give_unit_factor(self):
        rrs = UtilizationRRSet(hospital=1.0, specialist=1.0, general_practice=1.0)
        assert rescaling_factor(BUNDLED_SHARES, rrs) == pytest.approx(1.0, abs=1e-15)

    def test_reference_lower_bound(self):
        rrs = UtilizationRRSet(hospital=1.033, specialist=1.063, general_practice=1.02)
        assert rescaling_factor(BUNDLED_SHARES, rrs) == pytest.approx(1.02715, abs=1e-9)

    def test_reference_upper_bound(self):
        rrs = UtilizationRRSet(hospital=1.10, specialist=1.063, general_practice=1.057)
        assert rescaling_factor(BUNDLED_SHARES, rrs) == pytest.approx(1.07694, abs=1e-9)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_extreme_risks(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.01, 1.0, 6)
        shares = ExpenditureShares(*(raw / raw.sum()))
        values = rng.uniform(0.5, 3.0, 6)
        rrs = UtilizationRRSet(*values)
        rf = rescaling_factor(shares, rrs)
        assert values.min() - 1e-12 <= rf <= values.max() + 1e-12

    def test_unknown_service_rejected(self):
        rrs = UtilizationRRSet(hospital=1.0, specialist=1.0, general_practice=1.0)
        with pytest.raises(ValidationError):
            rrs.for_service("X")

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            ExpenditureShares(0.5, 0.1, 0.1, 0.1, 0.1, 0.2)


class TestUniformRescaling:
    @given(seed=st.integers(0, 2**31), factor=st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_scaling_costs_scales_every_model(self, seed, factor):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        grid = grid_of(n, d)
        pop = PopulationPath("S", grid, rng.uniform(0, 4000, (n, d)))
        costs = CostProfile("C", grid, rng.uniform(100, 8000, n))
        ds = DSRatioProfile("D", grid, rng.uniform(1, 10, n))
        mort = MortalityTable(grid, rng.uniform(0, 0.9, (n, d)))
        params = ModelParameters(health_improvement_rate=float(rng.uniform(0, 0.4)))
        for model in ("PD", "CH", "DC"):
            base = evaluate_model(model, pop, costs, ds, mort, params)
            scaled = evaluate_model(model, pop, costs.scaled(factor), ds, mort, params)
            assert np.allclose(scaled.values, factor * base.values, rtol=1e-9, atol=1e-9)


class TestContractBits:
    """A contracted value does not depend on the stack it is computed in."""

    @given(
        seed=st.integers(0, 2**31),
        n=st.sampled_from([1, 2, 7, 8, 9, 20, 127, 128, 129, 300]),
        rows=st.integers(1, 4),
        models=st.integers(1, 3),
        pops=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_row_alone_equals_the_row_in_every_stack(self, seed, n, rows, models, pops):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3.0, 6.0, n)  # several magnitudes, so order matters
        weights = rng.uniform(-1.0, 1.0, (models, pops, rows, n)) * scale
        counts = rng.uniform(0.0, 5000.0, (pops, 1, n))
        alone = np.array([[[contract(counts[p, 0], weights[m, p, r])[0]
                            for r in range(rows)] for p in range(pops)] for m in range(models)])
        full = contract(counts, weights, rows)
        assert full.shape == (models, pops, rows)
        assert np.array_equal(full.view(np.int64), alone.view(np.int64))
        for p in range(pops):
            by_rows = contract(counts[p, 0], weights[0, p], rows)
            by_models = contract(counts[p], weights[:, p:p + 1], rows)
            assert np.array_equal(by_rows.view(np.int64), alone[0, p].view(np.int64))
            assert np.array_equal(by_models.view(np.int64), alone[:, p:p + 1].view(np.int64))

    @given(seed=st.integers(0, 2**31), n=st.integers(1, 200), rows=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_equal_rows_differ_by_exactly_zero(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        counts = rng.uniform(0.0, 5000.0, n)
        row = rng.uniform(0.0, 8000.0, n) * 10.0 ** rng.uniform(-3.0, 6.0, n)
        base = contract(counts, row)
        stacked = contract(np.stack([counts, counts])[:, None], row, rows)
        assert stacked.shape == (2, rows)
        assert np.all(stacked - base == 0.0)


@pytest.fixture(scope="module")
def bundled():
    return parse_manifest(DATA_DIR / "manifest.txt").load_inputs()


class TestOneContraction:
    """A path is one weight stack over its dates and one contraction."""

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar_u", "vector_u"])
    @pytest.mark.parametrize("rate", [0.0, 0.25, 0.7])
    @pytest.mark.parametrize("model", ["PD", "CH", "DC"])
    def test_stacked_path_equals_the_per_date_evaluation(self, bundled, model, rate, vector):
        grid, mort = bundled.grid, bundled.mortality
        u = np.linspace(0.7, 1.3, grid.n_cohorts) if vector else 1.0
        params = ModelParameters(utilization=u, health_improvement_rate=rate)
        costs, ds = bundled.cost_profiles["ARC1"], bundled.ds_profiles["central"]
        dp = mort.death_prob
        alone = {"PD": lambda pop: expenditure_pd(pop, costs, params),
                 "CH": lambda pop: expenditure_ch(pop, costs, mort, params),
                 "DC": lambda pop: expenditure_dc(pop, costs, ds, mort, params)}[model]
        for pop in bundled.populations.values():
            path = evaluate_model(model, pop, costs, ds, mort, params)
            public = alone(pop)
            for j, date in enumerate(grid.dates):
                weights = model_weights(model, grid, date, params, costs.values, ds.values,
                                        dp[:, 0], dp[:, j])
                (value,) = contract(pop.counts[:, j], weights)
                assert path.values[j].tobytes() == value.tobytes(), (pop.scenario, date)
                assert public.values[j].tobytes() == value.tobytes(), (pop.scenario, date)


    def test_a_date_column_pairs_each_row_with_its_cost_row(self, bundled):
        """A ``(dates, 1)`` column and a ``(dates, cohorts)`` cost stack give one
        weight row per date in every model, each the scalar-date call on its row."""
        grid, dp = bundled.grid, bundled.mortality.death_prob
        params = ModelParameters(health_improvement_rate=0.7)
        ds = bundled.ds_profiles["central"].values
        scale = np.linspace(0.5, 1.5, grid.n_dates)[:, None]
        costs = bundled.cost_profiles["ARC1"].values * scale  # a different cost row per date
        column = np.array(grid.dates)[:, None]
        for model in ("PD", "CH", "DC"):
            weights = model_weights(model, grid, column, params, costs, ds, dp[:, 0], dp.T)
            assert weights.shape == (grid.n_dates, grid.n_cohorts), model
            for j, date in enumerate(grid.dates):
                row = model_weights(model, grid, date, params, costs[j], ds, dp[:, 0], dp[:, j])
                assert weights[j].tobytes() == row.tobytes(), (model, date)


class TestUtilization:
    @pytest.mark.parametrize("u", [-1.0, float("nan"), np.array([1.0, -1.0])])
    def test_a_bad_multiplier_fails_when_built(self, u):
        with pytest.raises(ValidationError, match="utilization scaling must be finite and >= 0"):
            ModelParameters(utilization=u)

    def test_a_vector_is_kept_as_a_read_only_copy(self):
        u = np.array([1.0, 0.8, 1.3])
        params = ModelParameters(utilization=u)
        u[0] = 5.0
        assert params.utilization.tolist() == [1.0, 0.8, 1.3]
        assert not params.utilization.flags.writeable
        assert ModelParameters().utilization == 1.0

    @pytest.mark.parametrize("model", ["PD", "CH", "DC"])
    def test_a_vector_of_the_wrong_length_fails_on_evaluation(self, model):
        grid = grid_of(3, 2)
        pop = PopulationPath("S", grid, np.ones((3, 2)))
        costs = CostProfile("C", grid, np.full(3, 1000.0))
        ds = DSRatioProfile("D", grid, np.full(3, 5.0))
        params = ModelParameters(utilization=np.ones(4))
        with pytest.raises(ValidationError, match=r"^utilization scaling: shape \(4,\), "
                                                  r"expected \(3,\)$"):
            evaluate_model(model, pop, costs, ds, _constant_mortality(grid, 0.1), params)


def test_utilization_defaults_to_one_and_none_means_one():
    assert ModelParameters().utilization == ModelParameters(utilization=None).utilization == 1.0
