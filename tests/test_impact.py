from dataclasses import fields, replace

import numpy as np
import pytest

from hcimpact import (
    MODELS,
    CostProfile,
    DSRatioProfile,
    ModelParameters,
    MortalityRRTable,
    MortalityTable,
    PopulationPath,
    ScenarioConfig,
    ScenarioInputs,
    UtilizationRRSet,
    ValidationError,
    apply_mortality_shock,
    cri,
    crimi,
    criui,
    evaluate_model,
    gdp_share_pct,
    parse_selector,
    rescaling_factor,
    sensitivity_grid,
)
from hcimpact.io import fmt_value
from hcimpact.manifest import RunManifest, parse_manifest

from conftest import BUNDLED_SHARES, grid_of, random_inputs


def _unit_bundle(rng, n=4, d=3):
    """Inputs whose risk tables are identically 1 for trivial-shock checks."""
    grid = grid_of(n, d)
    pop = PopulationPath("S0", grid, rng.uniform(0, 4000, (n, d)))
    mortality = MortalityTable(grid, rng.uniform(0, 0.8, (n, d)))
    ones = np.ones(n)
    inputs = ScenarioInputs(
        grid=grid,
        populations={"S0": pop},
        mortality=mortality,
        rr_mortality=MortalityRRTable(grid, ones, ones),
        rr_utilization={
            "lower": UtilizationRRSet(1.0, 1.0, 1.0),
            "upper": UtilizationRRSet(1.0, 1.0, 1.0),
        },
        cost_profiles={"C0": CostProfile("C0", grid, rng.uniform(100, 6000, n))},
        ds_profiles={"D0": DSRatioProfile("D0", grid, rng.uniform(1, 8, n))},
        shares=BUNDLED_SHARES,
        params=ModelParameters(gdp={date: 1.5e6 for date in grid.dates}),
    )
    config = ScenarioConfig(
        population="S0", model="DC", cost_profile="C0", ds_scenario="D0",
        shock_date=2015,
    )
    return inputs, config


class TestCrimi:
    def test_unit_risks_give_exact_zero(self, rng):
        inputs, config = _unit_bundle(rng)
        for model in ("PD", "CH", "DC"):
            assert crimi(replace(config, model=model), inputs) == 0.0

    def test_pd_model_is_zero_at_shock_date(self, rng):
        # population at the shock date predates the shock's survival effect,
        # so the two functional evaluations coincide
        inputs, config = random_inputs(rng)
        value = crimi(replace(config, model="PD", rr_selection=1.8), inputs)
        assert value == 0.0

    def test_synthetic_dc_matches_hand_differenced_evaluations(self):
        grid = grid_of(2, 2)
        counts = np.array([[1000.0, 900.0], [500.0, 450.0]])
        c = np.array([2000.0, 5000.0])
        ds_v = np.array([4.0, 2.5])
        dp = np.array([[0.05, 0.05], [0.25, 0.25]])
        rr = np.array([1.5, 1.0])

        inputs = ScenarioInputs(
            grid=grid,
            populations={"S0": PopulationPath("S0", grid, counts)},
            mortality=MortalityTable(grid, dp),
            rr_mortality=MortalityRRTable(grid, rr, rr),
            rr_utilization={
                "lower": UtilizationRRSet(1.0, 1.0, 1.0),
                "upper": UtilizationRRSet(1.0, 1.0, 1.0),
            },
            cost_profiles={"C0": CostProfile("C0", grid, c)},
            ds_profiles={"D0": DSRatioProfile("D0", grid, ds_v)},
            shares=BUNDLED_SHARES,
            params=ModelParameters(),
        )
        config = ScenarioConfig(
            population="S0", model="DC", cost_profile="C0", ds_scenario="D0",
            rr_selection="upper", shock_date=2015,
        )

        # independent double evaluation with explicit scalar arithmetic
        def lam_dc(death_prob_2015):
            pd1_base = 1.0 - (1.0 - dp[:, 0]) ** 0.2
            s = c / (1.0 + pd1_base * (ds_v - 1.0))
            d = ds_v * s
            pd1 = 1.0 - (1.0 - death_prob_2015) ** 0.2
            total = 0.0
            for a in range(2):
                per_capita = s[a] * (1.0 - pd1[a]) + d[a] * pd1[a]
                total += counts[a, 1] * per_capita
            return total / 1000.0

        expected = lam_dc(np.clip(dp[:, 1] * rr, 0, 1)) - lam_dc(dp[:, 1])
        assert crimi(config, inputs) == pytest.approx(expected, rel=1e-12)
        assert expected > 0.0  # the shocked cohort raises decedent-weighted spending

    def test_unresolvable_population_rejected(self, rng):
        inputs, config = random_inputs(rng)
        with pytest.raises(ValidationError, match="valid ids"):
            crimi(replace(config, population="missing"), inputs)

    def test_invalid_model_lists_valid_ids(self, rng):
        inputs, config = random_inputs(rng)
        with pytest.raises(ValidationError, match="PD, CH, DC"):
            crimi(replace(config, model="XX"), inputs)


class TestCriui:
    def test_unit_factor_gives_exact_zero(self, rng):
        inputs, config = random_inputs(rng)
        assert criui(replace(config, rf_selection=1.0), inputs) == 0.0

    def test_linear_identity_for_every_model(self, rng):
        for _ in range(20):
            inputs, config = random_inputs(rng)
            rf = float(rng.uniform(0.5, 1.5))
            for model in ("PD", "CH", "DC"):
                cfg = replace(config, model=model, rf_selection=rf)
                pop = inputs.populations[cfg.population]
                costs = inputs.cost_profiles[cfg.cost_profile]
                ds = inputs.ds_profiles[cfg.ds_scenario]
                base = evaluate_model(
                    model, pop, costs, ds, inputs.mortality, inputs.params
                ).value_at(cfg.shock_date)
                assert criui(cfg, inputs) == pytest.approx((rf - 1.0) * base, rel=1e-9)

    def test_reference_factor_on_unit_base(self):
        # base expenditure of exactly 1,000 EUR millions
        grid = grid_of(1, 2)
        inputs = ScenarioInputs(
            grid=grid,
            populations={"S0": PopulationPath("S0", grid, np.array([[1.0, 1.0]]))},
            mortality=MortalityTable(grid, np.zeros((1, 2))),
            rr_mortality=MortalityRRTable(grid, np.ones(1), np.ones(1)),
            rr_utilization={
                "lower": UtilizationRRSet(1.0, 1.0, 1.0),
                "upper": UtilizationRRSet(1.0, 1.0, 1.0),
            },
            cost_profiles={"C0": CostProfile("C0", grid, np.array([1_000_000.0]))},
            ds_profiles={"D0": DSRatioProfile("D0", grid, np.ones(1))},
            shares=BUNDLED_SHARES,
            params=ModelParameters(),
        )
        config = ScenarioConfig(
            population="S0", model="PD", cost_profile="C0", ds_scenario="D0",
            rf_selection=1.07694, shock_date=2015,
        )
        assert criui(config, inputs) == pytest.approx(76.94, rel=1e-12)

    def test_negative_uniform_factor_rejected(self, rng):
        inputs, config = random_inputs(rng)
        with pytest.raises(ValidationError, match=">= 0"):
            criui(replace(config, rf_selection=-0.5), inputs)


class TestCri:
    def test_trivial_shocks_are_all_zero(self, rng):
        inputs, config = _unit_bundle(rng)
        result = cri(config, inputs)
        assert result.crimi == 0.0
        assert result.criui == 0.0
        assert result.cri == 0.0

    def test_component_additivity_is_definitional(self, rng):
        inputs, config = random_inputs(rng)
        result = cri(config, inputs)
        assert result.cri == result.crimi + result.criui

    def test_gdp_share_conversion_reference_values(self):
        gdp = 1_520_346.0
        assert 0.03 / 100.0 * gdp == pytest.approx(456.1, abs=0.1)
        assert 0.62 / 100.0 * gdp == pytest.approx(9426.1, abs=0.1)
        assert gdp_share_pct(456.1038, gdp) == pytest.approx(0.03, abs=1e-9)
        assert gdp_share_pct(9426.1452, gdp) == pytest.approx(0.62, abs=1e-9)

    def test_share_requires_positive_gdp(self):
        with pytest.raises(ValidationError):
            gdp_share_pct(100.0, 0.0)

    def test_bound_swap_with_equal_tables_is_identical(self, rng):
        inputs, config = random_inputs(rng)
        v = rng.uniform(1.0, 1.5, inputs.grid.n_cohorts)
        equal_rr = MortalityRRTable(inputs.grid, v, v)
        rrs = UtilizationRRSet(1.2, 1.1, 1.05)
        inputs = replace_inputs(inputs, rr_mortality=equal_rr,
                                rr_utilization={"lower": rrs, "upper": rrs})
        lo = cri(replace(config, rr_selection="lower", rf_selection="lower"), inputs)
        hi = cri(replace(config, rr_selection="upper", rf_selection="upper"), inputs)
        assert lo == hi


def replace_inputs(inputs: ScenarioInputs, **kwargs) -> ScenarioInputs:
    fields = dict(
        grid=inputs.grid,
        populations=inputs.populations,
        mortality=inputs.mortality,
        rr_mortality=inputs.rr_mortality,
        rr_utilization=inputs.rr_utilization,
        cost_profiles=inputs.cost_profiles,
        ds_profiles=inputs.ds_profiles,
        shares=inputs.shares,
        params=inputs.params,
    )
    fields.update(kwargs)
    return ScenarioInputs(**fields)


class TestSensitivityGrid:
    def test_degenerate_grid_equals_direct_call(self, rng):
        inputs, config = random_inputs(rng)
        rows = sensitivity_grid(
            config, inputs, rr_values=["upper"], rf_values=["upper"],
            models=["DC"], pop_scenarios=["S0"],
        )
        assert len(rows) == 1
        direct = cri(replace(config, model="DC", rr_selection="upper",
                             rf_selection="upper"), inputs)
        assert rows[0].result == direct

    def test_trivial_row_is_all_zero(self, rng):
        inputs, config = random_inputs(rng)
        rows = sensitivity_grid(
            config, inputs, rr_values=[1.0, 1.5], rf_values=[1.0, 1.2],
            models=["DC"], pop_scenarios=["S0"],
        )
        trivial = [r for r in rows if r.rr_selector == 1.0 and r.rf == 1.0]
        assert len(trivial) == 1
        assert trivial[0].result.cri == 0.0

    def test_rows_match_independent_reevaluation(self, rng):
        inputs, config = random_inputs(rng)
        models = ["CH", "DC"]
        rrs = ["lower", 1.4]
        rows = sensitivity_grid(
            config, inputs, rr_values=rrs, rf_values=["upper"],
            models=models, pop_scenarios=["S0"],
        )
        assert len(rows) == 4
        k = 0
        for model in models:
            for rr_sel in rrs:
                expected = cri(
                    replace(config, model=model, rr_selection=rr_sel,
                            rf_selection="upper"),
                    inputs,
                )
                assert rows[k].result == expected
                assert rows[k].model == model
                k += 1

    def test_row_count_is_axis_product(self, rng):
        inputs, config = random_inputs(rng)
        rows = sensitivity_grid(
            config, inputs, rr_values=[1.0, 1.2, 1.4], rf_values=[1.0, 1.1],
            models=["PD", "CH", "DC"], pop_scenarios=["S0"],
        )
        assert len(rows) == 3 * 1 * 3 * 2

    def test_empty_axis_rejected(self, rng):
        inputs, config = random_inputs(rng)
        with pytest.raises(ValidationError, match="empty sensitivity axis"):
            sensitivity_grid(config, inputs, rr_values=[], rf_values=[1.0],
                             models=["DC"], pop_scenarios=["S0"])


class TestSelectorParsing:
    def test_bound_names(self):
        assert parse_selector("lower") == "lower"
        assert parse_selector(" upper ") == "upper"

    def test_numeric(self):
        assert parse_selector("1.5") == 1.5

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_selector("middle")


# ---------------------------------------------------------------------------
# The batched grid against the scalar path it replaced. ``_scalar_evaluations``
# is a copy of that path (three full expenditure paths per cell, one date
# kept) and lives only here, as the reference.

def _lookup(mapping, key, what):
    try:
        return mapping[key]
    except KeyError:
        valid = ", ".join(sorted(map(str, mapping))) or "(none)"
        raise ValidationError(f"unknown {what} {key!r}; valid ids: {valid}") from None


def _scalar_evaluations(config, inputs):
    """(base value, shocked value, rescaled value, rf) of one cell, the old way."""
    if config.model not in MODELS:
        raise ValidationError(f"unknown model {config.model!r}; valid ids: {', '.join(MODELS)}")
    pop = _lookup(inputs.populations, config.population, "population scenario")
    costs = _lookup(inputs.cost_profiles, config.cost_profile, "cost profile")
    ds = _lookup(inputs.ds_profiles, config.ds_scenario, "D/S scenario")
    params, t = inputs.params, config.shock_date

    def value(costs, mortality):
        return evaluate_model(config.model, pop, costs, ds, mortality, params).value_at(t)

    base = value(costs, inputs.mortality)
    sel = config.rr_selection
    if isinstance(sel, str):
        rr = inputs.rr_mortality.select(sel)
    else:
        rr = MortalityRRTable.uniform(inputs.grid, sel).select("lower")
    shocked = value(costs, apply_mortality_shock(inputs.mortality, rr, t))
    sel = config.rf_selection
    if isinstance(sel, str):
        if sel not in inputs.rr_utilization:
            raise ValidationError(
                f"no utilization risk set {sel!r}; valid ids: "
                f"{', '.join(sorted(inputs.rr_utilization))}"
            )
        rf = rescaling_factor(inputs.shares, inputs.rr_utilization[sel])
    else:
        rf = float(sel)
        if not np.isfinite(rf) or rf < 0.0:
            raise ValidationError(f"uniform rescaling factor must be >= 0, got {rf}")
    rescaled = value(costs.scaled(rf), inputs.mortality)
    return base, shocked, rescaled, rf


class TestBatchedGridMatchesScalarPath:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_grid_equals_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        n_dates = int(rng.integers(1, 5))
        shock_date = 2010 + 5 * int(rng.integers(0, n_dates))  # base date included
        inputs, config = random_inputs(
            rng, n_dates=n_dates, shock_date=shock_date, n_scenarios=2
        )
        rr_values = ["lower", "upper", 0.0, 1.0, 50.0, float(rng.uniform(0.5, 2.0))]
        rf_values = ["lower", "upper", 0.0, 1.0, float(rng.uniform(0.5, 2.0))]
        models, pops = ["PD", "CH", "DC"], ["S0", "S1"]
        # an RR of 50 clamps some shocked death probabilities to 1
        assert np.any(inputs.mortality.at(shock_date) * 50.0 > 1.0)

        rows = sensitivity_grid(config, inputs, rr_values, rf_values, models, pops)
        coords = [(m, p, rr, rf) for m in models for p in pops
                  for rr in rr_values for rf in rf_values]
        assert len(rows) == len(coords)
        for row, (model, pop, rr_sel, rf_sel) in zip(rows, coords):
            cell = replace(config, model=model, population=pop,
                           rr_selection=rr_sel, rf_selection=rf_sel)
            base, shocked, rescaled, rf = _scalar_evaluations(cell, inputs)
            assert (row.model, row.pop_scenario, row.rr_selector) == (model, pop, rr_sel)
            assert row.rf == rf
            assert row.result.crimi == shocked - base
            assert row.result.criui == rescaled - base
            assert row.result.gdp == inputs.params.gdp[shock_date]
            assert row.result == cri(cell, inputs)
            if model != "DC":
                assert row.result.crimi == 0.0

    def test_shock_at_base_date_moves_the_dc_cost_split(self, rng):
        inputs, config = random_inputs(rng, n_dates=3, shock_date=2010)
        rows = sensitivity_grid(config, inputs, [1.3], [1.0], ["DC"], ["S0"])
        base, shocked, _, _ = _scalar_evaluations(
            replace(config, rr_selection=1.3, rf_selection=1.0), inputs
        )
        assert rows[0].result.crimi == shocked - base
        assert rows[0].result.criui == 0.0

    def test_ch_at_zero_rate_equals_pd_bit_for_bit(self, rng):
        inputs, config = random_inputs(rng, n_scenarios=2)
        inputs = replace_inputs(inputs, params=ModelParameters(
            utilization=1.0, health_improvement_rate=0.0, gdp=inputs.params.gdp))
        axes = (["lower", 1.4], ["upper", 0.0, 1.2])
        pd_rows = sensitivity_grid(config, inputs, *axes, ["PD"], ["S0", "S1"])
        ch_rows = sensitivity_grid(config, inputs, *axes, ["CH"], ["S0", "S1"])
        assert [r.result for r in pd_rows] == [r.result for r in ch_rows]


class TestBatchedGridValidation:
    AXES = dict(rr_values=["upper", 1.2], rf_values=["lower", 1.05],
                models=["PD", "DC"], pop_scenarios=["S0"])

    @pytest.mark.parametrize("axis, bad", [
        ("models", "XX"),
        ("pop_scenarios", "missing"),
        ("rr_values", "middle"),
        ("rr_values", -1.0),
        ("rr_values", float("nan")),
        ("rf_values", "middle"),
        ("rf_values", -0.5),
        ("rf_values", float("inf")),
    ])
    def test_bad_selector_raises_the_scalar_error(self, rng, axis, bad):
        inputs, config = random_inputs(rng)
        axes = {k: list(v) for k, v in self.AXES.items()}
        axes[axis].insert(1, bad)  # among valid entries, not first
        field = {"models": "model", "pop_scenarios": "population",
                 "rr_values": "rr_selection", "rf_values": "rf_selection"}[axis]
        with pytest.raises(ValidationError) as scalar:
            _scalar_evaluations(replace(config, **{field: bad}), inputs)
        with pytest.raises(ValidationError) as batched:
            sensitivity_grid(config, inputs, **axes)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("field, bad", [
        ("cost_profile", "nope"), ("ds_scenario", "nope"), ("shock_date", 2013),
    ])
    def test_bad_base_field_raises_the_scalar_error(self, rng, field, bad):
        inputs, config = random_inputs(rng)
        config = replace(config, **{field: bad})
        with pytest.raises(ValidationError) as scalar:
            _scalar_evaluations(config, inputs)
        with pytest.raises(ValidationError) as batched:
            sensitivity_grid(config, inputs, **self.AXES)
        assert str(batched.value) == str(scalar.value)


class TestNoInertSetting:
    # another valid value for each ScenarioConfig field on the bundled data
    OTHER_VALUE = {
        "population": "PopLV",
        "model": "PD",
        "cost_profile": "ARC2",
        "ds_scenario": "high",
        "rr_selection": "lower",
        "rf_selection": "lower",
        "shock_date": 2020,
    }

    def test_every_config_field_changes_cri(self, data_dir):
        manifest = parse_manifest(data_dir / "manifest.txt")
        inputs, base = manifest.load_inputs(), manifest.scenario_config()
        reference = cri(base, inputs).cri
        for field in fields(ScenarioConfig):
            assert field.name in self.OTHER_VALUE, f"{field.name}: give it a value to test"
            changed = replace(base, **{field.name: self.OTHER_VALUE[field.name]})
            assert cri(changed, inputs).cri != reference, f"{field.name} has no effect"

    @pytest.mark.parametrize("key, value, component, before, after", [
        ("scenario.unemployment_rate", "0.5", "criui", "8960.96", "44804.8"),
        ("scenario.envelope_policy", "hull", "crimi", "191.508", "194.126"),
    ])
    def test_load_time_settings_change_impact(
        self, data_dir, key, value, component, before, after
    ):
        bundled = parse_manifest(data_dir / "manifest.txt")
        changed = RunManifest(bundled.source, {**bundled.values, key: value})
        for manifest, expected in ((bundled, before), (changed, after)):
            result = cri(manifest.scenario_config(), manifest.load_inputs())
            assert fmt_value(getattr(result, component)) == expected
