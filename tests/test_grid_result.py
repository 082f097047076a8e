"""The columnar sensitivity grid: cells, sequence contract, checks and render."""

import hashlib
import importlib.util
import json
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcimpact import GridResult, GridRow, ImpactResult, NumericalError, ValidationError, io
from hcimpact.expenditure import contract, model_weights, require_same_grid
from hcimpact.impact import _resolve, _rr_vector, resolve_rf, sensitivity_grid
from hcimpact.manifest import parse_manifest
from hcimpact.relative_risk import shock_death_probs

from conftest import DATA_DIR, REPO_ROOT, random_inputs


def _reference_rows(base, inputs, rr_values, rf_values, models, pop_scenarios):
    """The grid as a list of rows: a copy of the per-cell loop it replaced."""
    for name, axis in (
        ("models", models),
        ("population scenarios", pop_scenarios),
        ("mortality RR values", rr_values),
        ("RF values", rf_values),
    ):
        if len(axis) == 0:
            raise ValidationError(f"empty sensitivity axis: {name}")
    pops = [_resolve(inputs.populations, p, "population scenario") for p in pop_scenarios]
    costs = _resolve(inputs.cost_profiles, base.cost_profile, "cost profile")
    ds = _resolve(inputs.ds_profiles, base.ds_scenario, "D/S scenario")
    mortality = inputs.mortality
    grid = require_same_grid(mortality, costs, ds, *pops)
    t = base.shock_date
    if t not in grid.dates:
        raise ValidationError(f"date {t} not on the expenditure path")
    j = grid.date_index(t)

    shocked = shock_death_probs(mortality, [_rr_vector(r, inputs) for r in rr_values], t)
    rfs = [resolve_rf(r, inputs) for r in rf_values]
    rescaled_costs = costs.values * np.array(rfs)[:, None]
    pd5_base, pd5 = mortality.death_prob[:, 0], mortality.death_prob[:, j]
    shocked_base = shocked if j == 0 else pd5_base
    params = inputs.params
    gdp = None if params.gdp is None else params.gdp.get(t)

    rows = []
    for model in models:
        kernel = partial(model_weights, model, grid, t, params)
        w_base = kernel(costs.values, ds.values, pd5_base, pd5)
        w_shocked = kernel(costs.values, ds.values, shocked_base, shocked)
        w_rescaled = kernel(rescaled_costs, ds.values, pd5_base, pd5)
        for pop_id, pop in zip(pop_scenarios, pops):
            counts = pop.counts[:, j]
            (value,) = contract(counts, w_base).tolist()
            shocked_values = contract(counts, w_shocked, len(rr_values)).tolist()
            rescaled_values = contract(counts, w_rescaled, len(rfs)).tolist()
            for rr_sel, v_shocked in zip(rr_values, shocked_values):
                crimi_value = v_shocked - value
                for rf, v_rescaled in zip(rfs, rescaled_values):
                    result = ImpactResult(t, crimi_value, v_rescaled - value, gdp)
                    rows.append(GridRow(model, pop_id, rr_sel, rf, result))
    return rows


def _reference_csv(rows):
    """The per-row render the columnar one replaced."""
    lines = [",".join(io.IMPACT_COLUMNS)]
    for r in rows:
        res = r.result
        cells = (r.rf, res.crimi, res.criui, res.cri, res.cri_gdp_pct)
        lines.append(",".join([r.model, r.pop_scenario, io.selector_text(r.rr_selector)]
                              + [io.fmt_value(v) for v in cells]))
    return "\n".join(lines) + "\n"


_SELECTORS = st.one_of(
    st.sampled_from(["lower", "upper", 0.0, 1.0, 50.0]),
    st.floats(0.0, 3.0),
)


class TestGridMatchesRowReference:
    @given(
        seed=st.integers(0, 2**31),
        n_dates=st.integers(1, 4),
        shock_step=st.integers(0, 3),
        models=st.lists(st.sampled_from(["PD", "CH", "DC"]), min_size=1, max_size=4),
        n_pops=st.integers(1, 3),
        rr_values=st.lists(_SELECTORS, min_size=1, max_size=5),
        rf_values=st.lists(_SELECTORS, min_size=1, max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_row_equals_the_reference(
        self, seed, n_dates, shock_step, models, n_pops, rr_values, rf_values
    ):
        rng = np.random.default_rng(seed)
        shock_date = 2010 + 5 * min(shock_step, n_dates - 1)  # base date included
        inputs, config = random_inputs(
            rng, n_dates=n_dates, shock_date=shock_date, n_scenarios=n_pops
        )
        pops = [f"S{k}" for k in range(n_pops)]
        args = (config, inputs, rr_values, rf_values, models, pops)

        grid = sensitivity_grid(*args)
        reference = _reference_rows(*args)
        assert len(grid) == len(reference)
        for k, want in enumerate(reference):
            got = grid[k]
            assert got.model == want.model
            assert got.pop_scenario == want.pop_scenario
            assert got.rr_selector == want.rr_selector
            assert got.rf == want.rf
            assert got.result.date == want.result.date
            assert got.result.crimi == want.result.crimi
            assert got.result.criui == want.result.criui
            assert got.result.gdp == want.result.gdp
        assert io.impact_csv_text(grid) == _reference_csv(reference)
        assert io.impact_csv_text(reference) == _reference_csv(reference)


def _small_grid():
    inputs, config = random_inputs(np.random.default_rng(7), n_scenarios=2)
    return sensitivity_grid(config, inputs, ["lower", 1.3, 2.0], ["upper", 1.05],
                            ["PD", "DC"], ["S0", "S1"])


class TestSequenceContract:
    def test_length_is_the_cell_count(self):
        grid = _small_grid()
        assert len(grid) == 2 * 2 * 3 * 2
        assert grid.shape == (2, 2, 3, 2)

    def test_iteration_follows_model_population_rr_rf_order(self):
        grid = _small_grid()
        coords = [(row.model, row.pop_scenario, row.rr_selector, row.rf) for row in grid]
        assert coords == [(m, p, rr, rf) for m in grid.models for p in grid.pop_scenarios
                          for rr in grid.rr_values for rf in grid.rfs]
        assert list(grid) == [grid[k] for k in range(len(grid))]

    def test_negative_index_counts_from_the_end(self):
        grid = _small_grid()
        assert grid[-1] == grid[len(grid) - 1]
        assert grid[-len(grid)] == grid[0]

    @pytest.mark.parametrize("k", [24, 100, -25])
    def test_index_out_of_range_raises_index_error(self, k):
        with pytest.raises(IndexError):
            _small_grid()[k]

    def test_rows_are_built_on_demand(self):
        grid = _small_grid()
        assert grid[5] == grid[5] and grid[5] is not grid[5]

    def test_component_arrays_are_read_only(self):
        grid = _small_grid()
        for values in (grid.crimi, grid.criui):
            with pytest.raises(ValueError):
                values[0, 0, 0] = 1.0


class TestGridChecks:
    AXES = (("PD",), ("S0",), ("upper",), (1.0, 1.1), 2015, 1.5e6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("component", ["crimi", "criui"])
    def test_non_finite_cell_is_numerical_error(self, bad, component):
        values = {"crimi": np.zeros((1, 1, 1)), "criui": np.zeros((1, 1, 2))}
        values[component][0, 0, -1] = bad
        with pytest.raises(NumericalError, match="impact components must be finite"):
            GridResult(*self.AXES, **values)

    def test_missing_gdp_fails_the_render(self):
        grid = GridResult(*self.AXES[:5], None, np.zeros((1, 1, 1)), np.zeros((1, 1, 2)))
        with pytest.raises(ValidationError, match="no GDP available at the evaluation date"):
            io.impact_csv_text(grid)

    @pytest.mark.parametrize("gdp", [0.0, -1.0, np.nan])
    def test_nonpositive_gdp_fails_the_render(self, gdp):
        grid = GridResult(*self.AXES[:5], gdp, np.zeros((1, 1, 1)), np.zeros((1, 1, 2)))
        with pytest.raises(ValidationError, match=f"GDP must be positive, got {gdp}"):
            io.impact_csv_text(grid)


# Values that repeat across cells and columns, with both zeros: the render
# formats each distinct bit pattern of a column once, so ``-0.0`` and ``0.0``
# must come out as "-0" and "0".
_POOL = (0.0, -0.0, 1.5, -1.5, 3.0, 1e-300, 5e-324, 123456.789, -2.5e7)


@st.composite
def _pooled_grids(draw):
    m, p, r, f = (draw(st.integers(1, n)) for n in (2, 2, 3, 3))
    values = st.sampled_from(_POOL)

    def array(*shape):
        n = math.prod(shape)
        return np.array(draw(st.lists(values, min_size=n, max_size=n))).reshape(shape)

    rr_values = draw(st.lists(st.one_of(st.sampled_from(["lower", "upper"]), values),
                              min_size=r, max_size=r))
    rfs = tuple(draw(st.lists(values, min_size=f, max_size=f)))
    gdp = draw(st.sampled_from([1.0, 3.0, 1520346.0]))
    return GridResult(("PD", "DC")[:m], ("S0", "S1")[:p], tuple(rr_values), rfs, 2015, gdp,
                      array(m, p, r), array(m, p, f))


def _bits(v):
    return np.float64(v).tobytes()


class TestDistinctRender:
    @given(grid=_pooled_grids())
    @settings(max_examples=150, deadline=None)
    def test_csv_equals_the_per_row_render(self, grid):
        assert io.impact_csv_text(grid).splitlines() == _reference_csv(grid).splitlines()

    @given(grid=_pooled_grids())
    @settings(max_examples=150, deadline=None)
    def test_table_cells_are_the_per_cell_floats(self, grid):
        want = [[r.model, r.pop_scenario, io.selector_text(r.rr_selector), float(r.rf),
                 float(r.result.crimi), float(r.result.criui), float(r.result.cri),
                 float(r.result.cri_gdp_pct)] for r in grid]
        got = [list(cells) for cells in zip(*io.impact_columns(grid, float))]
        assert list(map(repr, got)) == list(map(repr, want))

    @given(grid=_pooled_grids())
    @settings(max_examples=150, deadline=None)
    def test_number_runs_once_per_distinct_value_of_each_column(self, grid):
        calls = []

        def spy(v):
            calls.append(_bits(v))
            return io.fmt_value(v)

        io.impact_columns(grid, spy)
        # The GDP share is formatted once per distinct CRI, of which it is a function.
        columns = [[r.rf, r.result.crimi, r.result.criui, r.result.cri, r.result.cri]
                   for r in grid]
        assert len(calls) == sum(len(set(map(_bits, column))) for column in zip(*columns))

    def test_negative_zero_and_zero_share_a_column_apart(self):
        grid = GridResult(("PD",), ("S0",), ("upper",), (0.0, -0.0), 2015, 2.0,
                          np.array([[[-0.0]]]), np.array([[[0.0, -0.0]]]))
        text = io.impact_csv_text(grid)
        assert text.splitlines()[1:] == ["PD,S0,upper,0,-0,0,0,0", "PD,S0,upper,-0,-0,-0,-0,-0"]
        assert text == _reference_csv(grid)


class TestRowListRender:
    """A plain list of rows renders column by column, each row with its own GDP."""

    @given(grids=st.lists(_pooled_grids(), min_size=1, max_size=3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_csv_equals_the_per_row_render(self, grids, data):
        rows = data.draw(st.permutations([row for grid in grids for row in grid]))
        assert io.impact_csv_text(rows) == _reference_csv(rows)
        assert io.impact_csv_text(iter(rows)) == _reference_csv(rows)
        want = [[r.model, r.pop_scenario, io.selector_text(r.rr_selector), float(r.rf),
                 float(r.result.crimi), float(r.result.criui), float(r.result.cri),
                 float(r.result.cri_gdp_pct)] for r in rows]
        got = [list(cells) for cells in zip(*io.impact_columns(rows, float))]
        assert list(map(repr, got)) == list(map(repr, want))

    def test_an_empty_list_is_the_header_only(self):
        assert io.impact_csv_text([]) == ",".join(io.IMPACT_COLUMNS) + "\n"
        assert io.impact_csv_text(iter([])) == _reference_csv([])

    @pytest.mark.parametrize("gdp, message", [(None, "no GDP available"),
                                              (0.0, "GDP must be positive, got 0.0")])
    def test_a_row_without_a_valid_gdp_fails_the_render(self, gdp, message):
        good = GridRow("PD", "S0", "upper", 1.0, ImpactResult(2015, 1.0, 2.0, 3.0))
        bad = GridRow("PD", "S0", "upper", 1.0, ImpactResult(2015, 1.0, 2.0, gdp))
        with pytest.raises(ValidationError, match=message):
            io.impact_csv_text([good, bad])


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", REPO_ROOT / "benchmarks" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_csv_matches_the_golden_sha256():
    gen = _bench_gen()
    golden = json.loads((REPO_ROOT / "benchmarks" / "golden" / "sweep.json").read_text())
    manifest = parse_manifest(DATA_DIR / "manifest.txt")
    rr, rf = gen.sweep_axes(golden["seed"])
    grid = sensitivity_grid(manifest.scenario_config(), manifest.load_inputs(), rr, rf,
                            gen.SWEEP_MODELS, gen.SWEEP_POPULATIONS)
    assert len(grid) == golden["cells"]
    text = io.impact_csv_text(grid)
    assert hashlib.sha256(text.encode()).hexdigest() == golden["sha256"]
