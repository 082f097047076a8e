"""Every grid-indexed table stores a checked, read-only copy of its values,
and every other check of the library's own arguments raises its exact message."""

import sys
from pathlib import Path

import numpy as np
import pytest

from hcimpact import (
    BirthRateScenario,
    CohortGrid,
    CostProfile,
    DSRatioProfile,
    ExpenditurePath,
    ImpactResult,
    ModelParameters,
    MortalityRRTable,
    MortalityTable,
    NumericalError,
    PopulationPath,
    ValidationError,
    gdp_share_pct,
    io,
    project_population,
)
from hcimpact.manifest import RunManifest, require_encodable
from hcimpact.relative_risk import shock_death_probs

from conftest import grid_of

GRID = grid_of(3, 2)

# table: (constructor from its values, attribute storing them, valid values, upper bound)
TABLES = {
    "MortalityTable": (lambda v: MortalityTable(GRID, v), "death_prob", np.full((3, 2), 0.1), 1.0),
    "PopulationPath": (
        lambda v: PopulationPath("S", GRID, v), "counts", np.full((3, 2), 50.0), None),
    "CostProfile": (lambda v: CostProfile("C", GRID, v), "values", np.full(3, 900.0), None),
    "DSRatioProfile": (lambda v: DSRatioProfile("D", GRID, v), "values", np.full(3, 2.0), None),
    "ExpenditurePath": (
        lambda v: ExpenditurePath("PD", "S", GRID.dates, v), "values", np.full(2, 70.0), None),
    "MortalityRRTable.lower": (
        lambda v: MortalityRRTable(GRID, v, np.full(3, 9.0)), "lower", np.full(3, 1.1), None),
    "MortalityRRTable.upper": (
        lambda v: MortalityRRTable(GRID, np.zeros(3), v), "upper", np.full(3, 1.3), None),
}


def _with_first(values, x):
    out = values.copy()
    out.flat[0] = x
    return out


DEFECTS = {  # defect: (bad values from the valid ones and the upper bound, expected message)
    "wrong_shape": (lambda v, hi: v[:-1], "shape"),
    "nan": (lambda v, hi: _with_first(v, np.nan), "must be finite"),
    "inf": (lambda v, hi: _with_first(v, np.inf), "must be finite"),
    "below_bound": (lambda v, hi: _with_first(v, -0.5), "must be finite and"),
    "above_bound": (lambda v, hi: _with_first(v, hi + 0.5), r"must be finite and in \[0, 1\]"),
}

CASES = [
    (table, defect)
    for table, (*_, hi) in TABLES.items()
    for defect in DEFECTS
    if defect != "above_bound" or hi is not None
]


@pytest.mark.parametrize("table, defect", CASES)
def test_table_rejects_bad_values(table, defect):
    make, _, valid, hi = TABLES[table]
    bad, message = DEFECTS[defect]
    with pytest.raises(ValidationError, match=message):
        make(bad(valid, hi))


@pytest.mark.parametrize("table", TABLES)
def test_table_stores_a_read_only_copy(table):
    make, attr, valid, _ = TABLES[table]
    values = valid.copy()
    stored = getattr(make(values), attr)
    values[...] = 0.0
    assert np.array_equal(stored, valid)
    assert not stored.flags.writeable


ONE_COHORT = grid_of(1, 2)
DEATH_PROBS = MortalityTable(GRID, np.full((3, 2), 0.1))

# check: (the call that trips it, exception type, exact message)
ARGUMENT_CHECKS = {
    "no_cohort": (lambda: CohortGrid((), (2010,)), ValidationError,
                  "grid needs at least one cohort"),
    "no_date": (lambda: CohortGrid((0,), ()), ValidationError,
                "grid needs at least one projection date"),
    "cohort_gap": (lambda: CohortGrid((0, 10), (2010,)), ValidationError,
                   "cohorts must be contiguous 5-year bins, got 0 then 10"),
    "negative_cost_scale": (lambda: CostProfile("C", GRID, np.full(3, 900.0)).scaled(-1.0),
                            ValidationError, "cost scale factor must be >= 0, got -1.0"),
    "zero_ds_ratio": (lambda: DSRatioProfile("D", GRID, [1, 0, 1]), ValidationError,
                      "D/S ratios must be > 0"),
    "zero_gdp": (lambda: ModelParameters(gdp={2015: 0.0}), ValidationError,
                 "GDP must be positive, got 0.0 at 2015"),
    "nan_impact": (lambda: ImpactResult(2015, np.nan, 0.0), NumericalError,
                   "impact components must be finite"),
    "series_lengths": (lambda: io.series_csv_text([1.0], []), ValidationError,
                       "series x and y lengths differ"),
    "negative_birth_rate": (lambda: BirthRateScenario("x", -0.1), ValidationError,
                            "crude birth rate must be finite and >= 0"),
    "one_cohort_projection": (
        lambda: project_population(np.ones(1), MortalityTable(ONE_COHORT, np.full((1, 2), 0.1)),
                                   BirthRateScenario("x", 0.01)),
        ValidationError, "projection needs at least two cohorts to age into"),
    "crossed_rr_bounds": (lambda: MortalityRRTable(GRID, [2] * 3, [1] * 3), ValidationError,
                          "lower bound exceeds upper bound for some cohort"),
    "nan_risk": (lambda: shock_death_probs(DEATH_PROBS, [1.0, np.nan, 1.0], 2010),
                 ValidationError, "risk vector must be finite and >= 0"),
    "negative_risk": (lambda: shock_death_probs(DEATH_PROBS, [1.0, -1.0, 1.0], 2010),
                      ValidationError, "risk vector must be finite and >= 0"),
    "subnormal_gdp_share": (lambda: gdp_share_pct(1.0, 1e-320), ValidationError,
                            "the share of GDP 1e-320 EUR millions is not finite"),
    "unencodable_file_name": (
        lambda: require_encodable("a\ud800", "file name 'x'"), ValidationError,
        f"file name 'x' cannot be encoded in the file-system encoding {sys.getfilesystemencoding()}"),
    # a lone surrogate, outside every file-system encoding, in a name under a manifest key
    "unencodable_manifest_file": (
        lambda: RunManifest(Path("d", "manifest.txt"), {"data.gdp": "gdp\ud800.csv"}).file(
            "data.gdp"), ValidationError,
        f"{Path('d', 'manifest.txt')}: key 'data.gdp': file name 'gdp\\ud800.csv' cannot be "
        f"encoded in the file-system encoding {sys.getfilesystemencoding()}"),
    "unencodable_manifest_paths": (
        lambda: RunManifest(Path("d", "manifest.txt"), {
            "data.population": "population.csv, pop\ud800.csv"}).paths("data.population"),
        ValidationError,
        f"{Path('d', 'manifest.txt')}: key 'data.population': file name 'pop\\ud800.csv' cannot "
        f"be encoded in the file-system encoding {sys.getfilesystemencoding()}"),
}


@pytest.mark.parametrize("check", ARGUMENT_CHECKS)
def test_argument_check_raises_its_exact_message(check):
    call, kind, message = ARGUMENT_CHECKS[check]
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind
    assert str(caught.value) == message
