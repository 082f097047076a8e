"""Every grid-indexed table stores a checked, read-only copy of its values."""

import numpy as np
import pytest

from hcimpact import (
    CostProfile,
    DSRatioProfile,
    ExpenditurePath,
    MortalityRRTable,
    MortalityTable,
    PopulationPath,
    ValidationError,
)

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
