"""Shared builders for synthetic grids, tables and scenario bundles."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from hcimpact import (
    CohortGrid,
    CostProfile,
    DSRatioProfile,
    ExpenditureShares,
    ModelParameters,
    MortalityRRTable,
    MortalityTable,
    PopulationPath,
    ScenarioConfig,
    ScenarioInputs,
    UtilizationRRSet,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"

BUNDLED_SHARES = ExpenditureShares(
    hospital=0.71, pharmaceutical=0.10, specialist=0.04,
    general_practice=0.06, rehabilitation=0.02, minor=0.07,
)


def grid_of(n_cohorts: int, n_dates: int, first_date: int = 2010) -> CohortGrid:
    return CohortGrid(
        tuple(range(0, 5 * n_cohorts, 5)),
        tuple(range(first_date, first_date + 5 * n_dates, 5)),
    )


def random_inputs(
    rng: np.random.Generator,
    n_cohorts: int | None = None,
    n_dates: int | None = None,
    shock_date: int = 2015,
    n_scenarios: int = 1,
) -> tuple[ScenarioInputs, ScenarioConfig]:
    """A fully synthetic scenario bundle plus a matching base config."""
    n = int(n_cohorts if n_cohorts is not None else rng.integers(3, 7))
    d = int(n_dates if n_dates is not None else rng.integers(2, 5))
    grid = grid_of(n, d)
    assert shock_date in grid.dates

    populations = {
        f"S{k}": PopulationPath(f"S{k}", grid, rng.uniform(0.0, 5000.0, (n, d)))
        for k in range(n_scenarios)
    }
    mortality = MortalityTable(grid, rng.uniform(0.0, 0.9, (n, d)))
    lower = rng.uniform(0.9, 1.2, n)
    rr_mortality = MortalityRRTable(grid, lower, lower + rng.uniform(0.0, 0.5, n))
    rr_utilization = {
        bound: UtilizationRRSet(
            hospital=rng.uniform(1.0, 1.5),
            specialist=rng.uniform(1.0, 1.5),
            general_practice=rng.uniform(1.0, 1.5),
        )
        for bound in ("lower", "upper")
    }
    costs = CostProfile("C0", grid, rng.uniform(100.0, 5000.0, n))
    ds = DSRatioProfile("D0", grid, rng.uniform(1.0, 10.0, n))
    raw = rng.uniform(0.05, 1.0, 6)
    raw /= raw.sum()
    shares = ExpenditureShares(*raw)
    gdp = {date: float(rng.uniform(1e5, 2e6)) for date in grid.dates}
    params = ModelParameters(
        utilization=1.0,
        health_improvement_rate=float(rng.uniform(0.0, 0.5)),
        gdp=gdp,
    )
    inputs = ScenarioInputs(
        grid=grid,
        populations=populations,
        mortality=mortality,
        rr_mortality=rr_mortality,
        rr_utilization=rr_utilization,
        cost_profiles={"C0": costs},
        ds_profiles={"D0": ds},
        shares=shares,
        params=params,
    )
    config = ScenarioConfig(
        population="S0",
        model="DC",
        cost_profile="C0",
        ds_scenario="D0",
        rr_selection="upper",
        rf_selection="upper",
        shock_date=shock_date,
    )
    return inputs, config


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


@pytest.fixture
def data_dir() -> Path:
    assert DATA_DIR.exists(), "bundled fixture dataset is missing"
    return DATA_DIR
