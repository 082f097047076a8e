"""Population scenarios: mortality tables and cohort-component projection.

Exogenous scenario paths (PopMV, PopHV, PopLV, PopCFV) are loaded from
delimited files (see :mod:`hcimpact.io`); the two birth-rate scenarios
(PopSV variants) are simulated here with a cohort-component step:
survivors age one cohort per 5-year step, the open-ended top cohort
accumulates, and new entrants come from a crude birth rate applied to
the start-of-step total. No migration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import DATE_STEP, CohortGrid, frozen_array

__all__ = [
    "MortalityTable",
    "PopulationPath",
    "BirthRateScenario",
    "project_population",
    "annualized",
]


def annualized(pd5: np.ndarray) -> np.ndarray:
    """One-year death probabilities at a constant 5-year hazard: 1 - (1 - PD)^(1/5)."""
    return 1.0 - (1.0 - pd5) ** (1 / DATE_STEP)


@dataclass(frozen=True, eq=False)
class MortalityTable:
    """5-year death probabilities per cohort per projection date.

    ``death_prob[a, i]`` is the probability that a member of cohort ``a``
    at date ``dates[i]`` dies before ``dates[i] + 5``.
    """

    grid: CohortGrid
    death_prob: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_cohorts, self.grid.n_dates)
        dp = frozen_array(self.death_prob, shape, "death probabilities", hi=1.0)
        object.__setattr__(self, "death_prob", dp)

    def at(self, date: int) -> np.ndarray:
        """Death-probability column for one projection date."""
        return self.death_prob[:, self.grid.date_index(date)]

    def annualized_at(self, date: int) -> np.ndarray:
        """One-year death probabilities at ``date`` (see :func:`annualized`)."""
        return annualized(self.at(date))


@dataclass(frozen=True, eq=False)
class PopulationPath:
    """Head-counts per cohort per projection date for one scenario.

    Unit: thousands of persons.
    """

    scenario: str
    grid: CohortGrid
    counts: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_cohorts, self.grid.n_dates)
        object.__setattr__(self, "counts", frozen_array(self.counts, shape, "head-counts"))

    def at(self, date: int) -> np.ndarray:
        return self.counts[:, self.grid.date_index(date)]

    def total(self, date: int) -> float:
        return float(self.at(date).sum())


@dataclass(frozen=True)
class BirthRateScenario:
    """Crude birth rate: annual births as a fraction of total population."""

    name: str
    annual_rate: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.annual_rate) or self.annual_rate < 0.0:
            raise ValidationError("crude birth rate must be finite and >= 0")


def project_population(
    initial: np.ndarray,
    mortality: MortalityTable,
    births: BirthRateScenario,
    horizon: int | None = None,
) -> PopulationPath:
    """Project a single-date population forward with the cohort-component step.

    ``initial`` is the head-count vector (thousands) at the grid's first
    date. Per 5-year step from t to t+5:

    * cohort a+1 at t+5 = cohort a at t times (1 - PD(a, t));
    * the open-ended top cohort keeps its own survivors plus the
      survivors entering from the cohort below;
    * the new first cohort = crude birth rate x total(t) x 5, with no
      mortality applied to newborns inside their birth step.

    Deterministic: identical inputs give bit-identical paths.
    """
    grid = mortality.grid
    if grid.n_cohorts < 2:
        raise ValidationError("projection needs at least two cohorts to age into")
    if horizon is None:
        horizon = grid.dates[-1]
    last = grid.date_index(horizon)

    initial = frozen_array(initial, (grid.n_cohorts,), "initial head-counts")

    counts = np.zeros((grid.n_cohorts, last + 1))
    counts[:, 0] = initial
    with np.errstate(over="ignore", invalid="ignore"):  # PopulationPath rejects inf and nan
        for i in range(last):
            cur = counts[:, i]
            surv = cur * (1.0 - mortality.death_prob[:, i])
            counts[1:, i + 1] = surv[:-1]
            counts[-1, i + 1] += surv[-1]  # open-ended cohort accumulates its own survivors
            counts[0, i + 1] = births.annual_rate * cur.sum() * DATE_STEP

    path_grid = CohortGrid(grid.cohort_starts, grid.dates[: last + 1])
    return PopulationPath(scenario=births.name, grid=path_grid, counts=counts)
