"""Econometric expenditure models and the cost machinery behind them.

Three variants of the expenditure functional are implemented, all linear
in the cost profile and in the population:

* PD (pure demographic): expenditure = sum over cohorts of
  head-count x utilization x per-capita cost;
* CH (constant health): as PD, but each cohort is priced at an effective
  age shifted younger as general health improves over time;
* DC (death-related costs): per-capita cost split once into survivor and
  decedent components, then re-weighted by the annualized death
  probability of the evaluation date.

Units are fixed package-wide: populations in thousands of persons,
per-capita costs in EUR/person/year, expenditure in EUR millions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NumericalError, ValidationError
from .grid import COHORT_WIDTH, CohortGrid, frozen_array
from .population import MortalityTable, PopulationPath, annualized
from .relative_risk import SERVICES, ServiceValues, UtilizationRRSet

__all__ = [
    "CostProfile",
    "DSRatioProfile",
    "ExpenditureShares",
    "ExpenditurePath",
    "ModelParameters",
    "MODELS",
    "expenditure_pd",
    "expenditure_ch",
    "expenditure_dc",
    "decompose_costs",
    "rescaling_factor",
    "evaluate_model",
    "model_weights",
    "contract",
    "PUBLISHED_RF_RANGE",
]

MODELS = ("PD", "CH", "DC")

# thousands of persons x EUR/person -> EUR millions
_TO_EUR_MILLIONS = 1e-3

#: Reference range published alongside the source data for the rescaling
#: factor. The weighted-sum arithmetic over the default shares and diluted
#: risk bounds gives (1.02715, 1.07694) instead; the constant is kept for
#: comparison only and never enters any computation.
PUBLISHED_RF_RANGE = (1.045, 1.095)


@dataclass(frozen=True, eq=False)
class CostProfile:
    """Age-related per-capita public healthcare cost, EUR/person/year."""

    profile_id: str
    grid: CohortGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = frozen_array(self.values, (self.grid.n_cohorts,), "cost profile")
        object.__setattr__(self, "values", v)

    def scaled(self, factor: float) -> "CostProfile":
        """Uniformly rescaled copy (utilization-impact route)."""
        if not np.isfinite(factor) or factor < 0.0:
            raise ValidationError(f"cost scale factor must be >= 0, got {factor}")
        return CostProfile(self.profile_id, self.grid, self.values * factor)


@dataclass(frozen=True, eq=False)
class DSRatioProfile:
    """Last-year-of-life vs same-age-survivor cost ratio, per cohort."""

    scenario: str
    grid: CohortGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = frozen_array(self.values, (self.grid.n_cohorts,), "D/S ratios")
        if np.any(v <= 0.0):
            raise ValidationError("D/S ratios must be > 0")
        object.__setattr__(self, "values", v)


class ExpenditureShares(ServiceValues):
    """Fractions of total public healthcare expenditure by service type."""

    _label = "share"
    _range, _range_text = (0.0, 1.0), "in [0, 1]"

    def __post_init__(self) -> None:
        super().__post_init__()
        total = sum(self.for_service(code) for code in SERVICES)
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"shares must sum to 1 within 1e-9, got {total!r}")


@dataclass(frozen=True, eq=False)
class ExpenditurePath:
    """Total public healthcare expenditure per projection date, EUR millions."""

    model: str
    scenario: str
    dates: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        v = frozen_array(self.values, (len(self.dates),), "expenditure")
        object.__setattr__(self, "values", v)

    def value_at(self, date: int) -> float:
        try:
            return float(self.values[self.dates.index(date)])
        except ValueError:
            raise ValidationError(f"date {date} not on the expenditure path") from None


@dataclass(frozen=True, eq=False)
class ModelParameters:
    """Residual parameter bundle shared by all expenditure models.

    ``utilization`` is a dimensionless per-cohort multiplier, checked once
    and kept as a float or a read-only vector (default 1 everywhere, as is ``None``).
    ``health_improvement_rate`` is the effective-age drift in years of age
    per calendar year (default 0.25, i.e. three months over year). ``gdp``
    maps projection dates to GDP in EUR millions and is only used for share
    reporting.
    """

    utilization: float | np.ndarray | None = 1.0
    health_improvement_rate: float = 0.25
    gdp: Mapping[int, float] | None = None

    def __post_init__(self) -> None:
        r = self.health_improvement_rate
        if not np.isfinite(r) or r < 0.0:
            raise ValidationError(f"health-improvement rate must be >= 0, got {r}")
        if self.gdp is not None:
            for date, v in self.gdp.items():
                if not np.isfinite(v) or v <= 0.0:
                    raise ValidationError(f"GDP must be positive, got {v} at {date}")
        u = 1.0 if self.utilization is None else self.utilization
        u = frozen_array(u, np.shape(u)[:1], "utilization scaling")
        object.__setattr__(self, "utilization", float(u) if u.ndim == 0 else u)


def require_same_grid(*objs) -> CohortGrid:
    """The cohort grid all ``objs`` share; ``ValidationError`` if they differ."""
    grids = [o.grid for o in objs]
    for g in grids[1:]:
        if g != grids[0]:
            raise ValidationError("inputs do not share the same cohort grid")
    return grids[0]


def model_weights(
    model: str,
    grid: CohortGrid,
    date: int | np.ndarray,
    params: ModelParameters,
    costs: np.ndarray,
    ds: np.ndarray | None = None,
    pd5_base: np.ndarray | None = None,
    pd5: np.ndarray | None = None,
) -> np.ndarray:
    """Per-capita weights ``u * cost`` of one model: its one formula.

    ``date`` is one date or a ``(rows, 1)`` column of them. ``costs`` is a
    cost row or a ``(rows, cohorts)`` stack of them. DC also takes the D/S
    ratios and the 5-year death probabilities at the base date and at
    ``date`` (rows or stacks). Row r of each stack pairs with row r of the
    others, so the result has the broadcast shape of the arguments.
    Expenditure at ``date`` is :func:`contract` of the head-counts with
    each weight row, which also reports a weight that overflowed.
    """
    u, n = params.utilization, (grid.n_cohorts,)
    if isinstance(u, np.ndarray) and u.shape != n:
        raise ValidationError(f"utilization scaling: shape {u.shape}, expected {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        if model == "PD":
            return u * costs
        if model == "CH":
            mids = np.array(grid.cohort_starts) + COHORT_WIDTH / 2.0
            ages = mids - params.health_improvement_rate * (date - grid.base_date)
            ages, costs = np.broadcast_arrays(ages, costs)
            rows = zip(ages.reshape(-1, *n), costs.reshape(-1, *n))
            return u * np.reshape([np.interp(a, mids, c) for a, c in rows], ages.shape)
        if model == "DC":
            s, d = _split_costs(costs, ds, annualized(pd5_base))
            pd1 = annualized(pd5)
            return u * (s * (1.0 - pd1) + d * pd1)
    raise ValidationError(f"unknown model {model!r}; valid ids: {', '.join(MODELS)}")


def contract(counts: np.ndarray, weights: np.ndarray, rows: int = 1) -> np.ndarray:
    """Expenditure, EUR millions, of head-count columns under weight rows.

    ``weights`` broadcasts to ``(..., rows, cohorts)`` and ``counts`` (one
    column, or a stack of them shaped ``(..., 1, cohorts)`` or ``(...,
    rows, cohorts)``) broadcasts over its leading axes; each row is
    multiplied by its column and summed along the cohort axis. The product
    is laid out in C order, so the cohort axis is contiguous and numpy sums
    every row in the same order whatever the leading shape or the inputs'
    strides: a value is bit-identical whether it is computed alone or
    inside a stack. An overflow is reported by the one finiteness check,
    not by a numpy warning.
    """
    stack = np.broadcast_to(weights, weights.shape[:-2] + (rows, counts.shape[-1]))
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.multiply(stack, counts, order="C").sum(axis=-1) * _TO_EUR_MILLIONS
    if not np.all(np.isfinite(values)):
        raise ValidationError("expenditure must be finite at every date")
    return values


def _path(model, grid, pop, costs, params, ds=None, mortality=None) -> ExpenditurePath:
    """Every date of ``model``'s path: one kernel call on the column of dates, one contraction."""
    dc = () if ds is None else (ds.values, mortality.death_prob[:, 0], mortality.death_prob.T)
    weights = model_weights(model, grid, np.array(grid.dates)[:, None], params, costs.values, *dc)
    values = contract(pop.counts.T[:, None], np.reshape(weights, (-1, 1, grid.n_cohorts)))
    return ExpenditurePath(model, pop.scenario, grid.dates, values[:, 0])


def expenditure_pd(
    pop: PopulationPath, costs: CostProfile, params: ModelParameters
) -> ExpenditurePath:
    """Pure-demographic expenditure: head-counts times per-capita costs."""
    return _path("PD", require_same_grid(pop, costs), pop, costs, params)


def expenditure_ch(
    pop: PopulationPath,
    costs: CostProfile,
    mortality: MortalityTable,
    params: ModelParameters,
) -> ExpenditurePath:
    """Constant-health expenditure: costs priced at a drifting effective age.

    At date t every cohort is priced at effective age
    ``midpoint - rate * (t - base_date)``; costs at non-cohort ages come
    from linear interpolation over cohort midpoints with flat
    extrapolation at both ends. The mortality table is validated for
    grid consistency; the drift rate itself is a parameter, so general
    health improvement enters through ``params``, not the table.
    """
    return _path("CH", require_same_grid(pop, costs, mortality), pop, costs, params)


def _split_costs(costs: np.ndarray, ds: np.ndarray, pd1: np.ndarray):
    denom = 1.0 + pd1 * (ds - 1.0)
    if np.any(denom <= 0.0):
        raise NumericalError("degenerate denominator in survivor/decedent cost split")
    s = costs / denom
    return s, ds * s


def decompose_costs(
    costs: CostProfile,
    ds: DSRatioProfile,
    mortality: MortalityTable,
    date: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Split per-capita costs into survivor and decedent components.

    With pd1 the annualized death probability at the base ``date``
    (default: first grid date), solve

        c(a) = s(a) * (1 - pd1(a)) + ds(a) * s(a) * pd1(a)

    for the survivor cost s(a); the decedent cost is d(a) = ds(a) * s(a).
    """
    grid = require_same_grid(costs, ds, mortality)
    if date is None:
        date = grid.base_date
    return _split_costs(costs.values, ds.values, mortality.annualized_at(date))


def expenditure_dc(
    pop: PopulationPath,
    costs: CostProfile,
    ds: DSRatioProfile,
    mortality: MortalityTable,
    params: ModelParameters,
) -> ExpenditurePath:
    """Death-related-costs expenditure.

    Survivor/decedent costs are solved once at the base date and held
    fixed; only the annualized death probability varies with the
    evaluation date, so a mortality shock moves expenditure through the
    expected number of decedents alone.
    """
    return evaluate_model("DC", pop, costs, ds, mortality, params)


def rescaling_factor(shares: ExpenditureShares, rrs: UtilizationRRSet) -> float:
    """Service-mix rescaling factor: share-weighted sum of utilization risks."""
    return float(sum(rrs.for_service(code) * shares.for_service(code) for code in SERVICES))


def evaluate_model(
    model: str,
    pop: PopulationPath,
    costs: CostProfile,
    ds: DSRatioProfile,
    mortality: MortalityTable,
    params: ModelParameters,
) -> ExpenditurePath:
    """The expenditure path of one of the models by tag (PD, CH or DC)."""
    grid = require_same_grid(pop, costs, ds, mortality)
    return _path(model, grid, pop, costs, params, ds=ds, mortality=mortality)
