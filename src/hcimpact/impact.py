"""Differential crisis-impact estimators and the sensitivity sweep.

The two estimators difference the same expenditure functional at the
shock date under a perturbed versus a base input, everything else held
identical:

* mortality impact: base mortality table versus the table rescaled by
  per-cohort relative risks at the shock date only;
* utilization impact: base cost profile versus the profile uniformly
  rescaled by the service-mix factor.

Because both evaluations share model, population and parameters, any
systematic error nets out and the difference is exactly zero when the
perturbation is trivial.

There is one evaluation path, :func:`sensitivity_grid`, and it evaluates
the shock date only; a single scenario (:func:`cri`, :func:`crimi`,
:func:`criui`) is its one-cell case. Every model is linear in the cost
profile and in the population, so each value is the contraction of one
head-count column with one weight row, and the whole grid is one
contraction of a stack of 1 + RR + RF rows per model (base, shocked,
rescaled). The grid comes back as a :class:`GridResult`: ``crimi``
depends only on (model, population, RR) and ``criui`` only on (model,
population, RF), so it keeps those two arrays plus the axes, and builds
each cell's :class:`GridRow` on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import NumericalError, ValidationError
from .expenditure import (
    CostProfile,
    DSRatioProfile,
    ExpenditureShares,
    ModelParameters,
    contract,
    model_weights,
    require_same_grid,
    rescaling_factor,
)
from .grid import CohortGrid, frozen_array
from .population import MortalityTable, PopulationPath
from .relative_risk import BOUNDS, MortalityRRTable, UtilizationRRSet, shock_death_probs

__all__ = [
    "ScenarioConfig",
    "ScenarioInputs",
    "ImpactResult",
    "GridRow",
    "GridResult",
    "crimi",
    "criui",
    "cri",
    "sensitivity_grid",
    "impact_row",
    "parse_selector",
    "gdp_share_pct",
]


def parse_selector(text: str) -> str | float:
    """Parse a bound selector: ``lower``, ``upper`` or a uniform numeric value."""
    t = text.strip()
    if t in BOUNDS:
        return t
    try:
        return float(t)
    except ValueError:
        raise ValidationError(
            f"selector {text!r} is neither 'lower', 'upper' nor a number"
        ) from None


def gdp_share_pct(value_eur_m, gdp_eur_m: float | None):
    """Express an EUR-millions value (a number or an array) as a percentage of GDP;
    a share that is not finite (of a subnormal GDP) is a ``ValidationError``."""
    if gdp_eur_m is None:
        raise ValidationError("no GDP available at the evaluation date")
    if not math.isfinite(gdp_eur_m) or gdp_eur_m <= 0.0:
        raise ValidationError(f"GDP must be positive, got {gdp_eur_m}")
    with np.errstate(over="ignore"):  # a subnormal GDP overflows the share
        share = value_eur_m / gdp_eur_m * 100.0
    if not np.all(np.isfinite(share)):
        raise ValidationError(f"the share of GDP {gdp_eur_m} EUR millions is not finite")
    return share


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to evaluate one crisis scenario against its base.

    The unemployment rate and the envelope policy are not fields here:
    they shape the risk tables of :class:`ScenarioInputs` when those are
    loaded (see :meth:`hcimpact.manifest.RunManifest.load_inputs`).
    """

    population: str
    model: str
    cost_profile: str
    ds_scenario: str
    rr_selection: str | float = "upper"
    rf_selection: str | float = "upper"
    shock_date: int = 2015


@dataclass(frozen=True, eq=False)
class ScenarioInputs:
    """Resolved data bundle the estimators draw from.

    The populations, cost profiles and D/S profiles are read-only
    mappings by id; as loaded from files they are
    :class:`~hcimpact.grid.Tables`, which build each object when it is
    looked up, so only the ids a run uses are built and checked.
    """

    grid: CohortGrid
    populations: Mapping[str, PopulationPath]
    mortality: MortalityTable
    rr_mortality: MortalityRRTable
    rr_utilization: Mapping[str, UtilizationRRSet]  # keyed "lower" / "upper"
    cost_profiles: Mapping[str, CostProfile]
    ds_profiles: Mapping[str, DSRatioProfile]
    shares: ExpenditureShares
    params: ModelParameters = ModelParameters()


def _resolve(mapping: Mapping[str, object], key: str, what: str):
    try:
        return mapping[key]
    except KeyError:
        valid = ", ".join(sorted(map(str, mapping))) or "(none)"
        raise ValidationError(f"unknown {what} {key!r}; valid ids: {valid}") from None


def _rr_vector(selection: str | float, inputs: ScenarioInputs) -> np.ndarray:
    if isinstance(selection, str):
        return inputs.rr_mortality.select(selection)
    return np.full(inputs.grid.n_cohorts, float(selection))


def resolve_rf(selection: str | float, inputs: ScenarioInputs) -> float:
    """The rescaling factor of a utilization selector: a bound name or a number."""
    if isinstance(selection, str):
        if selection not in inputs.rr_utilization:
            raise ValidationError(
                f"no utilization risk set {selection!r}; valid ids: "
                f"{', '.join(sorted(inputs.rr_utilization))}"
            )
        return rescaling_factor(inputs.shares, inputs.rr_utilization[selection])
    rf = float(selection)
    if not np.isfinite(rf) or rf < 0.0:
        raise ValidationError(f"uniform rescaling factor must be >= 0, got {rf}")
    return rf


@dataclass(frozen=True)
class ImpactResult:
    """Differential impact at the evaluation date, EUR millions."""

    date: int
    crimi: float
    criui: float
    gdp: float | None = None  # GDP at the evaluation date, EUR millions

    def __post_init__(self) -> None:
        if not math.isfinite(self.crimi) or not math.isfinite(self.criui):
            raise NumericalError("impact components must be finite")

    @property
    def cri(self) -> float:
        return self.crimi + self.criui

    @property
    def crimi_gdp_pct(self) -> float:
        return gdp_share_pct(self.crimi, self.gdp)

    @property
    def criui_gdp_pct(self) -> float:
        return gdp_share_pct(self.criui, self.gdp)

    @property
    def cri_gdp_pct(self) -> float:
        return gdp_share_pct(self.cri, self.gdp)


def crimi(config: ScenarioConfig, inputs: ScenarioInputs) -> float:
    """Mortality-impact differential at the shock date, EUR millions.

    The perturbed evaluation uses a mortality table rescaled at the
    shock date only; all other inputs are the base ones. Note the model
    asymmetry: mortality reaches PD and CH only through the population
    path, which at the shock date predates the shock's survival effect,
    so their mortality impact is exactly zero there and the DC model
    carries the whole effect.
    """
    return cri(config, inputs).crimi


def criui(config: ScenarioConfig, inputs: ScenarioInputs) -> float:
    """Utilization-impact differential at the shock date, EUR millions.

    Equals (RF - 1) times base expenditure since every model is linear
    in the cost profile; computed here by the double evaluation to keep
    the identity assertable rather than assumed.
    """
    return cri(config, inputs).criui


def cri(config: ScenarioConfig, inputs: ScenarioInputs) -> ImpactResult:
    """Both impact components from one shared base evaluation."""
    return impact_row(config, inputs).result


def impact_row(config: ScenarioConfig, inputs: ScenarioInputs) -> GridRow:
    """One scenario against its base: the one-cell :func:`sensitivity_grid`."""
    axes = [config.rr_selection], [config.rf_selection], [config.model], [config.population]
    return sensitivity_grid(config, inputs, *axes)[0]


@dataclass(frozen=True)
class GridRow:
    """One sensitivity-grid cell: its coordinates plus the impact result."""

    model: str
    pop_scenario: str
    rr_selector: str | float
    rf: float  # resolved numeric rescaling factor
    result: ImpactResult


@dataclass(frozen=True, eq=False)
class GridResult(Sequence[GridRow]):
    """A sensitivity grid as columns: its axes, the read-only arrays
    ``crimi[model, pop, rr]`` and ``criui[model, pop, rf]``, the date and
    the GDP there. As a sequence it yields one :class:`GridRow` per cell
    in (model, population, RR, RF) order, built when asked for.
    """

    models: tuple[str, ...]
    pop_scenarios: tuple[str, ...]
    rr_values: tuple[str | float, ...]
    rfs: tuple[float, ...]  # resolved numeric rescaling factors
    date: int
    gdp: float | None  # EUR millions
    crimi: np.ndarray
    criui: np.ndarray

    def __post_init__(self) -> None:
        if not (np.isfinite(self.crimi).all() and np.isfinite(self.criui).all()):
            raise NumericalError("impact components must be finite")
        m, p, r, f = self.shape
        for name, shape in (("crimi", (m, p, r)), ("criui", (m, p, f))):
            values = frozen_array(getattr(self, name), shape, name, lo=-math.inf)
            object.__setattr__(self, name, values)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return len(self.models), len(self.pop_scenarios), len(self.rr_values), len(self.rfs)

    @property
    def cri(self) -> np.ndarray:
        """CRI of every cell, shaped :attr:`shape`: the same sum as :attr:`ImpactResult.cri`."""
        return self.crimi[:, :, :, None] + self.criui[:, :, None, :]

    def __len__(self) -> int:
        return self.crimi.size * len(self.rfs)

    def __getitem__(self, k: int) -> GridRow:
        n, n_rf = len(self), len(self.rfs)
        if not -n <= k < n:
            raise IndexError(f"grid cell {k} out of range for {n} cells")
        mpr, f = divmod(k % n, n_rf)
        mp, r = divmod(mpr, len(self.rr_values))
        m, p = divmod(mp, len(self.pop_scenarios))
        crimi, criui = self.crimi.item(mpr), self.criui.item(mp * n_rf + f)
        result = ImpactResult(self.date, crimi, criui, self.gdp)
        return GridRow(self.models[m], self.pop_scenarios[p], self.rr_values[r], self.rfs[f], result)


def sensitivity_grid(
    base: ScenarioConfig,
    inputs: ScenarioInputs,
    rr_values: Sequence[str | float],
    rf_values: Sequence[str | float],
    models: Sequence[str],
    pop_scenarios: Sequence[str],
) -> GridResult:
    """Evaluate the full Cartesian product of scenario overrides.

    Axis entries for the risk selections are either the bound names of
    the input tables or uniform-across-cohorts numeric values; the other
    fields come from ``base``. Rows come out in deterministic
    axis-coordinate order (model, population, mortality RR, RF).

    Every input is validated once per grid and only the shock date is
    evaluated, as one array program. One
    :func:`~hcimpact.expenditure.model_weights` call per model gives a stack
    of 1 + RR + RF weight rows: the base row, the shocked row of each RR
    selector and the rescaled row of each RF-scaled cost row, stacked as
    ``(models, 1, rows, cohorts)``. The head-counts at the shock date are
    stacked as ``(pops, 1, cohorts)``, so one
    :func:`~hcimpact.expenditure.contract` call gives every value as
    ``(models, pops, rows)``, and ``crimi`` and ``criui`` are one subtraction
    each. The rescaled value is a real evaluation, not ``(RF - 1) * base``.
    """
    for name, axis in (
        ("models", models),
        ("population scenarios", pop_scenarios),
        ("mortality RR values", rr_values),
        ("RF values", rf_values),
    ):
        if len(axis) == 0:
            raise ValidationError(f"empty sensitivity axis: {name}")
    pops = [_resolve(inputs.populations, p, "population scenario") for p in pop_scenarios]
    costs: CostProfile = _resolve(inputs.cost_profiles, base.cost_profile, "cost profile")
    ds: DSRatioProfile = _resolve(inputs.ds_profiles, base.ds_scenario, "D/S scenario")
    mortality = inputs.mortality
    grid = require_same_grid(mortality, costs, ds, *pops)
    t = base.shock_date
    if t not in grid.dates:
        raise ValidationError(f"date {t} not on the expenditure path")
    j = grid.date_index(t)

    rr = np.array([_rr_vector(r, inputs) for r in rr_values])
    numeric = rr[[not isinstance(r, str) for r in rr_values]]
    frozen_array(numeric, numeric.shape, "lower bounds")  # the numeric RR selectors, at once
    shocked = shock_death_probs(mortality, rr, t)
    rfs = [resolve_rf(r, inputs) for r in rf_values]
    n_rr, pd5 = len(rr_values), mortality.death_prob[:, j]
    # one row per evaluation: the base, then each RR selector's shock, then each RF
    with np.errstate(over="ignore"):  # an overflow is contract's finiteness error
        cost_rows = costs.values * np.array([1.0] * (1 + n_rr) + rfs)[:, None]
    probs = np.vstack([pd5, shocked, *[pd5] * len(rfs)])
    # a shock at the base date also moves DC's survivor/decedent split
    base_probs = probs if j == 0 else mortality.death_prob[:, 0]
    params = inputs.params
    gdp = None if params.gdp is None else params.gdp.get(t)
    weights = np.stack([model_weights(m, grid, t, params, cost_rows, ds.values, base_probs, probs)
                        for m in models])[:, None]  # (models, 1, rows, cohorts)
    counts = np.stack([pop.counts[:, j] for pop in pops])[:, None]  # (pops, 1, cohorts)
    values = contract(counts, weights, len(probs))  # (models, pops, rows)
    value, shocked_values, rescaled_values = np.split(values, [1, 1 + n_rr], axis=-1)
    return GridResult(tuple(models), tuple(pop_scenarios), tuple(rr_values), tuple(rfs),
                      t, gdp, shocked_values - value, rescaled_values - value)
