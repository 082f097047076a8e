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

There is one evaluation path, :func:`sensitivity_grid`; a single
scenario (:func:`cri`, :func:`crimi`, :func:`criui`) is its one-cell
case. Every model is linear in the cost profile and in the population,
so each value is the contraction of one head-count column with one
weight row, and the whole grid is one contraction of a stack of dates +
RR + RF rows per model (the base at every date, shocked, rescaled). The
grid comes back as a :class:`GridResult`: ``crimi`` depends only on
(model, population, RR) and ``criui`` only on (model, population, RF),
so it keeps those two arrays, the base path and the axes, and builds
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
    the GDP there, and the base path ``base[model, pop, date]`` over
    ``dates`` (none by default). As a sequence it yields one :class:`GridRow`
    per cell in (model, population, RR, RF) order, built when asked for.
    """

    models: tuple[str, ...]
    pop_scenarios: tuple[str, ...]
    rr_values: tuple[str | float, ...]
    rfs: tuple[float, ...]  # resolved numeric rescaling factors
    date: int
    gdp: float | None  # EUR millions
    crimi: np.ndarray
    criui: np.ndarray
    dates: tuple[int, ...] = ()
    base: np.ndarray | None = None  # EUR millions

    def __post_init__(self) -> None:
        if not (np.isfinite(self.crimi).all() and np.isfinite(self.criui).all()):
            raise NumericalError("impact components must be finite")
        m, p, r, f = self.shape
        for name, shape in (("crimi", (m, p, r)), ("criui", (m, p, f)),
                            ("base", (m, p, len(self.dates)))):
            values = np.empty((m, p, 0)) if getattr(self, name) is None else getattr(self, name)
            object.__setattr__(self, name, frozen_array(values, shape, name, lo=-math.inf))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return len(self.models), len(self.pop_scenarios), len(self.rr_values), len(self.rfs)

    @property
    def cri(self) -> np.ndarray:
        """CRI of every cell, shaped :attr:`shape`: the same sum as :attr:`ImpactResult.cri`."""
        return self.crimi[:, :, :, None] + self.criui[:, :, None, :]

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, k: int) -> GridRow:
        n = len(self)
        if not -n <= k < n:
            raise IndexError(f"grid cell {k} out of range for {n} cells")
        m, p, r, f = np.unravel_index(k % n, self.shape)
        result = ImpactResult(self.date, self.crimi.item(m, p, r), self.criui.item(m, p, f), self.gdp)
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

    Every input is validated once per grid, and the grid is one array
    program. One :func:`~hcimpact.expenditure.model_weights` call per model
    gives a stack of dates + RR + RF weight rows: the base row at each
    date, then at the shock date the shocked row of each RR selector and
    the rescaled row of each RF-scaled cost row, stacked as ``(models, 1,
    rows, cohorts)``. Each row's head-counts are stacked as ``(pops, rows,
    cohorts)``, so one :func:`~hcimpact.expenditure.contract` call gives
    every value as ``(models, pops, rows)``: the base path, and ``crimi``
    and ``criui`` as one subtraction each of its value at the shock date.
    The rescaled value is a real evaluation, not ``(RF - 1) * base``.
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
    n_dates, n_rr, pd = grid.n_dates, len(rr_values), mortality.death_prob
    # a row per evaluation: the base at each date, then each RR and RF at the shock date
    cols = np.array([*range(n_dates)] + [j] * (n_rr + len(rfs)))
    with np.errstate(over="ignore"):  # an overflow is contract's finiteness error
        cost_rows = costs.values * np.array([1.0] * (n_dates + n_rr) + rfs)[:, None]
    probs = np.vstack([pd.T, shocked, *[pd[:, j]] * len(rfs)])
    # a shock at the base date also moves DC's survivor/decedent split
    base_probs = np.where(cols[:, None] == 0, probs, pd[:, 0])
    params = inputs.params
    gdp = None if params.gdp is None else params.gdp.get(t)
    dates, dc = np.array(grid.dates)[cols, None], (ds.values, base_probs, probs)
    weights = np.stack([model_weights(m, grid, dates, params, cost_rows, *dc)
                        for m in models])[:, None]  # (models, 1, rows, cohorts)
    counts = np.stack([pop.counts.T[cols] for pop in pops])  # (pops, rows, cohorts)
    values = contract(counts, weights, len(cols))  # (models, pops, rows)
    impacts = np.split(values[..., n_dates:] - values[..., j, None], [n_rr], -1)
    return GridResult(tuple(models), tuple(pop_scenarios), tuple(rr_values), tuple(rfs), t, gdp,
                      *impacts, grid.dates, values[..., :n_dates])
