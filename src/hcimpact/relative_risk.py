"""Relative-risk types and unemployment-dilution arithmetic.

Epidemiological studies report death / service-utilization relative
risks either for the unemployed subpopulation only ("undiluted") or
already spread over the whole working-age population ("diluted",
population-level). Undiluted risks are made comparable by diluting them
with the unemployment rate:

    effective_rr = 1 + unemployment_rate * (rr - 1)

A per-cohort lower/upper envelope of mortality risks is assembled from
heterogeneous study records, held as columns (:class:`StudyRecords`);
where source intervals are disjoint, a named policy decides which source
wins.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .grid import CohortGrid, frozen_array
from .population import MortalityTable

__all__ = [
    "LaborMarketState",
    "RelativeRisk",
    "MortalityRRTable",
    "ServiceValues",
    "UtilizationRRSet",
    "StudyRecord",
    "StudyRecords",
    "dilute_relative_risk",
    "apply_mortality_shock",
    "shock_death_probs",
    "build_rr_envelope",
    "SERVICES",
    "ENVELOPE_POLICIES",
]

#: Service codes of the expenditure typology, in canonical order; the
#: fields of :class:`ServiceValues` follow it.
SERVICES = ("H", "P", "S", "GP", "R", "m")

ENVELOPE_POLICIES = ("population_level", "hull")

#: Names of the two envelope bounds, as selectors and as manifest-key suffixes.
BOUNDS = ("lower", "upper")


@dataclass(frozen=True)
class LaborMarketState:
    """Labor-market snapshot; only the unemployment rate enters the model."""

    unemployment_rate: float

    def __post_init__(self) -> None:
        w = self.unemployment_rate
        if not np.isfinite(w) or not (0.0 <= w <= 1.0):
            raise ValidationError(f"unemployment rate must be in [0, 1], got {w}")


@dataclass(frozen=True)
class RelativeRisk:
    """A dimensionless risk ratio.

    ``diluted`` is True once the value has been spread over the whole
    working-age population and can be applied to aggregate rates.
    """

    value: float
    diluted: bool = False

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value < 0.0:
            raise ValidationError(f"relative risk must be finite and >= 0, got {self.value}")


def _dilute(rr, w: float):
    """``1 + w * (rr - 1)`` of a risk or an array of risks, at unemployment rate ``w``.

    At ``w == 1`` everyone is unemployed and the population-level risk IS
    the study risk; the formula would lose tiny ``rr`` to cancellation in
    ``rr - 1``.
    """
    return rr if w == 1.0 else 1.0 + w * (rr - 1.0)


def dilute_relative_risk(rr: RelativeRisk, labor: LaborMarketState) -> RelativeRisk:
    """Spread an unemployed-only relative risk over the working-age population.

    Returns ``1 + w * (rr - 1)`` flagged as diluted, where ``w`` is the
    unemployment rate. No presentation rounding is applied here.
    """
    if rr.diluted:
        raise ValidationError("relative risk is already diluted")
    return RelativeRisk(_dilute(rr.value, labor.unemployment_rate), diluted=True)


@dataclass(frozen=True, eq=False)
class MortalityRRTable:
    """Per-cohort lower and upper diluted mortality relative risks."""

    grid: CohortGrid
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        shape = (self.grid.n_cohorts,)
        lo = frozen_array(self.lower, shape, "lower bounds")
        hi = frozen_array(self.upper, shape, "upper bounds")
        if np.any(lo > hi):
            raise ValidationError("lower bound exceeds upper bound for some cohort")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def uniform(cls, grid: CohortGrid, value: float) -> "MortalityRRTable":
        """A table with the same risk for every cohort (sensitivity-grid use)."""
        v = np.full(grid.n_cohorts, float(value))
        return cls(grid=grid, lower=v, upper=v)

    def select(self, bound: str) -> np.ndarray:
        if bound not in BOUNDS:
            raise ValidationError(f"unknown bound selection {bound!r}; use 'lower' or 'upper'")
        return getattr(self, bound)


@dataclass(frozen=True)
class ServiceValues:
    """One value per service type; field ``i`` holds service ``SERVICES[i]``.

    Subclasses name what the values are (``_label``) and the closed range
    each must lie in (``_range``, described by ``_range_text``); every
    value is checked on construction.
    """

    hospital: float
    pharmaceutical: float
    specialist: float
    general_practice: float
    rehabilitation: float
    minor: float

    _label = "value"
    _range, _range_text = (0.0, np.inf), "finite and >= 0"

    def __post_init__(self) -> None:
        lo, hi = self._range
        for code in SERVICES:
            v = self.for_service(code)
            if not np.isfinite(v) or not (lo <= v <= hi):
                raise ValidationError(f"{self._label} for {code} must be {self._range_text}")

    def for_service(self, code: str) -> float:
        if code not in _FIELDS:
            raise ValidationError(f"unknown service code {code!r}")
        return float(getattr(self, _FIELDS[code]))


#: The :class:`ServiceValues` field that holds each service code, in the order of :data:`SERVICES`.
_FIELDS = {code: field.name for code, field in zip(SERVICES, fields(ServiceValues))}


class UtilizationRRSet(ServiceValues):
    """Diluted utilization relative risks per service type.

    Pharmaceutical, rehabilitation and minor services default to 1.00
    (no epidemiological signal available for them).
    """

    _label = "utilization RR"

    def __init__(
        self,
        hospital: float,
        specialist: float,
        general_practice: float,
        pharmaceutical: float = 1.0,
        rehabilitation: float = 1.0,
        minor: float = 1.0,
    ) -> None:
        super().__init__(
            hospital, pharmaceutical, specialist, general_practice, rehabilitation, minor
        )


def shock_death_probs(table: MortalityTable, rr: np.ndarray, window: int) -> np.ndarray:
    """Death probabilities at one grid date rescaled by per-cohort risks.

    PD'(a) = PD(a, window) * rr[a], clamped to [0, 1] since PD is a
    probability. ``rr`` is one risk vector or a ``(k, cohorts)`` stack of
    them, and the result has the same shape.
    """
    rr = np.asarray(rr, dtype=float)
    if rr.ndim > 2 or rr.shape[-1:] != (table.grid.n_cohorts,):
        raise ValidationError(
            f"risk vector has {rr.shape} entries, grid has {table.grid.n_cohorts} cohorts"
        )
    if np.any(~np.isfinite(rr)) or np.any(rr < 0.0):
        raise ValidationError("risk vector must be finite and >= 0")
    return np.clip(table.at(window) * rr, 0.0, 1.0)


def apply_mortality_shock(
    table: MortalityTable, rr: np.ndarray, window: int
) -> MortalityTable:
    """Copy of the table with its ``window`` column shocked (:func:`shock_death_probs`)."""
    column = shock_death_probs(table, rr, window)
    shocked = table.death_prob.copy()
    shocked[:, table.grid.date_index(window)] = column
    return MortalityTable(grid=table.grid, death_prob=shocked)


@dataclass(frozen=True)
class StudyRecord:
    """One source interval for the mortality-risk envelope.

    ``age_lo``/``age_hi`` delimit the ages the study covers; a cohort is
    covered when its start age falls inside. ``diluted`` marks values
    already expressed at population level.
    """

    age_lo: int
    age_hi: int
    rr_lower: float
    rr_upper: float
    diluted: bool
    source: str = ""

    def __post_init__(self) -> None:
        StudyRecords.of([self])  # the record as one row of columns, checked as such


def _ages(values) -> np.ndarray:
    """Ages as int64, or as Python ints (exact past int64) where int64 would not hold them."""
    ages = np.array(values)
    if ages.dtype == object:  # Python ints, int64 where it holds them all
        ages = np.array(ages.tolist())
    return ages if ages.dtype.kind == "i" else np.array(values, object)


def first_bad_record(age_lo, age_hi, rr) -> tuple[int, str]:
    """The first row of study-record columns with an inverted age range or
    an ``rr`` row not ``0 <= lower <= upper < inf``, and its error; else ``(rows, "")``."""
    lower, upper = rr.T
    inverted = age_lo > age_hi
    bad = inverted | ~((0.0 <= lower) & (lower <= upper) & np.isfinite(upper))
    if not bad.any():
        return len(bad), ""
    row = int(bad.argmax())
    lo, hi = rr[row].tolist()
    return row, "record age range is inverted" if inverted[row] else (
        f"record bounds must satisfy 0 <= lower <= upper, got [{lo}, {hi}]")


@dataclass(frozen=True, eq=False)
class StudyRecords(Sequence[StudyRecord]):
    """Study records as columns: ``age_lo`` and ``age_hi``, ``rr`` (one
    ``(lower, upper)`` row per record), ``diluted`` and ``source``.

    Each column is copied and write-protected, and the first bad row
    :func:`first_bad_record` finds raises that record's error. As a
    sequence it yields one :class:`StudyRecord` per row, built when asked for.
    """

    age_lo: np.ndarray
    age_hi: np.ndarray
    rr: np.ndarray
    diluted: np.ndarray
    source: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.source)
        columns = {"age_lo": _ages(self.age_lo), "age_hi": _ages(self.age_hi),
                   "rr": np.array(self.rr, dtype=float), "diluted": np.array(self.diluted, bool)}
        for name, column in columns.items():
            shape = (n, 2) if name == "rr" else (n,)
            if column.shape != shape:
                raise ValidationError(f"study records: {name} has shape {column.shape}, "
                                      f"expected {shape}")
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        object.__setattr__(self, "source", tuple(self.source))
        _, problem = first_bad_record(self.age_lo, self.age_hi, self.rr)
        if problem:
            raise ValidationError(problem)

    @classmethod
    def of(cls, records: Iterable[StudyRecord]) -> "StudyRecords":
        """The columns of ``records``."""
        rs = list(records)
        return cls([r.age_lo for r in rs], [r.age_hi for r in rs],
                   np.array([(r.rr_lower, r.rr_upper) for r in rs], dtype=float).reshape(-1, 2),
                   [r.diluted for r in rs], [r.source for r in rs])

    def __len__(self) -> int:
        return len(self.source)

    def __getitem__(self, k: int) -> StudyRecord:
        lower, upper = self.rr[k].tolist()
        return StudyRecord(self.age_lo.item(k), self.age_hi.item(k), lower, upper,
                           bool(self.diluted[k]), self.source[k])


def build_rr_envelope(
    records: Sequence[StudyRecord],
    labor: LaborMarketState,
    grid: CohortGrid,
    policy: str = ENVELOPE_POLICIES[0],
) -> MortalityRRTable:
    """Assemble the per-cohort mortality-risk envelope from study records.

    ``records`` is a :class:`StudyRecords`, or any sequence of
    :class:`StudyRecord`, which is read into one. All records are first
    normalized to diluted form. Per cohort, the
    envelope is the intersection of the covering intervals
    (max of lowers, min of uppers). Where the intervals are disjoint the
    ``policy`` decides:

    * ``"population_level"`` (default): the interval of the records that
      arrived already diluted wins;
    * ``"hull"``: the convex hull (min of lowers, max of uppers).
    """
    if policy not in ENVELOPE_POLICIES:
        raise ValidationError(
            f"unknown envelope policy {policy!r}; valid: {', '.join(ENVELOPE_POLICIES)}"
        )
    if not isinstance(records, StudyRecords):
        records = StudyRecords.of(records)
    if not len(records):
        raise ValidationError("empty record set")
    starts, w = np.array(grid.cohort_starts), labor.unemployment_rate
    # [first, last) are the cohorts whose start age a record covers; ages
    # past int64 are Python ints, which compare exactly
    first = np.searchsorted(starts, records.age_lo, "left")
    last = np.searchsorted(starts, records.age_hi, "right")
    diluted = records.diluted
    cohort = np.arange(grid.n_cohorts)[:, None]
    covering = (first <= cohort) & (cohort < last)  # (cohorts, records)
    lower, upper = np.where(diluted[:, None], records.rr, _dilute(records.rr, w)).T
    # A bound outside a cohort's records stands as the identity of the
    # reduction, -inf for a max and inf for a min, which no record bound is.

    def intersection(mask):  # max of lowers, min of uppers over each cohort's records
        return (np.where(mask, lower, -np.inf).max(axis=1),
                np.where(mask, upper, np.inf).min(axis=1))

    lo, hi = intersection(covering)
    disjoint = lo > hi  # disjoint source intervals
    uncovered = ~covering.any(axis=1)
    if policy == "hull":
        lo = np.where(disjoint, np.where(covering, lower, np.inf).min(axis=1), lo)
        hi = np.where(disjoint, np.where(covering, upper, -np.inf).max(axis=1), hi)
        failed = uncovered
    else:
        pop_level = covering & diluted
        pop_lo, pop_hi = intersection(pop_level)
        lo, hi = np.where(disjoint, pop_lo, lo), np.where(disjoint, pop_hi, hi)
        failed = uncovered | (disjoint & ~(pop_level.any(axis=1) & (pop_lo <= pop_hi)))
    if failed.any():
        i = int(failed.argmax())  # the first failing cohort, as a loop over them finds it
        label = grid.cohort_label(i)
        if uncovered[i]:
            raise ValidationError(f"no study record covers cohort {label}")
        if not pop_level[i].any():
            raise ValidationError(
                f"disjoint intervals for cohort {label} and no "
                "population-level record to fall back on"
            )
        raise ValidationError(f"population-level records disagree for cohort {label}")
    return MortalityRRTable(grid=grid, lower=lo, upper=hi)
