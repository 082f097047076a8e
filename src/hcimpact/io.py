"""Delimited-text schemas: readers with line-numbered validation, writers
with fixed formatting.

All engine files are plain CSV. Numeric output is fixed at 6 significant
digits so reruns diff cleanly; every writer here has a matching reader
and written files re-parse verbatim.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .grid import COHORT_WIDTH, CohortGrid
from .expenditure import CostProfile, DSRatioProfile, ExpenditurePath, ExpenditureShares
from .impact import GridRow
from .population import MortalityTable, PopulationPath
from .relative_risk import (
    SERVICES,
    LaborMarketState,
    RelativeRisk,
    StudyRecord,
    UtilizationRRSet,
    dilute_relative_risk,
)

__all__ = [
    "read_population_csv",
    "population_csv_text",
    "mortality_csv_text",
    "impact_csv_text",
    "expenditure_csv_text",
    "series_csv_text",
    "load_exogenous_path",
    "write_population_csv",
    "read_mortality_csv",
    "write_mortality_csv",
    "read_rr_mortality_csv",
    "read_rr_utilization_csv",
    "read_cost_profiles_csv",
    "read_ds_ratios_csv",
    "read_shares_csv",
    "read_gdp_csv",
    "write_impact_csv",
    "read_impact_csv",
    "write_expenditure_csv",
    "read_expenditure_csv",
    "write_series_csv",
    "read_series_csv",
    "fmt_value",
    "selector_text",
    "IMPACT_COLUMNS",
]

IMPACT_COLUMNS = (
    "model",
    "pop_scenario",
    "rr_selector",
    "rf",
    "crimi_eur_m",
    "criui_eur_m",
    "cri_eur_m",
    "cri_gdp_pct",
)


def fmt_value(x: float) -> str:
    """Fixed delimited-file number format: 6 significant digits."""
    return format(float(x), ".6g")


def selector_text(sel: str | float) -> str:
    return sel if isinstance(sel, str) else fmt_value(sel)


def _fail(path, msg: str, line: int | None = None) -> None:
    where = f"{path}:{line}" if line is not None else str(path)
    raise ValidationError(f"{where}: {msg}")


@contextmanager
def open_text(path):
    """Open an input file as UTF-8 text for ``csv``; a leading BOM is dropped.

    A byte that does not decode, or a line ``csv`` cannot split, raises
    ``ValidationError`` naming the file (and the line of the bad byte).
    """
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError:
        raw = Path(path).read_bytes()
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(path, "not valid UTF-8", raw.count(b"\n", 0, exc.start) + 1)
        _fail(path, "not valid UTF-8")
    except csv.Error as exc:
        _fail(path, str(exc))


def _read_rows(path, required: Sequence[str], optional: Sequence[str] = ()):
    """Yield (line_number, row_dict) after validating the header."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"{path}: file does not exist")
    with open_text(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            _fail(path, "empty file, expected a header row")
        header = [h.strip() for h in reader.fieldnames]
        duplicate = sorted({h for h in header if header.count(h) > 1})
        if duplicate:
            _fail(path, f"duplicate column(s): {', '.join(duplicate)}")
        missing = [c for c in required if c not in header]
        if missing:
            _fail(path, f"missing required column(s): {', '.join(missing)}")
        unknown = [c for c in header if c not in (*required, *optional)]
        if unknown:
            _fail(path, f"unknown column(s): {', '.join(unknown)}")
        for row in reader:
            if row.get(None):
                _fail(path, "row has more fields than the header", reader.line_num)
            yield reader.line_num, {k.strip(): (v or "").strip() for k, v in row.items() if k}


def _parse_float(path, line: int, column: str, text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        _fail(path, f"column {column!r}: {text!r} is not a number", line)
    if not np.isfinite(v):
        _fail(path, f"column {column!r}: value must be finite", line)
    return v


def _parse_int(path, line: int, column: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        _fail(path, f"column {column!r}: {text!r} is not an integer", line)


def _parse_flag(path, line: int, column: str, text: str) -> bool:
    if text not in ("0", "1"):
        _fail(path, f"column {column!r}: expected 0 or 1, got {text!r}", line)
    return text == "1"


def _check_cohort_row(path, line: int, lo: int, hi: int) -> None:
    if hi - lo != COHORT_WIDTH - 1:
        _fail(path, f"cohort [{lo}, {hi}] is not a {COHORT_WIDTH}-year bin", line)


def _grid_from_cells(path, starts: set[int], dates: set[int]) -> CohortGrid:
    try:
        return CohortGrid(tuple(sorted(starts)), tuple(sorted(dates)))
    except ValidationError as exc:
        # date gaps and cohort gaps both surface here
        _fail(path, str(exc))


# ---------------------------------------------------------------- population

def read_population_csv(path) -> dict[str, PopulationPath]:
    """Parse every scenario of a population file, validating coverage."""
    cells: dict[str, dict[tuple[int, int], float]] = {}
    starts: set[int] = set()
    dates: set[int] = set()
    for line, row in _read_rows(
        path, ("scenario", "date", "cohort_lo", "cohort_hi", "count_thousands")
    ):
        scen = row["scenario"]
        if not scen:
            _fail(path, "empty scenario id", line)
        date = _parse_int(path, line, "date", row["date"])
        lo = _parse_int(path, line, "cohort_lo", row["cohort_lo"])
        hi = _parse_int(path, line, "cohort_hi", row["cohort_hi"])
        _check_cohort_row(path, line, lo, hi)
        count = _parse_float(path, line, "count_thousands", row["count_thousands"])
        if count < 0.0:
            _fail(path, f"negative head-count {count}", line)
        key = (lo, date)
        per = cells.setdefault(scen, {})
        if key in per:
            _fail(path, f"duplicate cell for scenario {scen}, cohort {lo}, date {date}", line)
        per[key] = count
        starts.add(lo)
        dates.add(date)
    if not cells:
        _fail(path, "no data rows")
    grid = _grid_from_cells(path, starts, dates)
    paths: dict[str, PopulationPath] = {}
    for scen, per in cells.items():
        counts = np.zeros((grid.n_cohorts, grid.n_dates))
        for i, start in enumerate(grid.cohort_starts):
            for j, date in enumerate(grid.dates):
                if (start, date) not in per:
                    _fail(
                        path,
                        f"scenario {scen}: missing cell for cohort "
                        f"{grid.cohort_label(i)} at date {date}",
                    )
                counts[i, j] = per[(start, date)]
        paths[scen] = PopulationPath(scenario=scen, grid=grid, counts=counts)
    return paths


def load_exogenous_path(name: str, source) -> PopulationPath:
    """Load one named exogenous scenario from a population file, verbatim."""
    paths = read_population_csv(source)
    if name not in paths:
        raise ValidationError(
            f"{source}: no scenario {name!r}; available: {', '.join(sorted(paths))}"
        )
    return paths[name]


def population_csv_text(paths: Iterable[PopulationPath]) -> str:
    lines = ["scenario,date,cohort_lo,cohort_hi,count_thousands"]
    for p in paths:
        g = p.grid
        for i in range(g.n_cohorts):
            lo, hi = g.cohort_bounds(i)
            for j, date in enumerate(g.dates):
                lines.append(
                    f"{p.scenario},{date},{lo},{hi},{fmt_value(p.counts[i, j])}"
                )
    return "\n".join(lines) + "\n"


def write_population_csv(paths: Iterable[PopulationPath], out) -> None:
    Path(out).write_text(population_csv_text(paths))


# ----------------------------------------------------------------- mortality

def read_mortality_csv(path) -> MortalityTable:
    cells: dict[tuple[int, int], tuple[float, float | None]] = {}
    starts: set[int] = set()
    dates: set[int] = set()
    has_le = False
    for line, row in _read_rows(
        path, ("date", "cohort_lo", "cohort_hi", "pd_5yr"), optional=("life_expectancy",)
    ):
        date = _parse_int(path, line, "date", row["date"])
        lo = _parse_int(path, line, "cohort_lo", row["cohort_lo"])
        hi = _parse_int(path, line, "cohort_hi", row["cohort_hi"])
        _check_cohort_row(path, line, lo, hi)
        pd5 = _parse_float(path, line, "pd_5yr", row["pd_5yr"])
        if not (0.0 <= pd5 <= 1.0):
            _fail(path, f"death probability {pd5} outside [0, 1]", line)
        le = None
        if row.get("life_expectancy"):
            le = _parse_float(path, line, "life_expectancy", row["life_expectancy"])
            has_le = True
        if (lo, date) in cells:
            _fail(path, f"duplicate cell for cohort {lo}, date {date}", line)
        cells[(lo, date)] = (pd5, le)
        starts.add(lo)
        dates.add(date)
    if not cells:
        _fail(path, "no data rows")
    grid = _grid_from_cells(path, starts, dates)
    dp = np.zeros((grid.n_cohorts, grid.n_dates))
    le_arr = np.zeros((grid.n_cohorts, grid.n_dates)) if has_le else None
    for i, start in enumerate(grid.cohort_starts):
        for j, date in enumerate(grid.dates):
            if (start, date) not in cells:
                _fail(path, f"missing cell for cohort {grid.cohort_label(i)} at date {date}")
            pd5, le = cells[(start, date)]
            dp[i, j] = pd5
            if le_arr is not None:
                le_arr[i, j] = le if le is not None else np.nan
    return MortalityTable(grid=grid, death_prob=dp, life_expectancy=le_arr)


def mortality_csv_text(table: MortalityTable) -> str:
    g = table.grid
    lines = ["date,cohort_lo,cohort_hi,pd_5yr"]
    for i in range(g.n_cohorts):
        lo, hi = g.cohort_bounds(i)
        for j, date in enumerate(g.dates):
            lines.append(f"{date},{lo},{hi},{fmt_value(table.death_prob[i, j])}")
    return "\n".join(lines) + "\n"


def write_mortality_csv(table: MortalityTable, out) -> None:
    Path(out).write_text(mortality_csv_text(table))


# ------------------------------------------------------------ relative risks

def read_rr_mortality_csv(path) -> list[StudyRecord]:
    records = []
    for line, row in _read_rows(
        path, ("cohort_lo", "cohort_hi", "rr_lower", "rr_upper", "diluted", "source_tag")
    ):
        lo = _parse_int(path, line, "cohort_lo", row["cohort_lo"])
        hi = _parse_int(path, line, "cohort_hi", row["cohort_hi"])
        rr_lo = _parse_float(path, line, "rr_lower", row["rr_lower"])
        rr_hi = _parse_float(path, line, "rr_upper", row["rr_upper"])
        diluted = _parse_flag(path, line, "diluted", row["diluted"])
        try:
            records.append(
                StudyRecord(
                    age_lo=lo, age_hi=hi, rr_lower=rr_lo, rr_upper=rr_hi,
                    diluted=diluted, source=row["source_tag"],
                )
            )
        except ValidationError as exc:
            _fail(path, str(exc), line)
    if not records:
        _fail(path, "no data rows")
    return records


def read_rr_utilization_csv(path, labor: LaborMarketState) -> UtilizationRRSet:
    """Parse per-service utilization risks, diluting undiluted rows.

    Pharmaceutical, rehabilitation and minor rows may be omitted and
    default to 1.00.
    """
    values: dict[str, float] = {}
    for line, row in _read_rows(path, ("service", "rr", "diluted")):
        service = row["service"]
        if service not in SERVICES:
            _fail(path, f"unknown service {service!r}; valid: {', '.join(SERVICES)}", line)
        if service in values:
            _fail(path, f"duplicate service {service}", line)
        rr = _parse_float(path, line, "rr", row["rr"])
        if rr < 0.0:
            _fail(path, f"negative relative risk {rr}", line)
        diluted = _parse_flag(path, line, "diluted", row["diluted"])
        if not diluted:
            rr = dilute_relative_risk(RelativeRisk(rr), labor).value
        values[service] = rr
    for required in ("H", "S", "GP"):
        if required not in values:
            _fail(path, f"missing service row {required!r}")
    return UtilizationRRSet(
        hospital=values["H"],
        specialist=values["S"],
        general_practice=values["GP"],
        pharmaceutical=values.get("P", 1.0),
        rehabilitation=values.get("R", 1.0),
        minor=values.get("m", 1.0),
    )


# ------------------------------------------------------------ cost machinery

def _read_cohort_profiles(path, grid, id_column, what, value_column, rejects, make):
    """Profiles of one value per cohort, keyed by ``id_column``.

    ``rejects(value)`` returns why a value is invalid, or None; each
    profile is built as ``make(id, grid, values)``.
    """
    per: dict[str, dict[int, float]] = {}
    for line, row in _read_rows(path, (id_column, "cohort_lo", "cohort_hi", value_column)):
        key = row[id_column]
        if not key:
            _fail(path, f"empty {what} id", line)
        lo = _parse_int(path, line, "cohort_lo", row["cohort_lo"])
        hi = _parse_int(path, line, "cohort_hi", row["cohort_hi"])
        _check_cohort_row(path, line, lo, hi)
        value = _parse_float(path, line, value_column, row[value_column])
        problem = rejects(value)
        if problem:
            _fail(path, problem, line)
        entries = per.setdefault(key, {})
        if lo in entries:
            _fail(path, f"duplicate cohort {lo} for {what} {key}", line)
        entries[lo] = value
    if not per:
        _fail(path, "no data rows")
    for key, entries in per.items():
        for i, start in enumerate(grid.cohort_starts):
            if start not in entries:
                _fail(path, f"{what} {key}: missing cohort {grid.cohort_label(i)}")
    return {
        key: make(key, grid, np.array([entries[start] for start in grid.cohort_starts]))
        for key, entries in per.items()
    }


def read_cost_profiles_csv(path, grid: CohortGrid) -> dict[str, CostProfile]:
    return _read_cohort_profiles(
        path, grid, "profile_id", "profile", "eur_per_capita",
        lambda v: f"negative per-capita cost {v}" if v < 0.0 else None, CostProfile,
    )


def read_ds_ratios_csv(path, grid: CohortGrid) -> dict[str, DSRatioProfile]:
    return _read_cohort_profiles(
        path, grid, "scenario", "scenario", "ratio",
        lambda v: f"D/S ratio must be > 0, got {v}" if v <= 0.0 else None, DSRatioProfile,
    )


def read_shares_csv(path) -> ExpenditureShares:
    values: dict[str, float] = {}
    for line, row in _read_rows(path, ("service", "fraction")):
        service = row["service"]
        if service not in SERVICES:
            _fail(path, f"unknown service {service!r}; valid: {', '.join(SERVICES)}", line)
        if service in values:
            _fail(path, f"duplicate service {service}", line)
        values[service] = _parse_float(path, line, "fraction", row["fraction"])
    missing = [s for s in SERVICES if s not in values]
    if missing:
        _fail(path, f"missing service row(s): {', '.join(missing)}")
    try:
        return ExpenditureShares(
            hospital=values["H"],
            pharmaceutical=values["P"],
            specialist=values["S"],
            general_practice=values["GP"],
            rehabilitation=values["R"],
            minor=values["m"],
        )
    except ValidationError as exc:
        _fail(path, str(exc))


def read_gdp_csv(path) -> dict[int, float]:
    gdp: dict[int, float] = {}
    for line, row in _read_rows(path, ("date", "eur_millions")):
        date = _parse_int(path, line, "date", row["date"])
        v = _parse_float(path, line, "eur_millions", row["eur_millions"])
        if v <= 0.0:
            _fail(path, f"GDP must be positive, got {v}", line)
        if date in gdp:
            _fail(path, f"duplicate date {date}", line)
        gdp[date] = v
    if not gdp:
        _fail(path, "no data rows")
    return gdp


# ------------------------------------------------------------ impact results

def impact_csv_text(rows: Iterable[GridRow]) -> str:
    lines = [",".join(IMPACT_COLUMNS)]
    for r in rows:
        res = r.result
        lines.append(
            ",".join(
                (
                    r.model,
                    r.pop_scenario,
                    selector_text(r.rr_selector),
                    fmt_value(r.rf),
                    fmt_value(res.crimi),
                    fmt_value(res.criui),
                    fmt_value(res.cri),
                    fmt_value(res.cri_gdp_pct),
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_impact_csv(rows: Iterable[GridRow], out) -> None:
    Path(out).write_text(impact_csv_text(rows))


def read_impact_csv(path) -> list[dict[str, str | float]]:
    """Parse an impact/sensitivity result table into typed row dicts."""
    numeric = ("rf", "crimi_eur_m", "criui_eur_m", "cri_eur_m", "cri_gdp_pct")
    rows: list[dict[str, str | float]] = []
    for line, row in _read_rows(path, IMPACT_COLUMNS):
        parsed: dict[str, str | float] = {
            "model": row["model"],
            "pop_scenario": row["pop_scenario"],
            "rr_selector": row["rr_selector"],
        }
        for column in numeric:
            parsed[column] = _parse_float(path, line, column, row[column])
        rows.append(parsed)
    return rows


# -------------------------------------------------------- expenditure series

def expenditure_csv_text(paths: Iterable[ExpenditurePath]) -> str:
    lines = ["model,scenario,date,eur_millions"]
    for p in paths:
        for date, v in zip(p.dates, p.values):
            lines.append(f"{p.model},{p.scenario},{date},{fmt_value(v)}")
    return "\n".join(lines) + "\n"


def write_expenditure_csv(paths: Iterable[ExpenditurePath], out) -> None:
    Path(out).write_text(expenditure_csv_text(paths))


def read_expenditure_csv(path) -> list[tuple[str, str, int, float]]:
    rows = []
    for line, row in _read_rows(path, ("model", "scenario", "date", "eur_millions")):
        rows.append(
            (
                row["model"],
                row["scenario"],
                _parse_int(path, line, "date", row["date"]),
                _parse_float(path, line, "eur_millions", row["eur_millions"]),
            )
        )
    return rows


# ------------------------------------------------------------- plot series

def series_csv_text(xs: Sequence[float], ys: Sequence[float]) -> str:
    if len(xs) != len(ys):
        raise ValidationError("series x and y lengths differ")
    lines = ["x,y"]
    for x, y in zip(xs, ys):
        lines.append(f"{fmt_value(x)},{fmt_value(y)}")
    return "\n".join(lines) + "\n"


def write_series_csv(xs: Sequence[float], ys: Sequence[float], out) -> None:
    Path(out).write_text(series_csv_text(xs, ys))


def read_series_csv(path) -> list[tuple[float, float]]:
    rows = []
    for line, row in _read_rows(path, ("x", "y")):
        rows.append(
            (_parse_float(path, line, "x", row["x"]), _parse_float(path, line, "y", row["y"]))
        )
    return rows
