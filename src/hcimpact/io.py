"""Delimited-text schemas: readers with line-numbered validation, writers
with fixed formatting.

All engine files are plain CSV. Numeric output is fixed at 6 significant
digits so reruns diff cleanly; every writer here has a matching reader
and written files re-parse verbatim.
"""

from __future__ import annotations

import csv
import math
import sys
import warnings
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .grid import COHORT_WIDTH, CohortGrid
from .expenditure import CostProfile, DSRatioProfile, ExpenditurePath, ExpenditureShares
from .impact import GridResult, GridRow, gdp_share_pct
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
    "impact_columns",
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
    "EXPENDITURE_COLUMNS",
    "POPULATION_COLUMNS",
    "SERIES_COLUMNS",
]

# The header of each result file, in column order.
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
EXPENDITURE_COLUMNS = ("model", "scenario", "date", "eur_millions")
POPULATION_COLUMNS = ("scenario", "date", "cohort_lo", "cohort_hi", "count_thousands")
SERIES_COLUMNS = ("x", "y")


def fmt_value(x: float) -> str:
    """Fixed delimited-file number format: 6 significant digits."""
    return format(float(x), ".6g")


def selector_text(sel: str | float) -> str:
    return sel if isinstance(sel, str) else fmt_value(sel)


# The largest finite float: ``lo <= v <= _MAX`` is false for nan and both infinities.
_MAX = sys.float_info.max


def _fail(path, msg: str, line: int | None = None) -> None:
    where = f"{path}:{line}" if line is not None else str(path)
    raise ValidationError(f"{where}: {msg}")


@contextmanager
def open_text(path):
    """Open an input file as UTF-8 text for ``csv``; a leading BOM is dropped.

    A missing file, a byte that does not decode, or a line ``csv`` cannot
    split raises ``ValidationError`` naming the file (and the line of the
    bad byte).
    """
    if not Path(path).exists():
        _fail(path, "file does not exist")
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


@contextmanager
def _open_table(path, required: Sequence[str], optional: Sequence[str] = ()):
    """Open a CSV file and validate its header; yields ``(header, reader, fh)``,
    ``fh`` the open file positioned after the header.

    The header (cells stripped) must have no empty cell, name every
    ``required`` column, no column twice and none outside ``required`` and
    ``optional``.
    """
    with open_text(path) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            _fail(path, "empty file, expected a header row")
        header = [h.strip() for h in first]
        if "" in header:
            _fail(path, f"header column {header.index('') + 1} is empty")
        duplicate = sorted({h for h in header if header.count(h) > 1})
        if duplicate:
            _fail(path, f"duplicate column(s): {', '.join(duplicate)}")
        missing = [c for c in required if c not in header]
        if missing:
            _fail(path, f"missing required column(s): {', '.join(missing)}")
        unknown = [c for c in header if c not in (*required, *optional)]
        if unknown:
            _fail(path, f"unknown column(s): {', '.join(unknown)}")
        yield header, reader, fh


def _row_cells(path, line: int, row: list[str], width: int) -> list[str] | None:
    """The stripped cells of a row, a short row padded with empty cells;
    None for a blank line."""
    if len(row) > width:
        _fail(path, "row has more fields than the header", line)
    return [v.strip() for v in row] + [""] * (width - len(row)) if row else None


def _read_rows(path, required: Sequence[str], optional: Sequence[str] = ()):
    """Yield ``(line_number, {column: cell})`` for each non-blank row."""
    with _open_table(path, required, optional) as (header, reader, _):
        for row in reader:
            cells = _row_cells(path, reader.line_num, row, len(header))
            if cells is not None:
                yield reader.line_num, dict(zip(header, cells))


def _parse_float(path, line: int, column: str, text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        _fail(path, f"column {column!r}: {text!r} is not a number", line)
    if not math.isfinite(v):
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


def _text(path, line: int, column: str, text: str) -> str:
    return text


def _read_records(path, parsers):
    """Yield ``(line, values)``, each column of ``parsers`` parsed by its parser."""
    for line, row in _read_rows(path, tuple(parsers)):
        yield line, [parse(path, line, column, row[column]) for column, parse in parsers.items()]


#: Data lines the columnar pass of :func:`_read_cohort_table` parses at once.
#: A block, not the whole file, keeps the pass's memory flat in the file size.
_BLOCK_LINES = 4096


def _read_cohort_table(path, value_column, bounds, problem, key=None, grid=None, unused=()):
    """The one reader of cohort-indexed tables: the grid and ``{id: values}``.

    ``key`` is the id column of a file of several tables (messages call an
    id by the column name without ``_id``), or None for a file of one,
    stored under id None. Without a ``grid`` the file has a ``date``
    column, the grid is read from its cells and each table is a
    ``(cohorts, dates)`` array; with one, each table is one value per
    cohort of ``grid``. A value is valid when finite and within the closed
    interval ``bounds``; ``problem.format(value)`` says why another is not.
    Columns in ``unused`` are optional numbers that are validated but not
    kept.

    A file is read by :func:`_read_cohort_blocks` when that columnar pass
    accepts it, and otherwise again from the start by the row loop of
    :func:`_read_cohort_rows`, which gives the same result or the message
    naming the first bad line.
    """
    columns = ((key,) if key else ()) + (("date",) if grid is None else ()) + (
        "cohort_lo", "cohort_hi", value_column)
    with _open_table(path, columns, unused) as (header, _, fh):
        try:
            found = _read_cohort_blocks(fh, header, value_column, bounds, key, grid, unused)
        except (ValueError, OverflowError, Warning):  # a cell loadtxt refused, or a non-UTF-8 byte
            found = None
    if found is not None:
        return found
    return _read_cohort_rows(path, value_column, bounds, problem, key, grid, unused)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values (plain ``np.unique`` imports ``numpy.ma`` on first use)."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])]


def _read_cohort_blocks(fh, header, value_column, bounds, key, grid, unused):
    """The columnar pass of :func:`_read_cohort_table` over the data lines of
    ``fh``: its result, or None for a file the row loop must read.

    ``np.loadtxt`` parses each block of :data:`_BLOCK_LINES` lines, the id
    and ``unused`` cells as text, values as floats and the rest as int64;
    it takes a strict subset of what ``int`` and ``float`` take and raises
    ``ValueError`` or warns on any other cell or row width. It splits like
    ``csv`` only lines without a quote, CR or NUL and no longer than a
    ``csv`` field may be: a block with another line returns None, as does
    any failed check. Only the table, date, cohort and value of each block
    are kept; the checks run on whole columns after the last block.
    """
    dated = grid is None
    dtype = np.dtype([(column, object if column == key or column in unused else
                       float if column == value_column else np.int64) for column in header])
    tables: dict[str | None, int] = {} if key else {None: 0}  # id: table number
    checked: set[str] = set()  # cells of ``unused`` columns that are blank or finite numbers
    kept = []  # (table, date, cohort_lo, value) of each block
    limit = csv.field_size_limit()
    while lines := list(islice(fh, _BLOCK_LINES)):
        text = "".join(lines)
        if '"' in text or "\r" in text or "\0" in text or (
                len(text) > limit and max(map(len, lines)) > limit):
            return None
        if not text.strip("\n"):  # empty lines only, which loadtxt and csv both skip
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, delimiter=",", dtype=dtype, comments=None,
                              quotechar=None, ndmin=1)
        for column in unused:
            if column in header:
                for cell in set(rows[column].tolist()) - checked:
                    if (number := cell.strip()) and not math.isfinite(float(number)):
                        return None
                    checked.add(cell)
        table = zeros = np.zeros(len(rows), np.intp)  # the table or date of a file without one
        if key:
            cells = rows[key]
            first = np.flatnonzero(np.append(True, cells[1:] != cells[:-1]))  # each run of a cell
            ids = [cell.strip() for cell in cells[first].tolist()]
            if "" in ids:
                return None
            table = np.repeat([tables.setdefault(i, len(tables)) for i in ids],
                              np.diff(first, append=len(cells)))
        lo = rows["cohort_lo"].copy()
        if not np.all(rows["cohort_hi"] - lo == COHORT_WIDTH - 1):  # exact once lo is on the grid
            return None
        date = rows["date"].copy() if dated else zeros
        kept.append((table, date, lo, rows[value_column].copy()))
    if not kept:
        return None
    table, date, lo, value = map(np.concatenate, zip(*kept))
    if dated:
        try:
            grid = CohortGrid(tuple(_distinct(lo).tolist()), tuple(_distinct(date).tolist()))
        except ValidationError:
            return None
        date = np.searchsorted(grid.dates, date)
    starts = np.array(grid.cohort_starts)
    cohort = np.searchsorted(starts, lo)
    if not np.array_equal(starts.take(cohort, mode="clip"), lo):  # a cohort off the grid
        return None
    low, high = bounds
    if not np.all((value >= low) & (value <= high)):
        return None
    n_dates = grid.n_dates if dated else 1
    cell = (table * grid.n_cohorts + cohort) * n_dates + date
    size = len(tables) * grid.n_cohorts * n_dates
    # Every cell once: as many rows as cells, and no cell missing or twice.
    if value.size != size or not np.all(np.bincount(cell, minlength=size) == 1):
        return None
    values = np.empty(size)
    values[cell] = value
    shape = (len(tables), grid.n_cohorts) + ((n_dates,) if dated else ())
    return grid, dict(zip(tables, values.reshape(shape)))


def _read_cohort_rows(path, value_column, bounds, problem, key=None, grid=None, unused=()):
    """:func:`_read_cohort_table` as one loop over the rows, for any file.

    Each row is read by position. ``int`` and ``float`` accept
    surrounding whitespace, so only the id cell is stripped; a number cell
    that does not convert is stripped and parsed again, which names it in
    the message or, for whitespace ``float`` keeps (such as U+001C),
    returns its value. The checks run in a fixed order and the first that
    fails names the row's line; with a ``grid``, a cohort off it fails.
    """
    dated = grid is None
    what = key and key.removesuffix("_id")
    columns = ((key,) if key else ()) + (("date",) if dated else ()) + (
        "cohort_lo", "cohort_hi", value_column)
    low, high = bounds
    on_grid = () if dated else frozenset(grid.cohort_starts)
    tables: dict[str | None, dict] = {}  # id: {(cohort_lo, date): value}
    with _open_table(path, columns, unused) as (header, reader, _):
        width = len(header)
        at = {column: i for i, column in enumerate(header)}
        id_at = at.get(key)
        date_at = at.get("date")
        lo_at, hi_at, value_at = at["cohort_lo"], at["cohort_hi"], at[value_column]
        extra = [(column, at[column]) for column in unused if column in at]
        # ``cells`` is the table of id ``current``; no id equals the sentinel,
        # so the first row opens its table.
        table_id = date = None
        current, cells = object(), None
        for row in reader:
            line = reader.line_num
            if len(row) != width:
                if not row:
                    continue
                row = _row_cells(path, line, row, width)
            if key:
                table_id = row[id_at].strip()
                if not table_id:
                    _fail(path, f"empty {what} id", line)
            if table_id != current:
                current, cells = table_id, tables.setdefault(table_id, {})
            try:
                if dated:
                    date = int(row[date_at])
                lo, hi = int(row[lo_at]), int(row[hi_at])
            except ValueError:  # stripped, the first cell that does not parse fails
                if dated:
                    date = _parse_int(path, line, "date", row[date_at].strip())
                lo = _parse_int(path, line, "cohort_lo", row[lo_at].strip())
                hi = _parse_int(path, line, "cohort_hi", row[hi_at].strip())
            if hi - lo != COHORT_WIDTH - 1:
                _fail(path, f"cohort [{lo}, {hi}] is not a {COHORT_WIDTH}-year bin", line)
            if not dated and lo not in on_grid:
                _fail(path, f"cohort [{lo}, {hi}] is not on the cohort grid", line)
            try:
                value = float(row[value_at])
            except ValueError:  # ``float`` strips only ASCII whitespace
                value = math.nan
            if not low <= value <= high:  # not a number or not finite fails first
                value = _parse_float(path, line, value_column, row[value_at].strip())
                if not low <= value <= high:
                    _fail(path, problem.format(value), line)
            for column, i in extra:
                if text := row[i].strip():
                    _parse_float(path, line, column, text)
            if (lo, date) in cells:
                owner = f"{what} {table_id}, " if key else ""
                when = f", date {date}" if dated else ""
                _fail(path, f"duplicate cell for {owner}cohort {lo}{when}", line)
            cells[lo, date] = value
    if not tables:
        _fail(path, "no data rows")
    if dated:
        starts = {lo for cells in tables.values() for lo, _ in cells}
        dates = {d for cells in tables.values() for _, d in cells}
        try:
            grid = CohortGrid(tuple(sorted(starts)), tuple(sorted(dates)))
        except ValidationError as exc:  # date gaps and cohort gaps both surface here
            _fail(path, str(exc))
    order = [(lo, d) for lo in grid.cohort_starts for d in (grid.dates if dated else (None,))]
    shape = (grid.n_cohorts, grid.n_dates) if dated else (grid.n_cohorts,)
    values = {}
    for table_id, cells in tables.items():
        try:
            values[table_id] = np.array([cells[cell] for cell in order]).reshape(shape)
        except KeyError as exc:
            lo, d = exc.args[0]
            label = grid.cohort_label(grid.cohort_starts.index(lo))
            owner = f"{what} {table_id}: " if key else ""
            missing = f"missing cohort {label}" if d is None else (
                f"missing cell for cohort {label} at date {d}")
            _fail(path, owner + missing)
    return grid, values


# ---------------------------------------------------------------- population

def read_population_csv(path) -> dict[str, PopulationPath]:
    """Parse every scenario of a population file, validating coverage."""
    grid, counts = _read_cohort_table(
        path, "count_thousands", (0.0, _MAX), "negative head-count {}", key="scenario",
    )
    return {s: PopulationPath(scenario=s, grid=grid, counts=c) for s, c in counts.items()}


def load_exogenous_path(name: str, source) -> PopulationPath:
    """Load one named exogenous scenario from a population file, verbatim."""
    paths = read_population_csv(source)
    if name not in paths:
        raise ValidationError(
            f"{source}: no scenario {name!r}; available: {', '.join(sorted(paths))}"
        )
    return paths[name]


def _cohort_lines(grid: CohortGrid, values: np.ndarray, prefix: str = "") -> list[str]:
    """Rows ``{prefix}date,cohort_lo,cohort_hi,value`` of a dated table, cohort by cohort."""
    return [
        f"{prefix}{date},{lo},{hi},{fmt_value(values[i, j])}"
        for i, (lo, hi) in enumerate(map(grid.cohort_bounds, range(grid.n_cohorts)))
        for j, date in enumerate(grid.dates)
    ]


def population_csv_text(paths: Iterable[PopulationPath]) -> str:
    lines = [",".join(POPULATION_COLUMNS)]
    for p in paths:
        lines += _cohort_lines(p.grid, p.counts, f"{p.scenario},")
    return "\n".join(lines) + "\n"


def write_population_csv(paths: Iterable[PopulationPath], out) -> None:
    Path(out).write_text(population_csv_text(paths))


# ----------------------------------------------------------------- mortality

def read_mortality_csv(path) -> MortalityTable:
    """Parse a mortality table; an optional ``life_expectancy`` column is
    checked to be numeric and otherwise ignored."""
    grid, tables = _read_cohort_table(
        path, "pd_5yr", (0.0, 1.0), "death probability {} outside [0, 1]",
        unused=("life_expectancy",),
    )
    return MortalityTable(grid=grid, death_prob=tables[None])


def mortality_csv_text(table: MortalityTable) -> str:
    lines = ["date,cohort_lo,cohort_hi,pd_5yr", *_cohort_lines(table.grid, table.death_prob)]
    return "\n".join(lines) + "\n"


def write_mortality_csv(table: MortalityTable, out) -> None:
    Path(out).write_text(mortality_csv_text(table))


# ------------------------------------------------------------ relative risks

def read_rr_mortality_csv(path) -> list[StudyRecord]:
    parsers = {
        "cohort_lo": _parse_int, "cohort_hi": _parse_int, "rr_lower": _parse_float,
        "rr_upper": _parse_float, "diluted": _parse_flag, "source_tag": _text,
    }
    records = []
    for line, values in _read_records(path, parsers):
        try:
            records.append(StudyRecord(*values))
        except ValidationError as exc:
            _fail(path, str(exc), line)
    if not records:
        _fail(path, "no data rows")
    return records


def _read_service_rows(path, columns, parse) -> dict[str, float]:
    """One value per service row, from ``parse(line, row)``, keyed by service code."""
    values: dict[str, float] = {}
    for line, row in _read_rows(path, ("service", *columns)):
        service = row["service"]
        if service not in SERVICES:
            _fail(path, f"unknown service {service!r}; valid: {', '.join(SERVICES)}", line)
        if service in values:
            _fail(path, f"duplicate service {service}", line)
        values[service] = parse(line, row)
    return values


def read_rr_utilization_csv(path, labor: LaborMarketState) -> UtilizationRRSet:
    """Parse per-service utilization risks, diluting undiluted rows.

    Pharmaceutical, rehabilitation and minor rows may be omitted and
    default to 1.00.
    """

    def parse(line, row) -> float:
        rr = _parse_float(path, line, "rr", row["rr"])
        if rr < 0.0:
            _fail(path, f"negative relative risk {rr}", line)
        if _parse_flag(path, line, "diluted", row["diluted"]):
            return rr
        return dilute_relative_risk(RelativeRisk(rr), labor).value

    values = _read_service_rows(path, ("rr", "diluted"), parse)
    for required in ("H", "S", "GP"):
        if required not in values:
            _fail(path, f"missing service row {required!r}")
    return UtilizationRRSet(*(values.get(code, 1.0) for code in ("H", "S", "GP", "P", "R", "m")))


# ------------------------------------------------------------ cost machinery

def read_cost_profiles_csv(path, grid: CohortGrid) -> dict[str, CostProfile]:
    _, values = _read_cohort_table(
        path, "eur_per_capita", (0.0, _MAX), "negative per-capita cost {}",
        key="profile_id", grid=grid,
    )
    return {key: CostProfile(key, grid, v) for key, v in values.items()}


def read_ds_ratios_csv(path, grid: CohortGrid) -> dict[str, DSRatioProfile]:
    _, values = _read_cohort_table(  # math.ulp(0.0) is the least float > 0
        path, "ratio", (math.ulp(0.0), _MAX), "D/S ratio must be > 0, got {}",
        key="scenario", grid=grid,
    )
    return {key: DSRatioProfile(key, grid, v) for key, v in values.items()}


def read_shares_csv(path) -> ExpenditureShares:
    values = _read_service_rows(
        path, ("fraction",),
        lambda line, row: _parse_float(path, line, "fraction", row["fraction"]),
    )
    missing = [s for s in SERVICES if s not in values]
    if missing:
        _fail(path, f"missing service row(s): {', '.join(missing)}")
    try:
        return ExpenditureShares(*(values[code] for code in SERVICES))
    except ValidationError as exc:
        _fail(path, str(exc))


def read_gdp_csv(path) -> dict[int, float]:
    gdp: dict[int, float] = {}
    for line, (date, v) in _read_records(path, {"date": _parse_int, "eur_millions": _parse_float}):
        if v <= 0.0:
            _fail(path, f"GDP must be positive, got {v}", line)
        if date in gdp:
            _fail(path, f"duplicate date {date}", line)
        gdp[date] = v
    if not gdp:
        _fail(path, "no data rows")
    return gdp


# ------------------------------------------------------------ impact results

def impact_columns(rows: GridResult | Iterable[GridRow], number=fmt_value) -> list[list]:
    """The :data:`IMPACT_COLUMNS` of every cell, column by column, in row order.

    ``number`` maps each numeric column (the RFs, ``crimi``, ``criui``,
    ``cri`` and its GDP share) once per distinct float64 bit pattern, so
    ``-0.0`` and ``0.0`` stay apart; RR selectors are
    :func:`selector_text`. Rows outside a :class:`GridResult` are read
    column by column, each GDP share with its row's own GDP.
    """
    def distinct(values):  # the distinct values, by bit pattern, and where each value is in them
        bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.int64)
        unique, inverse = np.unique(bits, return_inverse=True)
        return unique.view(float), inverse

    def spread(values, inverse):
        return np.array(list(map(number, values.tolist())), dtype=object)[inverse].tolist()

    def numbers(values):
        return spread(*distinct(values))

    if not isinstance(rows, GridResult):
        rows = list(rows)
        results = [r.result for r in rows]
        return [
            [r.model for r in rows],
            [r.pop_scenario for r in rows],
            [selector_text(r.rr_selector) for r in rows],
            numbers([r.rf for r in rows]),
            numbers([res.crimi for res in results]),
            numbers([res.criui for res in results]),
            numbers([res.cri for res in results]),
            numbers([res.cri_gdp_pct for res in results]),
        ]
    m, p, r, f = shape = rows.shape

    def per_cell(values, at):  # ``values`` shaped ``at``, repeated along the other axes
        return np.broadcast_to(np.array(values, dtype=object).reshape(at), shape).ravel().tolist()

    # The GDP share is elementwise in one GDP, so equal CRI bits give equal share bits.
    cri, cri_at = distinct(rows.cri)
    return [
        per_cell(rows.models, (m, 1, 1, 1)),
        per_cell(rows.pop_scenarios, (1, p, 1, 1)),
        per_cell([selector_text(v) for v in rows.rr_values], (1, 1, r, 1)),
        per_cell(numbers(rows.rfs), (1, 1, 1, f)),
        per_cell(numbers(rows.crimi), (m, p, r, 1)),
        per_cell(numbers(rows.criui), (m, p, 1, f)),
        spread(cri, cri_at),
        spread(gdp_share_pct(cri, rows.gdp), cri_at),
    ]


def impact_csv_text(rows: GridResult | Iterable[GridRow]) -> str:
    lines = [",".join(IMPACT_COLUMNS)]
    lines += map(",".join, zip(*impact_columns(rows)))
    return "\n".join(lines) + "\n"


def write_impact_csv(rows: GridResult | Iterable[GridRow], out) -> None:
    Path(out).write_text(impact_csv_text(rows))


def read_impact_csv(path) -> list[dict[str, str | float]]:
    """Parse an impact/sensitivity result table into typed row dicts."""
    parsers = dict.fromkeys(IMPACT_COLUMNS, _parse_float)
    parsers.update(model=_text, pop_scenario=_text, rr_selector=_text)
    return [dict(zip(IMPACT_COLUMNS, values)) for _, values in _read_records(path, parsers)]


# -------------------------------------------------------- expenditure series

def expenditure_csv_text(paths: Iterable[ExpenditurePath]) -> str:
    lines = [",".join(EXPENDITURE_COLUMNS)]
    for p in paths:
        for date, v in zip(p.dates, p.values):
            lines.append(f"{p.model},{p.scenario},{date},{fmt_value(v)}")
    return "\n".join(lines) + "\n"


def write_expenditure_csv(paths: Iterable[ExpenditurePath], out) -> None:
    Path(out).write_text(expenditure_csv_text(paths))


def read_expenditure_csv(path) -> list[tuple[str, str, int, float]]:
    parsers = dict(zip(EXPENDITURE_COLUMNS, (_text, _text, _parse_int, _parse_float)))
    return [tuple(values) for _, values in _read_records(path, parsers)]


# ------------------------------------------------------------- plot series

def series_csv_text(xs: Sequence[float], ys: Sequence[float]) -> str:
    if len(xs) != len(ys):
        raise ValidationError("series x and y lengths differ")
    lines = [",".join(SERIES_COLUMNS)]
    for x, y in zip(xs, ys):
        lines.append(f"{fmt_value(x)},{fmt_value(y)}")
    return "\n".join(lines) + "\n"


def write_series_csv(xs: Sequence[float], ys: Sequence[float], out) -> None:
    Path(out).write_text(series_csv_text(xs, ys))


def read_series_csv(path) -> list[tuple[float, float]]:
    parsers = dict.fromkeys(SERIES_COLUMNS, _parse_float)
    return [tuple(xy) for _, xy in _read_records(path, parsers)]
