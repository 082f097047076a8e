"""Delimited-text schemas: readers with line-numbered validation, writers
with fixed formatting.

All engine files are plain CSV. Numeric output is fixed at 6 significant
digits so reruns diff cleanly; every writer here has a matching reader
and written files re-parse verbatim. A text cell that holds a comma, a
quote, CR or LF is written in quotes with each inner quote doubled, as
``csv.writer`` quotes it, so an id such as ``Pop,"MV"`` reads back as it is.

Every input file and every result file is read by the same two parsers,
one ``np.loadtxt`` pass with the ``csv`` row loop as its fallback
(:func:`_read_table`), and checked by the one checker, :func:`_check`,
which fails with the ``file:line`` message a reader going row by row
would give.
"""

from __future__ import annotations

import csv
import math
import warnings
from contextlib import contextmanager
from io import StringIO
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .grid import COHORT_WIDTH, CohortGrid, Tables
from .expenditure import CostProfile, DSRatioProfile, ExpenditurePath, ExpenditureShares
from .impact import GridResult, GridRow, gdp_share_pct
from .population import MortalityTable, PopulationPath
from .relative_risk import (
    SERVICES,
    LaborMarketState,
    StudyRecords,
    UtilizationRRSet,
    _FIELDS,
    _dilute,
    first_bad_record,
)

__all__ = [
    "read_population_csv",
    "population_csv_text",
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
    "SERIES_COLUMNS",
    "RESULTS",
]

#: Each kind of result file: its columns in order, each with its cell type. The
#: writers, :func:`read_result_rows` and ``report`` all take a file's format from here.
RESULTS: dict[str, dict[str, type]] = {
    "impact": {"model": str, "pop_scenario": str, "rr_selector": str, "rf": float,
               "crimi_eur_m": float, "criui_eur_m": float, "cri_eur_m": float,
               "cri_gdp_pct": float},
    "expenditure": {"model": str, "scenario": str, "date": int, "eur_millions": float},
    "population": {"scenario": str, "date": int, "cohort_lo": int, "cohort_hi": int,
                   "count_thousands": float},
    "series": {"x": float, "y": float},
}
# The header of each result file.
IMPACT_COLUMNS, EXPENDITURE_COLUMNS, SERIES_COLUMNS = (
    tuple(RESULTS[kind]) for kind in ("impact", "expenditure", "series"))
# The number format of fmt_value, the one writer and the impact files.
_NUMBER = "%.6g"


def fmt_value(x: float) -> str:
    """Fixed delimited-file number format: 6 significant digits."""
    return _NUMBER % float(x)


def selector_text(sel: str | float) -> str:
    return sel if isinstance(sel, str) else fmt_value(sel)


def _quoted(cell):
    """A text cell that holds a comma, a quote, CR or LF in quotes, each inner
    quote doubled, as ``csv.writer`` writes it; any other cell as it is."""
    if isinstance(cell, str) and any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_text(columns: dict[str, type], rows: Iterable[tuple]) -> str:
    """The header of ``columns``, then a line per row: a float cell as
    :func:`fmt_value`, any other as ``str`` of :func:`_quoted`."""
    line = ",".join(_NUMBER if kind is float else "%s" for kind in columns.values()) + "\n"
    return ",".join(columns) + "\n" + "".join(line % tuple(map(_quoted, row)) for row in rows)


def _fail(path, msg: str, line: int | None = None) -> None:
    where = f"{path}:{line}" if line is not None else str(path)
    raise ValidationError(f"{where}: {msg}")


@contextmanager
def open_text(path):
    """Open an input file as UTF-8 text for ``csv``; a leading BOM is dropped.

    A missing file or a line ``csv`` cannot split raises ``ValidationError``
    naming the file. A byte that does not decode on line ``n`` fails with
    that line: at once for line 1, else once the reading has passed line
    ``n - 1``, as the file's lines before ``n`` are all it reads, so the rows
    on them are checked first whatever the size of the file.
    """
    try:
        raw = Path(path).read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        _fail(path, "file does not exist")
    try:
        text, bad = raw.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        bad = raw.count(b"\n", 0, exc.start) + 1
        if bad == 1:
            _fail(path, "not valid UTF-8", bad)
        text = raw[: raw.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
    fh = StringIO(text.removeprefix("\ufeff"), newline="")
    try:
        yield fh
    except csv.Error as exc:
        _fail(path, str(exc))
    if bad and not fh.read(1):
        _fail(path, "not valid UTF-8", bad)


def _header(path, first, columns: Collection[str], optional: Collection[str]) -> list[str]:
    """The header row ``first`` (None for an empty file), its cells stripped: no
    cell empty, each of ``columns`` but those in ``optional``, none twice or
    outside ``columns``."""
    if first is None:
        _fail(path, "empty file, expected a header row")
    header = [h.strip() for h in first]
    if "" in header:
        _fail(path, f"header column {header.index('') + 1} is empty")
    duplicate = sorted({h for h in header if header.count(h) > 1})
    if duplicate:
        _fail(path, f"duplicate column(s): {', '.join(duplicate)}")
    missing = [c for c in columns if c not in header and c not in optional]
    if missing:
        _fail(path, f"missing required column(s): {', '.join(missing)}")
    unknown = [c for c in header if c not in columns]
    if unknown:
        _fail(path, f"unknown column(s): {', '.join(unknown)}")
    return header


def _read_cohort_table(path, value_column, bounds, problem, key=None, grid=None, unused=()):
    """The one reader of cohort-indexed tables: ``(grid, ids, values)``,
    ``values`` the tables stacked in the order of ``ids``.

    ``key`` is the id column of a file of several tables (messages call an
    id by the column name without ``_id``), or None for a file of one,
    whose id is None. Without a ``grid`` the file has a ``date``
    column, the grid is read from its cells and each table is a
    ``(cohorts, dates)`` array; with one, each table is one value per
    cohort of ``grid``. A value is valid when finite and within the closed
    interval ``bounds``; ``problem.format(value)`` says why another is not.
    Columns in ``unused`` are optional numbers that are validated but not
    kept.

    :func:`_read_table` reads the file (its columnar pass takes integers as
    int32, and a file with a larger one takes the row loop), :func:`_check`
    runs the checks of its rows, and then come the checks of the whole file.
    """
    dated = grid is None
    what = key and key.removesuffix("_id")
    required = ((key,) if key else ()) + (("date",) if dated else ()) + (
        "cohort_lo", "cohort_hi", value_column)
    dtypes = {column: object if column == key or column in unused else
              float if column == value_column else np.int32 for column in (*required, *unused)}
    ids, columns, line, bad, stop = _read_table(path, dtypes, key, unused)
    value, lo, hi = columns[value_column], columns["cohort_lo"], columns["cohort_hi"]
    n = len(value)
    table = columns[key] if key else np.zeros(n, np.intp)
    date = columns.get("date")
    # An undated table is one date wide: its cell is its table and cohort.
    starts, dates = (_distinct(lo), _distinct(date)) if dated else (
        np.array(grid.cohort_starts), (None,))
    cohort = np.searchsorted(starts, lo)
    size = len(ids) * len(starts) * len(dates)
    if size >= 2**63:  # past int64, once the ids, cohorts and dates each pass 2**21
        table = table.astype(object)
    cell = table * len(starts) + cohort
    if dated:
        cell = cell * len(dates) + np.searchsorted(dates, date)
    order = np.argsort(cell, kind="stable")  # a repeat of a cell after the row it repeats
    ordered = cell[order]
    low, high = bounds

    def duplicate(row):
        owner = f"{what} {ids[table[row]]}, " if key else ""
        when = f", date {date[row]}" if dated else ""
        return f"duplicate cell for {owner}cohort {lo[row]}{when}"

    _check(path, n, line, stop, [
        (_first(table == ids.index("")) if "" in ids else n, lambda row: f"empty {what} id"),
        *_parsed(columns, bad, required[bool(key):-1]),  # the date and the cohort bounds
        (_first((hi - lo != COHORT_WIDTH - 1) | (hi < lo)),  # hi < lo: an int32 wrap to 4
         lambda row: f"cohort [{lo[row]}, {hi[row]}] is not a {COHORT_WIDTH}-year bin"),
        (_first(starts.take(cohort, mode="clip") != lo),
         lambda row: f"cohort [{lo[row]}, {hi[row]}] is not on the cohort grid"),
        _number(value_column, value, bad.get(value_column, {})),
        (_first(~((value >= low) & (value <= high))), lambda row: problem.format(value[row])),
        *(_number(c, *_parse_cells(columns[c], lambda t: float(t or 0), math.nan, float))
          for c in unused if c in columns),
        (int(np.min(order[1:][ordered[1:] == ordered[:-1]], initial=n)), duplicate),
    ])
    if dated:
        try:
            grid = CohortGrid(tuple(starts.tolist()), tuple(dates.tolist()))
        except ValidationError as exc:  # date gaps and cohort gaps both surface here
            _fail(path, str(exc))
    if n < size:  # no cell twice and none off the grid: the first not in ``ordered`` is missing
        t, rest = divmod(int(np.argmax(np.append(ordered != np.arange(n), True))),
                         size // len(ids))
        label, owner = grid.cohort_label(rest // len(dates)), f"{what} {ids[t]}: " if key else ""
        _fail(path, owner + (f"missing cell for cohort {label} at date {dates[rest % len(dates)]}"
                             if dated else f"missing cohort {label}"))
    values = np.empty(size)
    values[cell] = value
    shape = (len(ids), grid.n_cohorts) + ((grid.n_dates,) if dated else ())
    return grid, ids, values.reshape(shape)


def _first(mask: np.ndarray) -> int:
    """The first row ``mask`` marks, or the number of rows if it marks none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _integer(column, cells, n):  # ``cells``: {row: text} of the cells that did not parse
    return min(cells, default=n), lambda row: f"column {column!r}: {cells[row]!r} is not an integer"


def _number(column, numbers, cells):  # as in :func:`_integer`; such a cell is nan in ``numbers``
    return _first(~np.isfinite(numbers)), lambda row: f"column {column!r}: " + (
        f"{cells[row]!r} is not a number" if row in cells else "value must be finite")


def _parsed(columns, bad, names) -> list:
    """The checks that each cell of the number columns ``names`` parsed, in
    that order: :func:`_number` for a float column, else :func:`_integer`."""
    return [_number(c, columns[c], bad.get(c, {})) if columns[c].dtype == float
            else _integer(c, bad.get(c, {}), len(columns[c])) for c in names]


def _flag(column, texts):  # the check that each text of ``texts`` is ``0`` or ``1``
    return _first((texts != "0") & (texts != "1")), (
        lambda row: f"column {column!r}: expected 0 or 1, got {texts[row]!r}")


def _check(path, n, line, stop, checks, empty=False) -> None:
    """Fail as a reader going row by row would. ``checks`` lists the checks
    of a row in order, each as ``(the first of the n rows it fails on, or n;
    the message of a row)``: the error is at the first of those rows (line
    ``line(row)``), from the first check that fails there. Else ``stop``, the
    error that ended the reading, is raised; else a file of no rows fails,
    unless ``empty``."""
    row, i = min((row, i) for i, (row, _) in enumerate(checks))
    if row < n:
        _fail(path, checks[i][1](row), line(row))
    if stop is not None:
        raise stop
    if not n and not empty:
        _fail(path, "no data rows")


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values (plain ``np.unique`` imports ``numpy.ma`` on first use)."""
    values = np.sort(values)
    return values[np.append(True, values[1:] != values[:-1])[: len(values)]]


def _read_table(path, dtypes, key=None, optional=()):
    """``(ids, columns, line, bad, stop)`` of a file with a valid header (see
    :func:`_read_cohort_rows`), each column read as its dtype in ``dtypes``
    and a text column (dtype object) stripped: by :func:`_read_cohort_blocks`
    in one ``np.loadtxt`` of the path where it accepts the file, else by the
    row loop, :func:`_read_cohort_rows`. The columns in ``optional`` may be
    absent."""
    parsed = _read_cohort_blocks(path, dtypes, key, optional)
    return (*parsed, {}, None) if parsed else _read_cohort_rows(path, dtypes, key, optional)


#: The largest file :func:`_read_cohort_blocks` parses from its lines in
#: memory. Both ways take the same time near 64 KiB: below it numpy's open of
#: a path costs more than the split, above it the path parses faster, and its
#: memory stays flat.
_IN_MEMORY_BYTES = 2**16


def _read_cohort_blocks(path, dtypes, key, optional):
    """The data lines of the file at ``path``, after a valid :func:`_header`,
    as ``(ids, columns, line)`` (see :func:`_read_cohort_rows`); None for a
    file the row loop reads.

    One scan of the bytes refuses what ``np.loadtxt`` would not split like
    ``csv`` (a byte that is not UTF-8, a quote, a CR, a NUL, a line longer
    than a ``csv`` field), a file of no data line and a name numpy would open
    through a decompressor, and keeps the numbers of the empty lines, which
    loadtxt and ``csv`` skip. One loadtxt of the path (of the lines, up to
    :data:`_IN_MEMORY_BYTES`) then reads each column as its dtype in
    ``dtypes`` and ``key`` as zero-padded latin-1 bytes, in as many whole
    8-byte words as the widest line leaves room for. It takes a strict
    subset of what ``int`` and ``float`` take; any other cell, an integer
    past its dtype, an id outside latin-1 or another row width returns
    None. A run of one id starts where a word of its cell differs from the
    row before; each run's stripped id takes its table number once, and one
    ``np.repeat`` spreads it over the run. The file is opened twice, for the
    scan and by numpy, and is taken not to change in between.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if not raw.isascii():
            raw.decode("utf-8")
    except (OSError, UnicodeDecodeError):  # the row loop names the error
        return None
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n"))
    if b'"' in raw or b"\r" in raw or b"\0" in raw or not len(ends) or (
            str(path).endswith((".bz2", ".gz", ".lzma", ".xz"))):  # numpy would decompress it
        return None
    # Each data line's length with its newline; the last counts one, present or not.
    widths = np.append(ends[1:], len(raw)) - ends
    if max(ends[0] + 1, widths.max()) > csv.field_size_limit():
        return None
    header = _header(path, next(csv.reader([raw[: ends[0] + 1].decode("utf-8-sig")])),
                     dtypes, optional)
    empty = np.flatnonzero(widths[:-1] == 1)  # the number of each empty line, less 2
    before = empty - np.arange(len(empty))  # the data rows before each empty line
    # An id leaves a comma for each other cell and a character for each number.
    id_width = widths.max() - sum(1 + (dtypes[c] is not object) for c in header if c != key)
    source = str(path) if len(raw) > _IN_MEMORY_BYTES else raw.decode("utf-8-sig").split("\n")
    del raw, ends, widths  # before the parse, which holds every row at once
    words = -(-max(id_width, 1) // 8)  # the id cell in whole 8-byte words
    dtype = np.dtype([(c, f"S{8 * words}" if c == key else dtypes[c]) for c in header])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(source, dtype=dtype, delimiter=",", skiprows=1, ndmin=1,
                              encoding="utf-8-sig", comments=None, quotechar=None)
        except (ValueError, OverflowError, Warning, OSError):
            return None
    tables: dict[str | None, int] = {} if key else {None: 0}  # id: table number
    columns = {c: np.array([t.strip() for t in rows[c].tolist()], object)
               if dtypes[c] is object else rows[c].copy() for c in header if c != key}
    if key:  # each run of one id cell takes its table number at once
        cells = rows[key].view((np.uint64, words))  # the zero-padded ids as words
        run = np.append(True, cells[1:, 0] != cells[:-1, 0])  # the first row of each run
        for k in range(1, words):
            run[1:] |= cells[1:, k] != cells[:-1, k]
        start = np.flatnonzero(run)
        numbers = [tables.setdefault(i.decode("latin-1").strip(), len(tables))
                   for i in rows[key][start].tolist()]
        columns[key] = np.repeat(np.array(numbers, np.intp), np.diff(start, append=len(run)))
    # A row's line: 2, plus the rows and the empty lines before it.
    return list(tables), columns, lambda row: 2 + row + int(np.searchsorted(before, row, "right"))


def _parse_cells(texts, convert, stand_in, dtype):
    """An array of ``convert`` of each text, and ``{index: text}`` of the
    texts it refuses, which stand as ``stand_in``."""
    values, bad = [], {}
    for i, text in enumerate(texts):
        try:
            values.append(convert(text))
        except ValueError:
            values.append(stand_in)
            bad[i] = text
    return np.array(values, dtype), bad


def _read_cohort_rows(path, dtypes, key, optional):
    """Any table, read row by row by ``csv`` after a valid :func:`_header`:
    ``(ids, columns, line, bad, stop)``.

    ``columns`` maps the id column ``key`` to each row's table number, an
    index into ``ids`` (the stripped ids in order of first appearance), and
    ``line(row)`` is a row's line (an empty line holds no row). A cell is
    stripped; a short row reads as padded with empty cells, as does an
    absent optional column. A column of dtype object keeps its texts; the
    others are parsed by ``float`` or, for an integer dtype, by ``int``:
    ``bad`` maps a number column to ``{row: text}`` of the cells that did
    not parse. ``stop`` is the error that ended the reading, or None: a
    header :func:`_header` refuses, a row with more fields than the header,
    a line ``csv`` cannot split or a byte that does not decode. It is the
    file's error if the rows before it pass.
    """
    rows, lines, stop = [], [], None
    try:
        with open_text(path) as fh:
            reader = csv.reader(fh)
            header = _header(path, next(reader, None), dtypes, optional)
            for row in reader:
                if len(row) > len(header):
                    _fail(path, "row has more fields than the header", reader.line_num)
                if row:
                    lines.append(reader.line_num)
                    rows.append(dict(zip(header, map(str.strip, row))))
    except ValidationError as exc:
        stop = exc
    tables, columns, bad = {}, {}, {}
    for column in dtypes:
        texts = [row.get(column, "") for row in rows]
        if column == key:
            columns[column] = np.array([tables.setdefault(text, len(tables)) for text in texts],
                                       np.intp)
        elif dtypes[column] is object:
            columns[column] = np.array(texts, object)
        else:
            columns[column], bad[column] = _parse_cells(  # Python ints, exact past int64
                texts, *((float, math.nan, float) if dtypes[column] is float else (int, 0, object)))
    return list(tables) if key else [None], columns, lines.__getitem__, bad, stop


# ---------------------------------------------------------------- population

def read_population_csv(path) -> Tables[PopulationPath]:
    """Every scenario of a population file, validating coverage: a read-only
    mapping of scenario id to :class:`PopulationPath`, each built on access."""
    return Tables(PopulationPath, *_read_cohort_table(
        path, "count_thousands", (0.0, math.inf), "negative head-count {}", key="scenario"))


def load_exogenous_path(name: str, source) -> PopulationPath:
    """Load one named exogenous scenario from a population file, verbatim."""
    paths = read_population_csv(source)
    if name not in paths:
        raise ValidationError(
            f"{source}: no scenario {name!r}; available: {', '.join(sorted(paths))}"
        )
    return paths[name]


def _dated_rows(grid: CohortGrid, values: np.ndarray) -> Iterator[tuple]:
    """Rows ``(date, cohort_lo, cohort_hi, value)`` of a dated table, cohort by cohort;
    the open-ended cohort reports lo+4 as its ``cohort_hi``."""
    for lo, cells in zip(grid.cohort_starts, values.tolist()):
        yield from ((date, lo, lo + COHORT_WIDTH - 1, v) for date, v in zip(grid.dates, cells))


def population_csv_text(paths: Iterable[PopulationPath]) -> str:
    return _csv_text(RESULTS["population"],
                     ((p.scenario, *row) for p in paths for row in _dated_rows(p.grid, p.counts)))


def write_population_csv(paths: Iterable[PopulationPath], out) -> None:
    Path(out).write_text(population_csv_text(paths), encoding="utf-8")


# ----------------------------------------------------------------- mortality

def read_mortality_csv(path) -> MortalityTable:
    """Parse a mortality table; an optional ``life_expectancy`` column is
    checked to be numeric and otherwise ignored."""
    grid, _, tables = _read_cohort_table(
        path, "pd_5yr", (0.0, 1.0), "death probability {} outside [0, 1]",
        unused=("life_expectancy",),
    )
    return MortalityTable(grid=grid, death_prob=tables[0])


def write_mortality_csv(table: MortalityTable, out) -> None:
    Path(out).write_text(_csv_text(dict(date=int, cohort_lo=int, cohort_hi=int, pd_5yr=float),
                                   _dated_rows(table.grid, table.death_prob)), encoding="utf-8")


# ------------------------------------------------------------ relative risks

#: Each column of a study-record file and its dtype (a flag is text, to be exactly ``0`` or ``1``).
_STUDY_COLUMNS = {"cohort_lo": np.int64, "cohort_hi": np.int64, "rr_lower": float,
                  "rr_upper": float, "diluted": object, "source_tag": object}


def read_rr_mortality_csv(path) -> StudyRecords:
    """The study records of a mortality-risk file, as columns: a
    ``Sequence[StudyRecord]``. Each row's cohort bounds must be integers,
    its risk bounds finite numbers, its flag ``0`` or ``1`` and its record
    valid (:func:`first_bad_record`), checked in that order."""
    _, columns, line, bad, stop = _read_table(path, _STUDY_COLUMNS)
    lo, hi, flag = columns["cohort_lo"], columns["cohort_hi"], columns["diluted"]
    rr = np.column_stack((columns["rr_lower"], columns["rr_upper"]))
    record, problem = first_bad_record(lo, hi, rr)
    _check(path, len(flag), line, stop, [
        *_parsed(columns, bad, ("cohort_lo", "cohort_hi", "rr_lower", "rr_upper")),
        _flag("diluted", flag),
        (record, lambda row: problem),
    ])
    return StudyRecords(lo, hi, rr, flag == "1", tuple(columns["source_tag"].tolist()))


def _read_services(path, dtypes, checks=lambda columns: ()) -> dict[str, tuple]:
    """A file of one row per service as ``{service: (its values of the
    columns of dtypes, in order)}``. A row fails, in this order, on an
    unknown or repeated service, a number that does not parse and then
    ``checks(columns)``; a file of no rows passes."""
    services, columns, line, bad, stop = _read_table(path, {"service": object, **dtypes}, "service")
    table = columns["service"]
    known = np.array([s in SERVICES for s in services], bool)
    _check(path, len(table), line, stop, [
        (_first(~known[table]),
         lambda row: f"unknown service {services[table[row]]!r}; valid: {', '.join(SERVICES)}"),
        (_first(table != np.arange(len(table))),  # a new service takes the next index
         lambda row: f"duplicate service {services[table[row]]}"),
        *_parsed(columns, bad, [c for c in dtypes if dtypes[c] is float]),
        *checks(columns),
    ], empty=True)
    return dict(zip(services, zip(*(columns[c].tolist() for c in dtypes))))


def read_rr_utilization_csv(path, labor: LaborMarketState) -> UtilizationRRSet:
    """Parse per-service utilization risks, diluting undiluted rows.

    Pharmaceutical, rehabilitation and minor rows may be omitted and
    default to 1.00.
    """
    rows = _read_services(path, {"rr": float, "diluted": object}, lambda columns: [
        (_first(columns["rr"] < 0.0),
         lambda row: f"negative relative risk {float(columns['rr'][row])}"),
        _flag("diluted", columns["diluted"]),
    ])
    for required in ("H", "S", "GP"):
        if required not in rows:
            _fail(path, f"missing service row {required!r}")
    return UtilizationRRSet(**{  # by field name, so an omitted row takes the constructor's default
        _FIELDS[service]: rr if flag == "1" else _dilute(rr, labor.unemployment_rate)
        for service, (rr, flag) in rows.items()})


# ------------------------------------------------------------ cost machinery

def read_cost_profiles_csv(path, grid: CohortGrid) -> Tables[CostProfile]:
    """Every profile of a cost file on ``grid``: a read-only mapping of
    profile id to :class:`CostProfile`, each built on access."""
    return Tables(CostProfile, *_read_cohort_table(
        path, "eur_per_capita", (0.0, math.inf), "negative per-capita cost {}",
        key="profile_id", grid=grid))


def read_ds_ratios_csv(path, grid: CohortGrid) -> Tables[DSRatioProfile]:
    """Every scenario of a D/S ratio file on ``grid``: a read-only mapping of
    scenario id to :class:`DSRatioProfile`, each built on access."""
    return Tables(DSRatioProfile, *_read_cohort_table(  # math.ulp(0.0) is the least float > 0
        path, "ratio", (math.ulp(0.0), math.inf), "D/S ratio must be > 0, got {}",
        key="scenario", grid=grid))


def read_shares_csv(path) -> ExpenditureShares:
    values = {service: fraction for service, (fraction,) in
              _read_services(path, {"fraction": float}).items()}
    missing = [s for s in SERVICES if s not in values]
    if missing:
        _fail(path, f"missing service row(s): {', '.join(missing)}")
    try:
        return ExpenditureShares(*(values[code] for code in SERVICES))
    except ValidationError as exc:
        _fail(path, str(exc))


def read_gdp_csv(path) -> dict[int, float]:
    _, columns, line, bad, stop = _read_table(path, {"date": np.int64, "eur_millions": float})
    date, v = columns["date"], columns["eur_millions"]
    first: dict[int, int] = {}  # each date's first row
    repeat = next((row for row, d in enumerate(date.tolist()) if first.setdefault(d, row) < row),
                  len(v))
    _check(path, len(v), line, stop, [
        *_parsed(columns, bad, ("date", "eur_millions")),
        (_first(v <= 0.0), lambda row: f"GDP must be positive, got {float(v[row])}"),
        (repeat, lambda row: f"duplicate date {date[row]}"),
    ])
    return dict(zip(date.tolist(), v.tolist()))


# ------------------------------------------------------------ impact results

def _fmt_values(values: Sequence[float], end: str | tuple[str, ...] = "") -> list[str]:
    """:func:`fmt_value` of every value, each followed by ``end``, in one ``%`` call.
    A tuple of ends takes the values in groups of its length, the k-th of a
    group followed by the k-th end, and gives one text per group."""
    ends = (end,) if isinstance(end, str) else end
    group = "".join(_NUMBER + e for e in ends) + "\0"
    return ((group * (len(values) // len(ends))) % tuple(values)).split("\0")[:-1]


def _by_bits(values):
    """The distinct values by float64 bit pattern, so ``-0.0`` and ``0.0``
    stay apart, and the index into them of each value, shaped as ``values``."""
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.int64)
    unique, inverse = np.unique(bits, return_inverse=True)
    return unique.view(float), inverse.reshape(np.shape(values))


def _impact_cells(row: GridRow) -> tuple:
    """The :data:`IMPACT_COLUMNS` cells of one row, its GDP share with its own GDP."""
    result = row.result
    return (row.model, row.pop_scenario, selector_text(row.rr_selector), float(row.rf),
            float(result.crimi), float(result.criui), float(result.cri), float(result.cri_gdp_pct))


def impact_columns(rows: GridResult | Iterable[GridRow]) -> list[list]:
    """The :data:`IMPACT_COLUMNS` of every cell, column by column, in row order:
    RR selectors as :func:`selector_text`, the other numbers as floats. A
    :class:`GridResult` is read off its arrays, broadcast along its (model,
    population, RR, RF) axes; other rows one by one (:func:`_impact_cells`).
    """
    if not isinstance(rows, GridResult):
        cells = list(map(_impact_cells, rows))
        return [list(column) for column in zip(*cells)] or [[] for _ in IMPACT_COLUMNS]
    cri = rows.cri
    columns = [np.array(rows.models, dtype=object)[:, None, None, None],
               np.array(rows.pop_scenarios, dtype=object)[:, None, None],
               np.array([selector_text(v) for v in rows.rr_values], dtype=object)[:, None],
               np.array(rows.rfs, dtype=float), rows.crimi[..., None], rows.criui[:, :, None],
               cri, gdp_share_pct(cri, rows.gdp)]
    return [np.broadcast_to(column, rows.shape).ravel().tolist() for column in columns]


def impact_csv_text(rows: GridResult | Iterable[GridRow]) -> str:
    """The impact CSV of ``rows``. A :class:`GridResult` is rendered along its
    axes: each column's distinct numbers are formatted in one call, each
    distinct CRI with its GDP share in the same call, and each line is five
    pieces, ``model,pop,rr,`` and ``crimi,`` per (model, population, RR),
    ``rf,`` per RF, ``criui,`` per (model, population, RF) and ``cri,gdp``
    per distinct CRI, broadcast into one array and joined once after the
    header. Other rows are written one by one (:func:`_impact_cells`)."""
    if not isinstance(rows, GridResult):
        return _csv_text(RESULTS["impact"], map(_impact_cells, rows))
    header = ",".join(IMPACT_COLUMNS) + "\n"
    (rf, rf_at), (crimi, crimi_at), (criui, criui_at), (cri, cri_at) = map(
        _by_bits, (rows.rfs, rows.crimi[..., None], rows.criui[:, :, None], rows.cri))

    def texts(values, end=","):
        return np.array(_fmt_values(values.ravel().tolist(), end), dtype=object)

    selectors = list(map(selector_text, rows.rr_values))
    pops = list(map(_quoted, rows.pop_scenarios))
    keys = [f"{m},{p},{r}," for m in rows.models for p in pops for r in selectors]
    pieces = np.empty(rows.shape + (5,), dtype=object)
    pieces[..., 0] = np.array(keys, dtype=object).reshape(crimi_at.shape)
    pieces[..., 1] = texts(rf)[rf_at]
    pieces[..., 2] = texts(crimi)[crimi_at]
    pieces[..., 3] = texts(criui)[criui_at]
    pieces[..., 4] = texts(np.stack([cri, gdp_share_pct(cri, rows.gdp)], -1), (",", "\n"))[cri_at]
    lines = pieces.ravel().tolist()
    lines.insert(0, header)
    return "".join(lines)


def write_impact_csv(rows: GridResult | Iterable[GridRow], out) -> None:
    Path(out).write_text(impact_csv_text(rows), encoding="utf-8")


def read_result_rows(path, kind: str) -> list[tuple]:
    """Each row of a result file of ``kind`` (a key of :data:`RESULTS`), its
    cells in column order as texts, ``int`` and ``float``; a file of no rows
    gives []."""
    dtypes = {c: {str: object, int: np.int64, float: float}[t] for c, t in RESULTS[kind].items()}
    _, columns, line, bad, stop = _read_table(path, dtypes)
    rows = list(zip(*(columns[c].tolist() for c in dtypes)))
    _check(path, len(rows), line, stop,
           _parsed(columns, bad, [c for c in dtypes if dtypes[c] is not object]), empty=True)
    return rows


def read_impact_csv(path) -> list[dict[str, str | float]]:
    """Parse an impact/sensitivity result table into typed row dicts."""
    return [dict(zip(IMPACT_COLUMNS, row)) for row in read_result_rows(path, "impact")]


# -------------------------------------------------------- expenditure series

def expenditure_csv_text(paths: Iterable[ExpenditurePath]) -> str:
    return _csv_text(RESULTS["expenditure"], ((p.model, p.scenario, date, v) for p in paths
                                              for date, v in zip(p.dates, p.values)))


def write_expenditure_csv(paths: Iterable[ExpenditurePath], out) -> None:
    Path(out).write_text(expenditure_csv_text(paths), encoding="utf-8")


def read_expenditure_csv(path) -> list[tuple[str, str, int, float]]:
    return read_result_rows(path, "expenditure")


# ------------------------------------------------------------- plot series

def series_csv_text(xs: Sequence[float], ys: Sequence[float]) -> str:
    if len(xs) != len(ys):
        raise ValidationError("series x and y lengths differ")
    return _csv_text(RESULTS["series"], zip(xs, ys))


def write_series_csv(xs: Sequence[float], ys: Sequence[float], out) -> None:
    Path(out).write_text(series_csv_text(xs, ys), encoding="utf-8")


def read_series_csv(path) -> list[tuple[float, float]]:
    return read_result_rows(path, "series")
