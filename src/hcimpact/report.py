"""Rendering of result files: aligned text tables and plot-ready series.

The engine never draws; it emits tables for reading and x/y series files
for external plotting tools. Result files are recognized by their exact
header, so anything the engine wrote can be rendered back.
"""

from __future__ import annotations

import csv

from . import io
from .errors import ValidationError

__all__ = ["render_table", "sniff_schema", "render_result_file"]

_SCHEMAS = {",".join(columns): kind for kind, columns in io.RESULTS.items()}  # header: kind


def _cell(value) -> tuple[str, bool]:
    """A table cell's text and whether it is right-aligned: a number at 1
    decimal, right; an integer verbatim, right unless it is a bool; a text
    verbatim, right if ``float`` reads it."""
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return value, False
        return value, True
    if isinstance(value, int):
        return str(value), not isinstance(value, bool)
    return f"{float(value):.1f}", True


def render_table(headers: list[str], rows: list[list]) -> str:
    """Align columns under their headers, each row holding a cell per header;
    numeric cells right-aligned (see :func:`_cell`)."""
    widths, columns = [], []  # each column's width and its padded cells
    for i, header in enumerate(headers):
        cells = [_cell(row[i]) for row in rows]
        width = max([len(header), *(len(text) for text, _ in cells)])
        widths.append(width)
        columns.append([text.rjust(width) if right else text.ljust(width) for text, right in cells])
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    lines += [line.rstrip() for line in map("  ".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def sniff_schema(path) -> tuple[str, bool]:
    """Identify a result file by its header line, in one pass over the file:
    its kind, and whether a later row has a non-blank cell."""
    with io.open_text(path) as fh:
        reader = csv.reader(fh)
        header_row = next(reader, None)
        if header_row is None:
            raise ValidationError(f"{path}: empty file, expected a header row")
        header = ",".join(h.strip() for h in header_row)
        if header not in _SCHEMAS:
            raise ValidationError(f"{path}: unknown result file schema ({header!r})")
        return _SCHEMAS[header], any(any(cell.strip() for cell in row) for row in reader)


def render_result_file(path) -> tuple[str | None, list[tuple[str, list[float], list[float]]]]:
    """Render one result file.

    Returns (table text or None when the file has no rows, list of
    (series name, xs, ys) ready to be written as plot series).
    """
    schema, has_rows = sniff_schema(path)
    if not has_rows:
        return None, []

    series = []
    if schema == "population":  # a row per scenario and cohort, a total series per scenario
        paths = io.read_population_csv(path)
        grid = paths.grid
        rows = []
        for name, p in paths.items():
            rows += ([name, grid.cohort_label(i), *p.counts[i, :]] for i in range(grid.n_cohorts))
            series.append((f"{name}_total", [float(d) for d in grid.dates], list(p.totals())))
        return render_table(["scenario", "cohort", *map(str, grid.dates)], rows), series

    rows = io.read_result_rows(path, schema)
    if schema == "expenditure":  # a series per (model, scenario)
        points: dict[tuple[str, str], tuple[list, list]] = {}
        for model, scenario, date, value in rows:
            xs, ys = points.setdefault((model, scenario), ([], []))
            xs.append(float(date))
            ys.append(value)
        series = [(f"{m}_{s}", xs, ys) for (m, s), (xs, ys) in points.items()]
    return render_table(list(io.RESULTS[schema]), rows), series
