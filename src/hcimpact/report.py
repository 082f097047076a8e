"""Rendering of result files: aligned text tables and plot-ready series.

The engine never draws; it emits tables for reading and x/y series files
for external plotting tools. Result files are recognized by their exact
header, so anything the engine wrote can be rendered back.
"""

from __future__ import annotations

import csv

from . import io
from .errors import ValidationError

__all__ = ["render_table", "fmt_cell", "sniff_schema", "render_result_file"]

_SCHEMAS = {
    ",".join(io.IMPACT_COLUMNS): "impact",
    ",".join(io.EXPENDITURE_COLUMNS): "expenditure",
    ",".join(io.POPULATION_COLUMNS): "population",
    ",".join(io.SERIES_COLUMNS): "series",
}


def fmt_cell(value) -> str:
    """Formatted-table cell: numbers at 1 decimal, text verbatim."""
    if isinstance(value, bool) or isinstance(value, str):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return f"{float(value):.1f}"


def render_table(headers: list[str], rows: list[list]) -> str:
    """Align columns under their headers; numeric cells right-aligned."""
    cells = [[fmt_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))

    def _is_num(text: str) -> bool:
        try:
            float(text)
            return True
        except ValueError:
            return False

    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append(
            "  ".join(
                (c.rjust(w) if _is_num(c) else c.ljust(w)) for c, w in zip(row, widths)
            ).rstrip()
        )
    return "\n".join(lines) + "\n"


def sniff_schema(path) -> str:
    """Identify a result file by its header line."""
    with io.open_text(path) as fh:
        header_row = next(csv.reader(fh), None)
    if header_row is None:
        raise ValidationError(f"{path}: empty file, expected a header row")
    header = ",".join(h.strip() for h in header_row)
    if header not in _SCHEMAS:
        raise ValidationError(f"{path}: unknown result file schema ({header!r})")
    return _SCHEMAS[header]


def _has_rows(path) -> bool:
    with io.open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader, None)  # header
        return any(any(cell.strip() for cell in row) for row in reader)


def render_result_file(path) -> tuple[str | None, list[tuple[str, list[float], list[float]]]]:
    """Render one result file.

    Returns (table text or None when the file has no rows, list of
    (series name, xs, ys) ready to be written as plot series).
    """
    schema = sniff_schema(path)
    if not _has_rows(path):
        return None, []

    if schema == "impact":
        rows = io.read_impact_csv(path)
        headers = list(io.IMPACT_COLUMNS)
        table = render_table(headers, [[r[h] for h in headers] for r in rows])
        return table, []

    if schema == "expenditure":
        rows = io.read_expenditure_csv(path)
        table = render_table(list(io.EXPENDITURE_COLUMNS), [list(row) for row in rows])
        series = []
        for model, scenario in dict.fromkeys((m, s) for m, s, _, _ in rows):
            pts = [(d, v) for m, s, d, v in rows if (m, s) == (model, scenario)]
            series.append(
                (f"{model}_{scenario}", [float(d) for d, _ in pts], [v for _, v in pts])
            )
        return table, series

    if schema == "population":
        paths = io.read_population_csv(path)
        grid = paths.grid
        headers = ["scenario", "cohort"] + [str(d) for d in grid.dates]
        rows = []
        for name, p in paths.items():
            for i in range(grid.n_cohorts):
                rows.append([name, grid.cohort_label(i)] + list(p.counts[i, :]))
        table = render_table(headers, rows)
        series = [
            (f"{name}_total", [float(d) for d in grid.dates], list(paths[name].totals()))
            for name in paths
        ]
        return table, series

    # plain series file: table it back, no derived series
    pts = io.read_series_csv(path)
    table = render_table(list(io.SERIES_COLUMNS), [list(xy) for xy in pts])
    return table, []
