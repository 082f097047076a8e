"""Command-line driver.

Subcommands: ``project`` (population scenario files), ``impact`` (single
scenario evaluation), ``sensitivity`` (grid sweep), ``report`` (render
result files into aligned tables and plot series).

Every command first parses and validates all manifest inputs, then
computes its complete output set in memory, then writes it as a whole;
neither a failing input nor a failing write leaves partial output behind.
Exit codes: 0 success, 2 input or validation error, 3 internal numerical
error.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from pathlib import Path

from . import io
from .errors import NumericalError, ValidationError
from .expenditure import evaluate_model
from .impact import impact_row, sensitivity_grid
from .manifest import SCHEMA, RunManifest, parse_manifest
from .population import BirthRateScenario, project_population
from .report import render_result_file, render_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _eur(value: float, gdp_pct: float) -> str:
    return f"{io.fmt_value(value)} EUR millions ({io.fmt_value(gdp_pct)}% of GDP)"


# ------------------------------------------------------------------ builders
# Each builder returns ({relative filename: content}, stdout lines) without
# touching the filesystem, so runs are comparable and writes happen last.

def _add_output(files, sources, name: str, content: str, source: str) -> None:
    """Add one output file named from ``source``, a manifest key or an input file.

    A name that is not a plain file name, or that an earlier output took
    (``sources`` maps each taken name to its source), is rejected.
    """
    if Path(name).name != name or "\0" in name:
        raise ValidationError(f"{source}: output name {name!r} is not a plain file name")
    if name in sources:
        both = source if sources[name] == source else f"{sources[name]} and {source}"
        raise ValidationError(f"{both}: output file {name} would be written twice")
    files[name] = content
    sources[name] = source


def _build_project(manifest: RunManifest, fmt: str):
    populations, mortality = manifest.load_populations()
    names = manifest.value("project.scenarios")
    rates = manifest.value("project.birth_rates")
    if len(names) != len(rates):
        raise ValidationError(f"{manifest.source}: project.scenarios and project.birth_rates "
                              "must list the same number of items")
    initial_id = manifest.value("project.initial")
    if initial_id not in populations:
        manifest.fail("project.initial", f"unknown initial population scenario {initial_id!r}; "
                      f"valid ids: {', '.join(sorted(populations))}")
    horizon = manifest.value("project.horizon")
    try:
        mortality.grid.date_index(mortality.grid.dates[-1] if horizon is None else horizon)
    except ValidationError as exc:
        manifest.fail("project.horizon", str(exc))

    files: dict[str, str] = {}
    sources: dict[str, str] = {}
    stdout = []
    initial = populations[initial_id].counts[:, 0]
    for name, rate in zip(names, rates):
        projected = project_population(initial, mortality, BirthRateScenario(name, rate),
                                       horizon=horizon)
        if fmt == "table":
            grid = projected.grid
            headers = ["cohort"] + [str(d) for d in grid.dates]
            rows = [[grid.cohort_label(i)] + list(projected.counts[i, :])
                    for i in range(grid.n_cohorts)]
            output = f"population_{name}.txt", render_table(headers, rows)
        else:
            output = f"population_{name}.csv", io.population_csv_text([projected])
        _add_output(files, sources, *output, "project.scenarios")
        stdout.append(f"projected {name}: birth rate {io.fmt_value(rate)}, "
                      f"{projected.grid.n_cohorts} cohorts x {projected.grid.n_dates} dates")
    return files, stdout


def _impact_inputs(manifest: RunManifest, populations: str, **fixed):
    """Inputs and base scenario of an impact evaluation, with GDP at the shock
    date and a table for each id the command uses: the population ids of the
    key ``populations``, the cost profile and the D/S scenario. The fields in
    ``fixed`` are as in :meth:`RunManifest.scenario_config`."""
    inputs = manifest.load_inputs()
    config = manifest.scenario_config(**fixed)
    if config.shock_date not in inputs.params.gdp:
        manifest.fail("scenario.shock_date", f"{manifest.file('data.gdp')}: GDP path does not "
                      f"cover the shock date {config.shock_date}")
    for key, what, tables in ((populations, "population scenario", inputs.populations),
                              ("scenario.cost_profile", "cost profile", inputs.cost_profiles),
                              ("scenario.ds_scenario", "D/S scenario", inputs.ds_profiles)):
        ids = manifest.value(key)
        for i in [ids] if isinstance(ids, str) else ids:
            if i not in tables:
                manifest.fail(key, f"unknown {what} {i!r}; valid ids: {', '.join(sorted(tables))}")
    return inputs, config


def _impact_table(stem: str, rows, fmt: str) -> dict[str, str]:
    """The impact result file of ``rows``: ``{stem}.csv`` or an aligned ``{stem}.txt``."""
    if fmt == "csv":
        return {f"{stem}.csv": io.impact_csv_text(rows)}
    cells = list(zip(*io.impact_columns(rows)))
    return {f"{stem}.txt": render_table(list(io.IMPACT_COLUMNS), cells)}


def _build_impact(manifest: RunManifest, fmt: str):
    inputs, config = _impact_inputs(manifest, "scenario.population")
    row = impact_row(config, inputs)
    result = row.result
    base_path = evaluate_model(  # impact_row has resolved every id
        config.model, inputs.populations[config.population],
        inputs.cost_profiles[config.cost_profile], inputs.ds_profiles[config.ds_scenario],
        inputs.mortality, inputs.params,
    )

    files = _impact_table("impact", [row], fmt)
    if fmt == "table":
        files["expenditure.txt"] = render_table(
            list(io.EXPENDITURE_COLUMNS),
            [[base_path.model, base_path.scenario, d, v]
             for d, v in zip(base_path.dates, base_path.values)],
        )
    else:
        files["expenditure.csv"] = io.expenditure_csv_text([base_path])

    # the resolved scenario.* keys, in the order of the manifest schema
    stdout = [f"{key} = {v if isinstance(v, (str, int)) else io.fmt_value(v)}"
              for key in SCHEMA if key.startswith("scenario.") for v in [manifest.value(key)]]
    stdout += [
        f"resolved rescaling factor = {io.fmt_value(row.rf)}",
        f"crimi = {_eur(result.crimi, result.crimi_gdp_pct)}",
        f"criui = {_eur(result.criui, result.criui_gdp_pct)}",
        f"cri = {_eur(result.cri, result.cri_gdp_pct)}",
    ]
    return files, stdout


def _build_sensitivity(manifest: RunManifest, fmt: str):
    axes = [manifest.value(f"sensitivity.{axis}")
            for axis in ("rr_values", "rf_values", "models", "populations")]
    # The grid takes its models and populations from its axes, not from scenario.*.
    inputs, base = _impact_inputs(manifest, "sensitivity.populations",
                                  model=axes[2][0], population=axes[3][0])
    grid = sensitivity_grid(base, inputs, *axes)

    cri = grid.cri.ravel()  # argmin/argmax take the first extreme cell, as min/max did
    lo, hi = grid[int(cri.argmin())].result, grid[int(cri.argmax())].result
    stdout = [
        f"grid cells = {len(grid)}",
        f"CRI min = {_eur(lo.cri, lo.cri_gdp_pct)}",
        f"CRI max = {_eur(hi.cri, hi.cri_gdp_pct)}",
    ]
    return _impact_table("sensitivity", grid, fmt), stdout


def _build_report(manifest: RunManifest):
    files: dict[str, str] = {}
    sources: dict[str, str] = {}
    stdout = []
    for src in manifest.paths("report.files"):
        table, series = render_result_file(src)
        if table is None:
            stdout.append(f"no rows in {src.name}")
            continue
        _add_output(files, sources, f"{src.stem}_table.txt", table, str(src))
        for name, xs, ys in series:
            text = io.series_csv_text(xs, ys)
            _add_output(files, sources, f"{src.stem}_series_{name}.csv", text, str(src))
        stdout.append(f"rendered {src.name}")
    return files, stdout


def _write_outputs(out_dir: Path, files: dict[str, str]) -> None:
    """Write every file or none: each goes to a temporary file in ``out_dir``,
    and only once all writes succeeded are they renamed onto their targets.
    On a failed write, or a directory where a target goes, the temporary
    files are removed and no target changes.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[tuple[Path, Path]] = []
    try:
        for name, content in files.items():
            temp = out_dir / f".{name}.{os.getpid()}.tmp"
            with open(temp, "x", encoding="utf-8") as fh:
                written.append((temp, out_dir / name))
                fh.write(content)
        for _, target in written:  # a rename cannot replace a directory
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for temp, target in written:
            os.replace(temp, target)
    finally:
        for temp, _ in written:
            temp.unlink(missing_ok=True)


_COMMANDS = {  # name: (builder, help text)
    "project": (_build_project, "simulate birth-rate population scenarios and write path files"),
    "impact": (_build_impact, "evaluate one crisis scenario against its base"),
    "sensitivity": (_build_sensitivity, "sweep the scenario grid and summarize the CRI range"),
    "report": (_build_report, "render result files as aligned tables and plot series"),
}


def _run(command: str, args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.manifest)
    builder = _COMMANDS[command][0]
    inputs = (manifest, args.format) if "format" in args else (manifest,)

    files, stdout = builder(*inputs)
    if args.seedless:
        # the engine is seed-free by construction; verify by re-evaluating
        files2, stdout2 = builder(*inputs)
        if files != files2 or stdout != stdout2:
            raise NumericalError("outputs differ between two identical evaluations")

    _write_outputs(Path(args.out), files)
    if hasattr(sys.stdout, "reconfigure"):  # escape what the locale's codec cannot encode
        sys.stdout.reconfigure(errors="backslashreplace")
    for line in stdout:
        print(line)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hcimpact",
        description="Deterministic differential impact of an unemployment shock "
        "on public healthcare expenditure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="run manifest file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if name != "report":  # report always writes aligned tables and csv series
            p.add_argument(
                "--format", choices=("csv", "table"), default="csv",
                help="delimited text or formatted tables (default: csv)",
            )
        p.add_argument(
            "--seedless", action="store_true",
            help="assert determinism by evaluating twice and comparing",
        )

    args = parser.parse_args(argv)
    try:
        return _run(args.command, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
