"""Command-line driver.

Subcommands: ``project`` (population scenario files), ``impact`` (single
scenario evaluation), ``sensitivity`` (grid sweep), ``report`` (render
result files into aligned tables and plot series).

Every command first parses and validates all manifest inputs, then
computes its complete output set in memory, then writes; a failing input
never leaves partial output behind. Exit codes: 0 success, 2 input or
validation error, 3 internal numerical error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io
from .errors import NumericalError, ValidationError
from .expenditure import evaluate_model
from .impact import impact_row, parse_selector, sensitivity_grid
from .manifest import RunManifest, parse_manifest
from .population import BirthRateScenario, project_population
from .report import render_result_file, render_table

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _config_echo(config, rf: float | None = None) -> list[str]:
    lines = [
        f"scenario.population = {config.population}",
        f"scenario.model = {config.model}",
        f"scenario.cost_profile = {config.cost_profile}",
        f"scenario.ds_scenario = {config.ds_scenario}",
        f"scenario.rr_selection = {io.selector_text(config.rr_selection)}",
        f"scenario.rf_selection = {io.selector_text(config.rf_selection)}",
        f"scenario.shock_date = {config.shock_date}",
        f"scenario.unemployment_rate = {io.fmt_value(config.labor.unemployment_rate)}",
        f"scenario.envelope_policy = {config.envelope_policy}",
    ]
    if rf is not None:
        lines.append(f"resolved rescaling factor = {io.fmt_value(rf)}")
    return lines


# ------------------------------------------------------------------ builders
# Each builder returns ({relative filename: content}, stdout lines) without
# touching the filesystem, so runs are comparable and writes happen last.

def _build_project(manifest: RunManifest, fmt: str):
    inputs = manifest.load_inputs()
    names = manifest.get_list("project.scenarios")
    rates = manifest.get_list("project.birth_rates")
    if len(names) != len(rates):
        raise ValidationError(
            f"{manifest.source}: project.scenarios and project.birth_rates "
            "must list the same number of items"
        )
    initial_id = manifest.require("project.initial")
    if initial_id not in inputs.populations:
        raise ValidationError(
            f"unknown initial population scenario {initial_id!r}; valid ids: "
            f"{', '.join(sorted(inputs.populations))}"
        )
    horizon = manifest.get_int("project.horizon", inputs.grid.dates[-1])

    files: dict[str, str] = {}
    stdout = []
    initial = inputs.populations[initial_id].counts[:, 0]
    for name, rate_text in zip(names, rates):
        try:
            rate = float(rate_text)
        except ValueError:
            raise ValidationError(
                f"{manifest.source}: birth rate {rate_text!r} is not a number"
            ) from None
        projected = project_population(
            initial,
            inputs.mortality,
            BirthRateScenario(name=name, annual_rate=rate),
            horizon=horizon,
            scenario=name,
        )
        if fmt == "table":
            grid = projected.grid
            headers = ["cohort"] + [str(d) for d in grid.dates]
            rows = [
                [grid.cohort_label(i)] + list(projected.counts[i, :])
                for i in range(grid.n_cohorts)
            ]
            files[f"population_{name}.txt"] = render_table(headers, rows)
        else:
            files[f"population_{name}.csv"] = io.population_csv_text([projected])
        stdout.append(
            f"projected {name}: birth rate {io.fmt_value(rate)}, "
            f"{projected.grid.n_cohorts} cohorts x {projected.grid.n_dates} dates"
        )
    return files, stdout


def _build_impact(manifest: RunManifest, fmt: str):
    inputs = manifest.load_inputs()
    config = manifest.scenario_config()
    if inputs.params.gdp is None or config.shock_date not in inputs.params.gdp:
        raise ValidationError(f"GDP path does not cover the shock date {config.shock_date}")

    row = impact_row(config, inputs)
    result, rf = row.result, row.rf
    base_path = evaluate_model(  # impact_row has resolved every id
        config.model, inputs.populations[config.population],
        inputs.cost_profiles[config.cost_profile], inputs.ds_profiles[config.ds_scenario],
        inputs.mortality, inputs.params,
    )

    files: dict[str, str] = {}
    if fmt == "table":
        headers = list(io.IMPACT_COLUMNS)
        files["impact.txt"] = render_table(
            headers,
            [[
                row.model, row.pop_scenario, io.selector_text(row.rr_selector), row.rf,
                result.crimi, result.criui, result.cri, result.cri_gdp_pct,
            ]],
        )
        files["expenditure.txt"] = render_table(
            ["model", "scenario", "date", "eur_millions"],
            [[base_path.model, base_path.scenario, d, v]
             for d, v in zip(base_path.dates, base_path.values)],
        )
    else:
        files["impact.csv"] = io.impact_csv_text([row])
        files["expenditure.csv"] = io.expenditure_csv_text([base_path])

    stdout = _config_echo(config, rf)
    stdout += [
        f"crimi = {io.fmt_value(result.crimi)} EUR millions "
        f"({io.fmt_value(result.crimi_gdp_pct)}% of GDP)",
        f"criui = {io.fmt_value(result.criui)} EUR millions "
        f"({io.fmt_value(result.criui_gdp_pct)}% of GDP)",
        f"cri = {io.fmt_value(result.cri)} EUR millions "
        f"({io.fmt_value(result.cri_gdp_pct)}% of GDP)",
    ]
    return files, stdout


def _build_sensitivity(manifest: RunManifest, fmt: str):
    inputs = manifest.load_inputs()
    base = manifest.scenario_config()
    if inputs.params.gdp is None or base.shock_date not in inputs.params.gdp:
        raise ValidationError(f"GDP path does not cover the shock date {base.shock_date}")

    models = manifest.get_list("sensitivity.models")
    pops = manifest.get_list("sensitivity.populations")
    rr_values = [parse_selector(s) for s in manifest.get_list("sensitivity.rr_values")]
    rf_values = [parse_selector(s) for s in manifest.get_list("sensitivity.rf_values")]

    rows = sensitivity_grid(base, inputs, rr_values, rf_values, models, pops)

    files: dict[str, str] = {}
    if fmt == "table":
        files["sensitivity.txt"] = render_table(
            list(io.IMPACT_COLUMNS),
            [[
                r.model, r.pop_scenario, io.selector_text(r.rr_selector), r.rf,
                r.result.crimi, r.result.criui, r.result.cri, r.result.cri_gdp_pct,
            ] for r in rows],
        )
    else:
        files["sensitivity.csv"] = io.impact_csv_text(rows)

    lo = min(rows, key=lambda r: r.result.cri)
    hi = max(rows, key=lambda r: r.result.cri)
    stdout = [
        f"grid cells = {len(rows)}",
        f"CRI min = {io.fmt_value(lo.result.cri)} EUR millions "
        f"({io.fmt_value(lo.result.cri_gdp_pct)}% of GDP)",
        f"CRI max = {io.fmt_value(hi.result.cri)} EUR millions "
        f"({io.fmt_value(hi.result.cri_gdp_pct)}% of GDP)",
    ]
    return files, stdout


def _build_report(manifest: RunManifest, fmt: str):
    sources = manifest.paths("report.files")
    files: dict[str, str] = {}
    stdout = []
    for src in sources:
        table, series = render_result_file(src)
        stem = src.stem
        if table is None:
            stdout.append(f"no rows in {src.name}")
            continue
        files[f"{stem}_table.txt"] = table
        for name, xs, ys in series:
            files[f"{stem}_series_{name}.csv"] = io.series_csv_text(xs, ys)
        stdout.append(f"rendered {src.name}")
    return files, stdout


_BUILDERS = {
    "project": _build_project,
    "impact": _build_impact,
    "sensitivity": _build_sensitivity,
    "report": _build_report,
}


def _run(command: str, args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.manifest)
    builder = _BUILDERS[command]

    files, stdout = builder(manifest, args.format)
    if args.seedless:
        # the engine is seed-free by construction; verify by re-evaluating
        files2, stdout2 = builder(manifest, args.format)
        if files != files2 or stdout != stdout2:
            raise NumericalError("outputs differ between two identical evaluations")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (out_dir / name).write_text(content)
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
    for name, help_text in (
        ("project", "simulate birth-rate population scenarios and write path files"),
        ("impact", "evaluate one crisis scenario against its base"),
        ("sensitivity", "sweep the scenario grid and summarize the CRI range"),
        ("report", "render result files as aligned tables and plot series"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--manifest", required=True, help="run manifest file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
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
