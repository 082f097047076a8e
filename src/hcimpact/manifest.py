"""Run manifests: flat key-value files that wire data files to scenarios.

Format: one ``key = value`` pair per line, ``#`` comments, nested
structure expressed with dotted keys. Relative paths resolve against the
manifest's directory. All referenced input files are located and parsed
before any computation starts; nothing is written if any of them fails
validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

from . import io
from .errors import ValidationError
from .expenditure import ModelParameters
from .impact import ScenarioConfig, ScenarioInputs, parse_selector
from .population import MortalityTable, PopulationPath
from .relative_risk import ENVELOPE_POLICIES, LaborMarketState, build_rr_envelope

__all__ = ["RunManifest", "parse_manifest"]

#: data.* keys a full impact evaluation needs.
IMPACT_DATA_KEYS = (
    "data.population",
    "data.mortality",
    "data.rr_mortality",
    "data.rr_utilization_lower",
    "data.rr_utilization_upper",
    "data.cost_profiles",
    "data.ds_ratios",
    "data.shares",
    "data.gdp",
)

#: Every key a subcommand reads. The subcommands share one manifest, so a
#: key that none of them reads is a typo, and :func:`parse_manifest` rejects it.
KNOWN_KEYS = frozenset(IMPACT_DATA_KEYS + (
    "scenario.population", "scenario.model", "scenario.cost_profile", "scenario.ds_scenario",
    "scenario.rr_selection", "scenario.rf_selection", "scenario.shock_date",
    "scenario.unemployment_rate", "scenario.envelope_policy",
    "params.utilization", "params.health_improvement_rate",
    "project.scenarios", "project.birth_rates", "project.initial", "project.horizon",
    "sensitivity.models", "sensitivity.populations", "sensitivity.rr_values",
    "sensitivity.rf_values", "report.files",
))


@dataclass
class RunManifest:
    """Parsed manifest: raw keys plus the directory they resolve against."""

    source: Path
    values: dict[str, str] = field(default_factory=dict)

    # -------------------------------------------------------------- accessors

    def fail(self, key: str, problem: str) -> NoReturn:
        raise ValidationError(f"{self.source}: key {key!r}: {problem}") from None

    def require(self, key: str) -> str:
        if key not in self.values:
            raise ValidationError(f"{self.source}: manifest is missing key {key!r}")
        return self.values[key]

    def number(self, key: str, default, kind: type = float):
        """The value of ``key`` parsed as ``kind`` (float or int), or ``default``."""
        raw = self.values.get(key)
        if raw is None:
            return default
        try:
            return kind(raw)
        except ValueError:
            self.fail(key, f"{raw!r} is not {'an integer' if kind is int else 'a number'}")

    def nonnegative(self, key: str, default: float) -> float:
        """The value of ``key`` as a finite number >= 0, or ``default``."""
        v = self.number(key, default)
        if not math.isfinite(v) or v < 0.0:
            self.fail(key, f"must be finite and >= 0, got {v}")
        return v

    def get_list(self, key: str) -> list[str]:
        raw = self.require(key)
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if not items:
            raise ValidationError(f"{self.source}: key {key!r} lists no items")
        return items

    def paths(self, key: str) -> list[Path]:
        """The files listed under ``key``; relative ones resolve against the manifest."""
        return [self.source.parent / item for item in self.get_list(key)]

    # ---------------------------------------------------------- scenario glue

    def risk_settings(self) -> tuple[LaborMarketState, str]:
        """Unemployment rate and envelope policy: applied when risks are loaded."""
        rate = self.number("scenario.unemployment_rate", 0.10)
        try:
            labor = LaborMarketState(rate)
        except ValidationError as exc:
            self.fail("scenario.unemployment_rate", str(exc))
        policy = self.values.get("scenario.envelope_policy", "population_level")
        if policy not in ENVELOPE_POLICIES:
            valid = ", ".join(ENVELOPE_POLICIES)
            self.fail("scenario.envelope_policy", f"unknown policy {policy!r}; valid: {valid}")
        return labor, policy

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(
            population=self.require("scenario.population"),
            model=self.require("scenario.model"),
            cost_profile=self.require("scenario.cost_profile"),
            ds_scenario=self.require("scenario.ds_scenario"),
            rr_selection=parse_selector(self.values.get("scenario.rr_selection", "upper")),
            rf_selection=parse_selector(self.values.get("scenario.rf_selection", "upper")),
            shock_date=self.number("scenario.shock_date", 2015, int),
        )

    def load_populations(self) -> tuple[dict[str, PopulationPath], MortalityTable]:
        """The population scenarios and the mortality table, on one grid.

        These are the only inputs a projection reads.
        """
        populations = {}
        grid = None
        for p in self.paths("data.population"):
            for name, path_obj in io.read_population_csv(p).items():
                if name in populations:
                    raise ValidationError(f"{p}: duplicate population scenario {name!r}")
                populations[name] = path_obj
                if grid is None:
                    grid = path_obj.grid
                elif path_obj.grid != grid:
                    raise ValidationError(f"{p}: population grids differ across files")

        mortality = io.read_mortality_csv(self.source.parent / self.require("data.mortality"))
        if mortality.grid != grid:
            raise ValidationError("mortality table grid differs from the population grid")
        return populations, mortality

    def load_inputs(self) -> ScenarioInputs:
        """Parse every data input and assemble the scenario bundle.

        Undiluted risks are diluted with the manifest's unemployment rate
        and the mortality envelope is built with its envelope policy
        (:meth:`risk_settings`). Fail-fast: any missing file or schema
        violation raises before the caller computes or writes anything.
        """
        files = {key: self.source.parent / self.require(key) for key in IMPACT_DATA_KEYS}
        labor, policy = self.risk_settings()
        utilization = self.nonnegative("params.utilization", 1.0)
        health_improvement_rate = self.nonnegative("params.health_improvement_rate", 0.25)
        populations, mortality = self.load_populations()
        grid = mortality.grid

        records = io.read_rr_mortality_csv(files["data.rr_mortality"])
        rr_mortality = build_rr_envelope(records, labor, grid, policy=policy)
        rr_utilization = {
            bound: io.read_rr_utilization_csv(files[f"data.rr_utilization_{bound}"], labor)
            for bound in ("lower", "upper")
        }
        cost_profiles = io.read_cost_profiles_csv(files["data.cost_profiles"], grid)
        ds_profiles = io.read_ds_ratios_csv(files["data.ds_ratios"], grid)
        shares = io.read_shares_csv(files["data.shares"])
        params = ModelParameters(
            utilization=utilization,
            health_improvement_rate=health_improvement_rate,
            gdp=io.read_gdp_csv(files["data.gdp"]),
        )
        return ScenarioInputs(
            grid=grid,
            populations=populations,
            mortality=mortality,
            rr_mortality=rr_mortality,
            rr_utilization=rr_utilization,
            cost_profiles=cost_profiles,
            ds_profiles=ds_profiles,
            shares=shares,
            params=params,
        )


def parse_manifest(path) -> RunManifest:
    source = Path(path)
    with io.open_text(source) as fh:
        text = fh.read()
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ValidationError(f"{source}:{lineno}: empty key")
        if key not in KNOWN_KEYS:
            import difflib  # only on this error path, so start-up does not pay for it

            close = difflib.get_close_matches(key, KNOWN_KEYS, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValidationError(f"{source}:{lineno}: unknown key {key!r}{hint}")
        if key in values:
            raise ValidationError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return RunManifest(source=source, values=values)
