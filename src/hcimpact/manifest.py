"""Run manifests: flat key-value files that wire data files to scenarios.

Format: one ``key = value`` pair per line, ``#`` comments, nested
structure expressed with dotted keys. Relative paths resolve against the
manifest's directory. :data:`SCHEMA` declares every key once, with its
parser and default; every value present is parsed before any data file
is read, and nothing is written if any input fails validation.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import io
from .errors import ValidationError
from .expenditure import MODELS, ModelParameters
from .grid import Tables
from .impact import ScenarioConfig, ScenarioInputs, parse_selector
from .population import MortalityTable, PopulationPath
from .relative_risk import BOUNDS, ENVELOPE_POLICIES, LaborMarketState, build_rr_envelope

__all__ = ["KNOWN_KEYS", "SCHEMA", "RunManifest", "parse_manifest", "require_encodable"]


# Each parser takes the stripped text of a value and returns the value, or
# raises a ValidationError with the problem; RunManifest.value names the key.

def _problem(text: str) -> NoReturn:
    raise ValidationError(text)


def _text(text: str) -> str:
    return text or _problem("has no value")


def _items(text: str) -> list[str]:
    return [item for item in map(str.strip, text.split(",")) if item] or _problem("lists no items")


def _list(parse):
    return lambda text: [parse(item) for item in _items(text)]


def _distinct(parse):
    """``parse`` of a list whose items differ as parsed (``1.05`` repeats ``1.050``)."""
    def parse_distinct(text: str) -> list:
        values = parse(text)
        for i, v in enumerate(values):
            if v in values[:i]:
                _problem(f"{v!r} is listed twice")
        return values
    return parse_distinct


def _parsed(kind: type, text):
    try:
        return kind(text)
    except ValueError:
        _problem(f"{text!r} is not {'an integer' if kind is int else 'a number'}")


_integer, _float = partial(_parsed, int), partial(_parsed, float)


def _number(text) -> float:
    """A finite number >= 0."""
    v = _float(text)
    return v if math.isfinite(v) and v >= 0.0 else _problem(f"must be finite and >= 0, got {v}")


def _one_of(noun: str, choices: tuple[str, ...]):
    valid = ", ".join(choices)
    return lambda text: text if text in choices else _problem(
        f"unknown {noun} {text!r}; valid: {valid}")


def _selector(text: str) -> str | float:
    """A bound name, or a uniform number that is finite and >= 0."""
    sel = parse_selector(text)
    return sel if isinstance(sel, str) else _number(sel)


_REQUIRED = object()  # the default of a key that has none

#: Every key a subcommand reads: ``key: (parse, default)``. The subcommands
#: share one manifest, so a key outside this table is a typo, and
#: :func:`parse_manifest` rejects it. ``impact`` echoes the ``scenario.*``
#: keys in this order. A default an engine type declares is read off it.
SCHEMA = {
    "data.population": (_items, _REQUIRED),
    "data.mortality": (_text, _REQUIRED),
    "data.rr_mortality": (_text, _REQUIRED),
    "data.rr_utilization_lower": (_text, _REQUIRED),
    "data.rr_utilization_upper": (_text, _REQUIRED),
    "data.cost_profiles": (_text, _REQUIRED),
    "data.ds_ratios": (_text, _REQUIRED),
    "data.shares": (_text, _REQUIRED),
    "data.gdp": (_text, _REQUIRED),
    "scenario.population": (_text, _REQUIRED),
    "scenario.model": (_one_of("model", MODELS), _REQUIRED),
    "scenario.cost_profile": (_text, _REQUIRED),
    "scenario.ds_scenario": (_text, _REQUIRED),
    "scenario.rr_selection": (_selector, ScenarioConfig.rr_selection),
    "scenario.rf_selection": (_selector, ScenarioConfig.rf_selection),
    "scenario.shock_date": (_integer, ScenarioConfig.shock_date),
    "scenario.unemployment_rate": (lambda t: LaborMarketState(_float(t)).unemployment_rate, 0.10),
    "scenario.envelope_policy": (_one_of("policy", ENVELOPE_POLICIES), ENVELOPE_POLICIES[0]),
    "params.utilization": (_number, ModelParameters.utilization),
    "params.health_improvement_rate": (_number, ModelParameters.health_improvement_rate),
    "project.scenarios": (_distinct(_items), _REQUIRED),
    "project.birth_rates": (_list(_number), _REQUIRED),
    "project.initial": (_text, _REQUIRED),
    "project.horizon": (_integer, None),  # None: project_population projects to the last date
    "sensitivity.models": (_distinct(_list(_one_of("model", MODELS))), _REQUIRED),
    "sensitivity.populations": (_distinct(_items), _REQUIRED),
    "sensitivity.rr_values": (_distinct(_list(_selector)), _REQUIRED),
    "sensitivity.rf_values": (_distinct(_list(_selector)), _REQUIRED),
    "report.files": (_items, _REQUIRED),
}
KNOWN_KEYS = frozenset(SCHEMA)


def require_encodable(path, what: str) -> None:
    """Raise ``ValidationError`` naming ``what`` unless the file-system
    encoding can represent ``path``: the one check of every file name."""
    try:
        os.fsencode(path)
    except UnicodeEncodeError:
        raise ValidationError(f"{what} cannot be encoded in the file-system encoding "
                              f"{sys.getfilesystemencoding()}") from None


@dataclass
class RunManifest:
    """Parsed manifest: raw keys plus the directory they resolve against."""

    source: Path
    values: dict[str, str] = field(default_factory=dict)

    def fail(self, key: str, problem: str) -> NoReturn:
        io._fail(f"{self.source}: key {key!r}", problem)

    def value(self, key: str, check=None):
        """The value of ``key`` parsed by its :data:`SCHEMA` entry, or its
        default, passed through ``check`` if given, which returns the value
        to use; a ``ValidationError`` of either names the key."""
        parse, default = SCHEMA[key]
        if key not in self.values and default is _REQUIRED:
            io._fail(self.source, f"manifest is missing key {key!r}")
        try:
            value = parse(self.values[key]) if key in self.values else default
            return value if check is None else check(value)
        except ValidationError as exc:
            self.fail(key, str(exc))

    def get_list(self, key: str) -> list[str]:
        """The items listed under ``key``, as raw strings (parsed by :meth:`value` first)."""
        self.value(key)
        return _items(self.values[key])

    def _path(self, name: str) -> Path:
        """``name``, a file named in the manifest, resolved against it; a name
        the file-system encoding cannot represent is an input error."""
        path = self.source.parent / name
        require_encodable(path, f"file name {name!r}")
        return path

    def file(self, key: str) -> Path:
        """The file named under ``key``, resolved against the manifest."""
        return self.value(key, self._path)

    def paths(self, key: str) -> list[Path]:
        """The files listed under ``key``; relative ones resolve against the manifest."""
        return self.value(key, lambda names: list(map(self._path, names)))

    def scenario_config(self, **fixed) -> ScenarioConfig:
        """The config of the ``scenario.*`` keys; the fields in ``fixed`` take
        those values instead, and their keys are not read."""
        return ScenarioConfig(**fixed, **{f.name: self.value(f"scenario.{f.name}")
                                          for f in fields(ScenarioConfig) if f.name not in fixed})

    def load_populations(self) -> tuple[Tables[PopulationPath], MortalityTable]:
        """The population scenarios of every file, as one read-only mapping
        (see :func:`hcimpact.io.read_population_csv`), and the mortality
        table, on one grid.

        These are the only inputs a projection reads.
        """
        populations = None
        for p in self.paths("data.population"):
            paths = io.read_population_csv(p)
            if populations is not None:
                repeated = [name for name in paths if name in populations]
                if repeated:
                    io._fail(p, f"duplicate population scenario {repeated[0]!r}")
                if paths.grid != populations.grid:
                    io._fail(p, "population grids differ across files")
                paths = Tables(PopulationPath, paths.grid, populations.ids + paths.ids,
                               np.concatenate((populations.stack, paths.stack)))
            populations = paths

        path = self.file("data.mortality")
        mortality = io.read_mortality_csv(path)
        if mortality.grid != populations.grid:
            io._fail(path, "mortality table grid differs from the population grid")
        return populations, mortality

    def load_inputs(self) -> ScenarioInputs:
        """Parse every data input and assemble the scenario bundle.

        Undiluted risks are diluted with ``scenario.unemployment_rate`` and
        the mortality envelope is built with ``scenario.envelope_policy``.
        Fail-fast: any missing file or schema violation raises before the
        caller computes or writes anything.
        """
        files = {key: self.file(key) for key in SCHEMA
                 if key.startswith("data.") and key != "data.population"}
        labor = LaborMarketState(self.value("scenario.unemployment_rate"))
        policy = self.value("scenario.envelope_policy")
        populations, mortality = self.load_populations()
        grid = mortality.grid
        records = io.read_rr_mortality_csv(files["data.rr_mortality"])
        try:
            envelope = build_rr_envelope(records, labor, grid, policy=policy)
        except ValidationError as exc:  # the records cannot make one: name their file
            io._fail(files["data.rr_mortality"], str(exc))
        return ScenarioInputs(
            grid=grid, populations=populations, mortality=mortality, rr_mortality=envelope,
            rr_utilization={
                bound: io.read_rr_utilization_csv(files[f"data.rr_utilization_{bound}"], labor)
                for bound in BOUNDS
            },
            cost_profiles=io.read_cost_profiles_csv(files["data.cost_profiles"], grid),
            ds_profiles=io.read_ds_ratios_csv(files["data.ds_ratios"], grid),
            shares=io.read_shares_csv(files["data.shares"]),
            params=ModelParameters(
                utilization=self.value("params.utilization"),
                health_improvement_rate=self.value("params.health_improvement_rate"),
                gdp=io.read_gdp_csv(files["data.gdp"]),
            ),
        )


def parse_manifest(path) -> RunManifest:
    """Read a manifest and parse every value in it, before any data file is read."""
    source = Path(path)
    values: dict[str, str] = {}
    # Inside the ``with``: a bad line before a byte that is not UTF-8 is reported first.
    # Lines end only at ``\n``, ``\r`` and ``\r\n``, as for data files: ``str.splitlines``
    # would also break a comment at a form feed or U+2028.
    with io.open_text(source) as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\r\n")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                io._fail(source, f"expected 'key = value', got {raw!r}", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                io._fail(source, "empty key", lineno)
            if key not in KNOWN_KEYS:
                import difflib  # only on this error path, so start-up does not pay for it

                close = difflib.get_close_matches(key, KNOWN_KEYS, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                io._fail(source, f"unknown key {key!r}{hint}", lineno)
            if key in values:
                io._fail(source, f"duplicate key {key!r}", lineno)
            values[key] = value
    manifest = RunManifest(source=source, values=values)
    for key in values:
        manifest.value(key)
    return manifest
