"""Independent numpy oracle for the benchmark's output checks.

It reads the manifest and the CSV inputs with the ``csv`` module and
recomputes, from the documented formulas, the three expenditure models
(PD, CH, DC) at the shock date under base, shocked and rescaled inputs.
It does not import ``hcimpact``, so a defect in the engine cannot hide
in the reference.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SERVICES = ("H", "P", "S", "GP", "R", "m")
_TO_EUR_MILLIONS = 1e-3


def _rows(path: Path):
    with path.open(newline="") as fh:
        yield from csv.DictReader(fh)


def _dilute(rr: float, w: float) -> float:
    return rr if w == 1.0 else 1.0 + w * (rr - 1.0)


def _per_cohort(path: Path, key: str, value: str, cohorts: list[int]) -> dict[str, np.ndarray]:
    cells: dict[str, dict[int, float]] = {}
    for row in _rows(path):
        cells.setdefault(row[key], {})[int(row["cohort_lo"])] = float(row[value])
    return {k: np.array([v[c] for c in cohorts]) for k, v in cells.items()}


@dataclass(frozen=True)
class Cell:
    base: float
    shocked: float
    rescaled: float
    rf: float
    gdp: float

    @property
    def crimi(self) -> float:
        return self.shocked - self.base

    @property
    def criui(self) -> float:
        return self.rescaled - self.base


class Oracle:
    """Reference values for one manifest's inputs.

    ``populations`` limits which population scenarios are kept in memory
    (all when None), so large input sets stream through.
    """

    def __init__(self, manifest: Path, populations=None):
        self.values = self.read_manifest(manifest)
        here = manifest.parent
        data = lambda key: here / self.values[key]  # noqa: E731

        mort: dict[tuple[int, int], float] = {}
        for row in _rows(data("data.mortality")):
            mort[(int(row["cohort_lo"]), int(row["date"]))] = float(row["pd_5yr"])
        self.cohorts = sorted({c for c, _ in mort})
        self.dates = sorted({d for _, d in mort})
        self.pd = np.array([[mort[(c, d)] for d in self.dates] for c in self.cohorts])

        keep = None if populations is None else set(populations)
        pops: dict[str, dict[tuple[int, int], float]] = {}
        for path in self.values["data.population"].split(","):
            for row in _rows(here / path.strip()):
                if keep is None or row["scenario"] in keep:
                    cell = (int(row["cohort_lo"]), int(row["date"]))
                    pops.setdefault(row["scenario"], {})[cell] = float(row["count_thousands"])
        self.pops = {
            k: np.array([[v[(c, d)] for d in self.dates] for c in self.cohorts])
            for k, v in pops.items()
        }

        self.costs = _per_cohort(data("data.cost_profiles"), "profile_id", "eur_per_capita", self.cohorts)
        self.ds = _per_cohort(data("data.ds_ratios"), "scenario", "ratio", self.cohorts)
        self.gdp = {int(r["date"]): float(r["eur_millions"]) for r in _rows(data("data.gdp"))}
        self.w = float(self.values.get("scenario.unemployment_rate", "0.10"))
        self.rate = float(self.values.get("params.health_improvement_rate", "0.25"))
        self.util = float(self.values.get("params.utilization", "1.0"))

        shares = {r["service"]: float(r["fraction"]) for r in _rows(data("data.shares"))}
        self.rf_bounds = {}
        for bound in ("lower", "upper"):
            rr = {s: 1.0 for s in SERVICES}
            for r in _rows(data(f"data.rr_utilization_{bound}")):
                v = float(r["rr"])
                rr[r["service"]] = v if r["diluted"] == "1" else _dilute(v, self.w)
            self.rf_bounds[bound] = sum(rr[s] * shares[s] for s in SERVICES)

        self.rr_lower, self.rr_upper = self._envelope(data("data.rr_mortality"))

    @staticmethod
    def read_manifest(path: Path) -> dict[str, str]:
        values = {}
        for raw in path.read_text().splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
        return values

    def _envelope(self, path: Path) -> tuple[np.ndarray, np.ndarray]:
        """Intersection of covering intervals; population-level records win when disjoint."""
        recs = []
        for r in _rows(path):
            pop_level = r["diluted"] == "1"
            lo, hi = float(r["rr_lower"]), float(r["rr_upper"])
            if not pop_level:
                lo, hi = _dilute(lo, self.w), _dilute(hi, self.w)
            recs.append((int(r["cohort_lo"]), int(r["cohort_hi"]), lo, hi, pop_level))
        lower, upper = [], []
        for start in self.cohorts:
            cover = [r for r in recs if r[0] <= start <= r[1]]
            lo, hi = max(r[2] for r in cover), min(r[3] for r in cover)
            if lo > hi:
                pop = [r for r in cover if r[4]]
                lo, hi = max(r[2] for r in pop), min(r[3] for r in pop)
            lower.append(lo)
            upper.append(hi)
        return np.array(lower), np.array(upper)

    def _value(self, model: str, counts: np.ndarray, costs: np.ndarray, ds: np.ndarray,
               pd: np.ndarray, j: int) -> float:
        u = np.full(len(self.cohorts), self.util)
        if model == "PD":
            per_capita = costs
        elif model == "CH":
            mids = np.array(self.cohorts) + 2.5
            shift = self.rate * (self.dates[j] - self.dates[0])
            per_capita = np.interp(mids - shift, mids, costs)
        else:  # DC: survivor/decedent split solved at the base date
            pd1_base = 1.0 - (1.0 - pd[:, 0]) ** 0.2
            survivor = costs / (1.0 + pd1_base * (ds - 1.0))
            pd1 = 1.0 - (1.0 - pd[:, j]) ** 0.2
            per_capita = survivor * (1.0 - pd1) + ds * survivor * pd1
        return float(counts[:, j] @ (u * per_capita)) * _TO_EUR_MILLIONS

    def cell(self, model: str, population: str, cost_profile: str, ds_scenario: str,
             rr_selector, rf_selector, shock_date: int) -> Cell:
        j = self.dates.index(shock_date)
        counts, costs, ds = self.pops[population], self.costs[cost_profile], self.ds[ds_scenario]
        if isinstance(rr_selector, str):
            rr = self.rr_lower if rr_selector == "lower" else self.rr_upper
        else:
            rr = np.full(len(self.cohorts), float(rr_selector))
        rf = self.rf_bounds[rf_selector] if isinstance(rf_selector, str) else float(rf_selector)
        shocked_pd = self.pd.copy()
        shocked_pd[:, j] = np.clip(shocked_pd[:, j] * rr, 0.0, 1.0)
        return Cell(
            base=self._value(model, counts, costs, ds, self.pd, j),
            shocked=self._value(model, counts, costs, ds, shocked_pd, j),
            rescaled=self._value(model, counts, costs * rf, ds, self.pd, j),
            rf=rf,
            gdp=self.gdp[shock_date],
        )


#: absolute floor, as a share of the base value, for differentials that cancel to ~0
CANCELLATION = 1e-12


def check_result(where: str, model: str, crimi: float, criui: float, cri_gdp_pct: float,
                 rf: float, ref: Cell, rtol: float = 1e-9) -> list[str]:
    """Compare one engine result with its oracle cell; return the problems found.

    Each value must match within ``rtol`` of itself, plus
    ``CANCELLATION`` times the base value it is a difference of.
    """
    problems = []

    def close(name: str, got: float, want: float, base: float) -> None:
        if not abs(got - want) <= rtol * abs(want) + CANCELLATION * abs(base):
            problems.append(f"{where}: {name} = {got!r}, oracle {want!r}")

    close("rf", rf, ref.rf, 0.0)
    close("crimi", crimi, ref.crimi, ref.base)
    close("criui", criui, ref.criui, ref.base)
    close("criui vs (rf-1)*base", criui, (rf - 1.0) * ref.base, ref.base)
    close("cri_gdp_pct", cri_gdp_pct, (ref.crimi + ref.criui) / ref.gdp * 100.0,
          ref.base / ref.gdp * 100.0)
    if model in ("PD", "CH") and crimi != 0.0:
        problems.append(f"{where}: crimi = {crimi!r} on {model}, must be exactly 0")
    return problems
