#!/usr/bin/env python3
"""Seeded inputs for the hcimpact benchmark.

Two things come from here: the random axis values of the ``sweep``
workload and the large input set of the ``ingest`` workload. Like
``tools/make_fixtures.py`` this module does not import ``hcimpact``, so
the benchmark's inputs are data and never engine output. The same seed
always gives the same inputs (``random.Random`` streams are stable
across Python versions).

Run as a script to write an ingest input set:

    python3 benchmarks/gen.py --seed 7 --out some/dir
"""

from __future__ import annotations

import argparse
import random
from pathlib import Path

COHORTS = tuple(range(0, 100, 5))
DATES = tuple(range(2010, 2061, 5))

SWEEP_MODELS = ("PD", "CH", "DC")
SWEEP_POPULATIONS = ("PopMV", "PopHV", "PopLV", "PopCFV")
N_SEEDED_SELECTORS = 18
RR_RANGE = (0.9, 1.6)
RF_RANGE = (1.0, 1.1)

INGEST_SCENARIOS = 400
INGEST_RECORDS = 2000
INGEST_MODELS = ("PD", "CH", "DC")  # one manifest each, used in turn

# smooth shapes the seeded variants are drawn around
_POP_SHAPE = (
    2850, 2800, 2850, 2950, 3050, 3350, 3800, 4450, 4850, 4650,
    4100, 3750, 3700, 3250, 3000, 2550, 1900, 1150, 450, 100,
)
_PD_SHAPE = (
    0.0040, 0.0005, 0.0006, 0.0012, 0.0016, 0.0018, 0.0022, 0.0030,
    0.0046, 0.0072, 0.0115, 0.0180, 0.0280, 0.0460, 0.0760, 0.1280,
    0.2200, 0.3700, 0.5600, 0.7500,
)
_COST_SHAPE = (
    1400, 800, 750, 850, 950, 1050, 1150, 1250, 1350, 1500,
    1700, 1950, 2300, 2800, 3400, 4100, 4900, 5600, 6100, 6400,
)


def sweep_axes(seed: int) -> tuple[list, list]:
    """Mortality-RR and RF selectors: both bounds plus 18 seeded uniform values."""
    rng = random.Random(seed)
    rr = ["lower", "upper"] + [rng.uniform(*RR_RANGE) for _ in range(N_SEEDED_SELECTORS)]
    rf = ["lower", "upper"] + [rng.uniform(*RF_RANGE) for _ in range(N_SEEDED_SELECTORS)]
    return rr, rf


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def write_ingest_inputs(seed: int, out: Path) -> list[Path]:
    """Write the ingest input set and one manifest per model; return the manifests."""
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)

    lines = ["scenario,date,cohort_lo,cohort_hi,count_thousands"]
    for k in range(INGEST_SCENARIOS):
        scale = rng.uniform(0.5, 1.5)
        growth = rng.uniform(-0.01, 0.01)
        for lo, base in zip(COHORTS, _POP_SHAPE):
            level = base * scale * rng.uniform(0.9, 1.1)
            for step, date in enumerate(DATES):
                count = level * (1.0 + growth) ** step * rng.uniform(0.98, 1.02)
                lines.append(f"Pop{k:03d},{date},{lo},{lo + 4},{count:.3f}")
    _write(out / "population.csv", lines)

    lines = ["date,cohort_lo,cohort_hi,pd_5yr,life_expectancy"]
    decline = rng.uniform(0.980, 0.995)
    for lo, q0 in zip(COHORTS, _PD_SHAPE):
        q0 *= rng.uniform(0.9, 1.1)
        for date in DATES:
            q = min(1.0, q0 * decline ** (date - 2010))
            le = max(2.5, 82.0 - lo) + 0.25 * (date - 2010)
            lines.append(f"{date},{lo},{lo + 4},{q:.6f},{le:.2f}")
    _write(out / "mortality.csv", lines)

    # Mostly undiluted study records over random age ranges. A full-range
    # population-level record plus a few narrower ones, all overlapping on
    # [1.02, 1.05], keep the envelope defined for every cohort.
    lines = [
        "cohort_lo,cohort_hi,rr_lower,rr_upper,diluted,source_tag",
        "0,99,1.000,1.080,1,anchor",
    ]
    for k in range(1, INGEST_RECORDS):
        lo = rng.randrange(0, 96)
        hi = rng.randrange(lo, 100)
        if rng.random() < 0.05:
            rl, ru, diluted = rng.uniform(1.0, 1.02), rng.uniform(1.05, 1.10), 1
        else:
            rl = rng.uniform(1.0, 2.5)
            ru, diluted = rl + rng.uniform(0.0, 1.5), 0
        lines.append(f"{lo},{hi},{rl:.4f},{ru:.4f},{diluted},study{k:04d}")
    _write(out / "rr_mortality.csv", lines)

    lower = {"H": rng.uniform(1.2, 1.5), "S": rng.uniform(1.4, 1.8), "GP": rng.uniform(1.1, 1.3)}
    for bound, extra in (("lower", 0.0), ("upper", 1.0)):
        lines = ["service,rr,diluted"]
        for code, rr in lower.items():
            lines.append(f"{code},{rr + extra * rng.uniform(0.0, 0.6):.4f},0")
        lines += ["P,1.00,1", "R,1.00,1", "m,1.00,1"]
        _write(out / f"rr_utilization_{bound}.csv", lines)

    lines = ["profile_id,cohort_lo,cohort_hi,eur_per_capita"]
    for k in range(INGEST_SCENARIOS):
        scale, tilt = rng.uniform(0.8, 1.2), rng.uniform(-0.15, 0.15)
        for lo, c in zip(COHORTS, _COST_SHAPE):
            lines.append(f"ARC{k:03d},{lo},{lo + 4},{c * scale * (1.0 + tilt * lo / 100.0):.2f}")
    _write(out / "cost_profile.csv", lines)

    lines = ["scenario,cohort_lo,cohort_hi,ratio"]
    for k in range(INGEST_SCENARIOS):
        stretch = rng.uniform(0.6, 1.4)
        for lo in COHORTS:
            central = min(16.0, max(2.2, 16.0 - 0.14 * (lo + 2.5)))
            lines.append(f"DS{k:03d},{lo},{lo + 4},{1.0 + (central - 1.0) * stretch:.3f}")
    _write(out / "ds_ratio.csv", lines)

    # integer percentages, so the parsed fractions sum to 1 within 1e-9
    h, p, s, gp, r = (rng.randint(60, 72), rng.randint(8, 12), rng.randint(3, 6),
                      rng.randint(4, 8), rng.randint(1, 3))
    shares = {"H": h, "P": p, "S": s, "GP": gp, "R": r, "m": 100 - h - p - s - gp - r}
    _write(out / "shares.csv", ["service,fraction"] + [f"{c},{v / 100:.2f}" for c, v in shares.items()])

    gdp0 = rng.uniform(1.4e6, 1.6e6)
    _write(out / "gdp.csv", ["date,eur_millions"] + [
        f"{date},{gdp0 * 1.02 ** ((date - 2010) / 5):.0f}" for date in DATES
    ])

    manifests = []
    for model in INGEST_MODELS:
        path = out / f"manifest_{model}.txt"
        _write(path, [
            "data.population = population.csv",
            "data.mortality = mortality.csv",
            "data.rr_mortality = rr_mortality.csv",
            "data.rr_utilization_lower = rr_utilization_lower.csv",
            "data.rr_utilization_upper = rr_utilization_upper.csv",
            "data.cost_profiles = cost_profile.csv",
            "data.ds_ratios = ds_ratio.csv",
            "data.shares = shares.csv",
            "data.gdp = gdp.csv",
            f"scenario.population = Pop{rng.randrange(INGEST_SCENARIOS):03d}",
            f"scenario.model = {model}",
            f"scenario.cost_profile = ARC{rng.randrange(INGEST_SCENARIOS):03d}",
            f"scenario.ds_scenario = DS{rng.randrange(INGEST_SCENARIOS):03d}",
            f"scenario.rr_selection = {rng.choice(('lower', 'upper'))}",
            f"scenario.rf_selection = {rng.choice(('lower', 'upper'))}",
            f"scenario.shock_date = {rng.choice(DATES[1:])}",
            "scenario.unemployment_rate = 0.10",
            "scenario.envelope_policy = population_level",
            "params.health_improvement_rate = 0.25",
            "params.utilization = 1.0",
        ])
        manifests.append(path)
    return manifests


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_ingest_inputs(args.seed, args.out)


if __name__ == "__main__":
    main()
