#!/usr/bin/env python3
"""The differential impact estimators on the bundled scenario.

Both estimators difference the same expenditure functional at the 2015
shock date: once with mortality rescaled by the per-cohort risk envelope
(mortality impact), once with the cost profile rescaled by the
service-mix factor (utilization impact). Everything else is held equal,
so base-scenario noise nets out.
"""

from dataclasses import replace
from pathlib import Path

from hcimpact.impact import impact_row
from hcimpact.manifest import parse_manifest

DATA = Path(__file__).resolve().parents[1] / "data"


def main() -> None:
    manifest = parse_manifest(DATA / "manifest.txt")
    inputs = manifest.load_inputs()
    base = manifest.scenario_config()

    print("bounds for the crisis impact at the 2015 shock date\n")
    print("model  bound   rf       crimi      criui        cri    % GDP")
    print("-" * 62)
    for model in ("PD", "CH", "DC"):
        for bound in ("lower", "upper"):
            config = replace(base, model=model, rr_selection=bound, rf_selection=bound)
            row = impact_row(config, inputs)
            result, rf = row.result, row.rf
            print(
                f"{model:<5s}  {bound:<6s} {rf:.5f} {result.crimi:>10.1f} "
                f"{result.criui:>10.1f} {result.cri:>10.1f}    {result.cri_gdp_pct:.3f}"
            )

    print("\nmortality enters PD and CH only through the (pre-shock) population,")
    print("so their mortality component vanishes at the shock date; the")
    print("death-related-costs model carries the whole mortality impact.")


if __name__ == "__main__":
    main()
