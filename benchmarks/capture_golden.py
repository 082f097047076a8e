#!/usr/bin/env python3
"""Capture the benchmark's golden outputs from the code in this checkout.

Writes ``golden/cli/<subcommand>/`` (each subcommand's output files on
the bundled manifest) and ``golden/sweep.json`` (the sha256 of the full
sweep grid CSV at the default seed). Run it only on a commit whose
outputs are the reference:

    python3 benchmarks/capture_golden.py
"""

import json
import shutil
import sys

from run import (
    BUNDLED_MANIFEST, CLI_COMMANDS, DEFAULT_SEED, GOLDEN, ROOT, WORK, Sweep,
    load_engine, report_manifest_text, run_checked, sha256,
)
import gen


def main() -> None:
    hc = load_engine()
    work = WORK / "capture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    report_manifest = work / "report_manifest.txt"
    report_manifest.write_text(report_manifest_text(GOLDEN / "cli"))
    for command in CLI_COMMANDS:  # report renders the files captured before it
        out = GOLDEN / "cli" / command
        shutil.rmtree(out, ignore_errors=True)
        manifest = report_manifest if command == "report" else BUNDLED_MANIFEST
        run_checked([sys.executable, "-m", "hcimpact.cli", command, "--manifest", str(manifest),
                     "--out", str(out)])
    sweep = Sweep(DEFAULT_SEED, work, hc)
    sweep.setup()
    rows, text = sweep.grid(*gen.sweep_axes(DEFAULT_SEED))
    (GOLDEN / "sweep.json").write_text(
        json.dumps({"seed": DEFAULT_SEED, "cells": len(rows), "sha256": sha256(text)}, indent=1) + "\n"
    )
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
