import errno
import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hcimpact import PopulationPath, cli, io, parse_selector, sensitivity_grid
from hcimpact.cli import main
from hcimpact.manifest import KNOWN_KEYS, parse_manifest
from hcimpact.report import render_result_file, render_table, sniff_schema

from conftest import DATA_DIR, REPO_ROOT, overflowing_bundle


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def write_mini_bundle(
    root: Path,
    rr: float = 1.5,
    rf_line: str = "scenario.rf_selection = upper",
    model: str = "DC",
) -> Path:
    """A tiny but complete input bundle: 2 cohorts x 2 dates (2010, 2015)."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "population.csv").write_text(
        "scenario,date,cohort_lo,cohort_hi,count_thousands\n"
        "BASE,2010,0,4,10000\nBASE,2010,5,9,8000\n"
        "BASE,2015,0,4,10000\nBASE,2015,5,9,8000\n"
    )
    (root / "mortality.csv").write_text(
        "date,cohort_lo,cohort_hi,pd_5yr\n"
        "2010,0,4,0.02\n2010,5,9,0.05\n2015,0,4,0.02\n2015,5,9,0.05\n"
    )
    (root / "rr_mortality.csv").write_text(
        "cohort_lo,cohort_hi,rr_lower,rr_upper,diluted,source_tag\n"
        f"0,9,1.0,{rr},1,mini\n"
    )
    (root / "rr_utilization_lower.csv").write_text(
        "service,rr,diluted\nH,1.0,1\nS,1.0,1\nGP,1.0,1\n"
    )
    (root / "rr_utilization_upper.csv").write_text(
        "service,rr,diluted\nH,1.1,1\nS,1.063,1\nGP,1.057,1\n"
    )
    (root / "cost_profile.csv").write_text(
        "profile_id,cohort_lo,cohort_hi,eur_per_capita\nC0,0,4,4561.038\nC0,5,9,0\n"
    )
    (root / "ds_ratio.csv").write_text(
        "scenario,cohort_lo,cohort_hi,ratio\nD0,0,4,4\nD0,5,9,3\n"
    )
    (root / "shares.csv").write_text(
        "service,fraction\nH,0.71\nP,0.10\nS,0.04\nGP,0.06\nR,0.02\nm,0.07\n"
    )
    (root / "gdp.csv").write_text("date,eur_millions\n2010,1520346\n2015,1520346\n")
    manifest = root / "manifest.txt"
    manifest.write_text(
        "\n".join(
            [
                "data.population = population.csv",
                "data.mortality = mortality.csv",
                "data.rr_mortality = rr_mortality.csv",
                "data.rr_utilization_lower = rr_utilization_lower.csv",
                "data.rr_utilization_upper = rr_utilization_upper.csv",
                "data.cost_profiles = cost_profile.csv",
                "data.ds_ratios = ds_ratio.csv",
                "data.shares = shares.csv",
                "data.gdp = gdp.csv",
                "scenario.population = BASE",
                f"scenario.model = {model}",
                "scenario.cost_profile = C0",
                "scenario.ds_scenario = D0",
                "scenario.rr_selection = upper",
                rf_line,
                "scenario.shock_date = 2015",
                "scenario.unemployment_rate = 0.10",
                "project.scenarios = SIM-A,SIM-B",
                "project.birth_rates = 0.017,0.013",
                "project.initial = BASE",
                "sensitivity.models = CH,DC",
                "sensitivity.populations = BASE",
                "sensitivity.rr_values = 1.0,1.5",
                "sensitivity.rf_values = 1.0,1.2",
            ]
        )
        + "\n"
    )
    return manifest


class TestProject:
    def test_emits_full_grid_per_scenario(self, tmp_path, data_dir):
        out = tmp_path / "out"
        assert run_cli("project", "--manifest", data_dir / "manifest.txt", "--out", out) == 0
        content = (out / "population_PopSV-1.7.csv").read_text()
        rows = content.strip().splitlines()
        assert rows[0] == "scenario,date,cohort_lo,cohort_hi,count_thousands"
        assert len(rows) == 1 + 20 * 11
        assert (out / "population_PopSV-1.3.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path, data_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("project", "--manifest", data_dir / "manifest.txt", "--out", a)
        run_cli("project", "--manifest", data_dir / "manifest.txt", "--out", b)
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_missing_mortality_fails_fast(self, tmp_path):
        manifest = write_mini_bundle(tmp_path / "bundle")
        (tmp_path / "bundle" / "mortality.csv").unlink()
        out = tmp_path / "out"
        assert run_cli("project", "--manifest", manifest, "--out", out) == 2
        assert not out.exists()  # nothing was written

    def test_table_format(self, tmp_path):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "out"
        assert run_cli(
            "project", "--manifest", manifest, "--out", out, "--format", "table"
        ) == 0
        table = (out / "population_SIM-A.txt").read_text()
        assert "cohort" in table and "2015" in table
        assert "0-4" in table and "5+" in table

    @pytest.mark.parametrize("break_unused_input", [
        lambda bundle: (bundle / "manifest.txt").write_text(
            (bundle / "manifest.txt").read_text().replace("data.gdp = gdp.csv\n", "")),
        lambda bundle: (bundle / "shares.csv").write_text("service,fraction\nH,oops\n"),
    ], ids=["gdp_key_removed", "shares_malformed"])
    def test_reads_only_population_and_mortality(self, tmp_path, data_dir, break_unused_input):
        bundle = tmp_path / "data"
        shutil.copytree(data_dir, bundle)
        break_unused_input(bundle)
        expected, out = tmp_path / "expected", tmp_path / "out"
        assert run_cli("project", "--manifest", data_dir / "manifest.txt", "--out", expected) == 0
        assert run_cli("project", "--manifest", bundle / "manifest.txt", "--out", out) == 0
        assert sorted(f.name for f in out.iterdir()) == sorted(f.name for f in expected.iterdir())
        for f in expected.iterdir():
            assert (out / f.name).read_bytes() == f.read_bytes()
        assert run_cli("impact", "--manifest", bundle / "manifest.txt", "--out", out) == 2


class TestImpact:
    def test_null_shock_reports_zero(self, tmp_path, capsys):
        manifest = write_mini_bundle(
            tmp_path / "b", rr=1.0, rf_line="scenario.rf_selection = 1.0"
        )
        out = tmp_path / "out"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "crimi = 0 EUR millions (0% of GDP)" in stdout
        assert "criui = 0 EUR millions (0% of GDP)" in stdout
        assert "cri = 0 EUR millions (0% of GDP)" in stdout

    def test_reference_gdp_share_printed(self, tmp_path, capsys):
        # base expenditure 45,610.38 EUR millions; RF 1.01 -> CRI 456.104,
        # i.e. 0.03% of a 1,520,346 GDP
        manifest = write_mini_bundle(
            tmp_path / "b", rr=1.0, rf_line="scenario.rf_selection = 1.01", model="PD"
        )
        out = tmp_path / "out"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "cri = 456.104 EUR millions (0.03% of GDP)" in stdout
        assert "scenario.model = PD" in stdout  # configuration echo

    @pytest.mark.parametrize("key", ["params.utilization", "params.health_improvement_rate"])
    def test_negative_parameter_names_manifest_and_key(self, tmp_path, capsys, key):
        manifest = write_mini_bundle(tmp_path / "b")
        manifest.write_text(manifest.read_text() + f"{key} = -1\n")
        (tmp_path / "b" / "population.csv").unlink()  # checked before any data file is read
        out = tmp_path / "out"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: key {key!r}: must be finite and >= 0, got -1.0" in err
        assert not out.exists()

    def test_invalid_model_lists_valid_ids(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b", model="WRONG")
        assert run_cli("impact", "--manifest", manifest, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "PD, CH, DC" in err

    def test_table_format(self, tmp_path):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "out"
        assert run_cli(
            "impact", "--manifest", manifest, "--out", out, "--format", "table"
        ) == 0
        table = (out / "impact.txt").read_text()
        assert "cri_eur_m" in table and "cri_gdp_pct" in table
        assert (out / "expenditure.txt").exists()

    def test_seedless_flag(self, tmp_path):
        manifest = write_mini_bundle(tmp_path / "b")
        assert run_cli(
            "impact", "--manifest", manifest, "--out", tmp_path / "o", "--seedless"
        ) == 0


class TestSensitivity:
    def test_degenerate_grid_min_equals_max(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        # shrink every axis to a single entry
        text = manifest.read_text()
        text = text.replace("sensitivity.models = CH,DC", "sensitivity.models = DC")
        text = text.replace("sensitivity.rr_values = 1.0,1.5", "sensitivity.rr_values = 1.5")
        text = text.replace("sensitivity.rf_values = 1.0,1.2", "sensitivity.rf_values = 1.2")
        manifest.write_text(text)
        assert run_cli("sensitivity", "--manifest", manifest, "--out", tmp_path / "o") == 0
        stdout = capsys.readouterr().out
        assert "grid cells = 1" in stdout
        min_line = next(l for l in stdout.splitlines() if l.startswith("CRI min"))
        max_line = next(l for l in stdout.splitlines() if l.startswith("CRI max"))
        assert min_line.split("=")[1] == max_line.split("=")[1]

    def test_trivial_row_is_minimum_zero(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--manifest", manifest, "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "CRI min = 0 EUR millions" in stdout
        rows = (out / "sensitivity.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 1 * 2 * 2  # header + model x pop x rr x rf

    def test_byte_identical_across_runs(self, tmp_path, data_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("sensitivity", "--manifest", data_dir / "manifest.txt", "--out", a)
        run_cli("sensitivity", "--manifest", data_dir / "manifest.txt", "--out", b)
        assert (a / "sensitivity.csv").read_bytes() == (b / "sensitivity.csv").read_bytes()


class TestReport:
    def _report_manifest(self, tmp_path, *files) -> Path:
        m = tmp_path / "report.txt"
        m.write_text("report.files = " + ",".join(str(f) for f in files) + "\n")
        return m

    def test_impact_file_renders_table(self, tmp_path):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "o"
        run_cli("impact", "--manifest", manifest, "--out", out)
        rep = tmp_path / "rep"
        m = self._report_manifest(tmp_path, out / "impact.csv")
        assert run_cli("report", "--manifest", m, "--out", rep) == 0
        table = (rep / "impact_table.txt").read_text()
        assert "cri_eur_m" in table and "cri_gdp_pct" in table

    def test_expenditure_file_yields_series_per_model(self, tmp_path):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "o"
        run_cli("impact", "--manifest", manifest, "--out", out)
        rep = tmp_path / "rep"
        m = self._report_manifest(tmp_path, out / "expenditure.csv")
        assert run_cli("report", "--manifest", m, "--out", rep) == 0
        assert (rep / "expenditure_series_DC_BASE.csv").exists()
        series = (rep / "expenditure_series_DC_BASE.csv").read_text().splitlines()
        assert series[0] == "x,y"
        assert len(series) == 3  # two dates

    def test_population_file_yields_total_series(self, tmp_path, data_dir):
        rep = tmp_path / "rep"
        m = self._report_manifest(tmp_path, data_dir / "population.csv")
        assert run_cli("report", "--manifest", m, "--out", rep) == 0
        table = (rep / "population_table.txt").read_text()
        assert "PopMV" in table and "95+" in table
        series = (rep / "population_series_PopMV_total.csv").read_text().splitlines()
        assert series[0] == "x,y"
        assert len(series) == 1 + 11  # one point per projection date

    def test_series_file_renders_back_as_table(self, tmp_path):
        src = tmp_path / "pts.csv"
        src.write_text("x,y\n2010,1.5\n2015,2.5\n")
        rep = tmp_path / "rep"
        m = self._report_manifest(tmp_path, src)
        assert run_cli("report", "--manifest", m, "--out", rep) == 0
        table = (rep / "pts_table.txt").read_text()
        assert "2010.0" in table and "2.5" in table

    def test_empty_result_file_notice(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("model,scenario,date,eur_millions\n")
        m = self._report_manifest(tmp_path, empty)
        assert run_cli("report", "--manifest", m, "--out", tmp_path / "rep") == 0
        assert "no rows" in capsys.readouterr().out

    def test_unknown_schema_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        m = self._report_manifest(tmp_path, bad)
        assert run_cli("report", "--manifest", m, "--out", tmp_path / "rep") == 2
        assert "unknown result file schema" in capsys.readouterr().err

    def test_empty_file_rejected(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        m = self._report_manifest(tmp_path, empty)
        out = tmp_path / "rep"
        assert run_cli("report", "--manifest", m, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {empty}: empty file, expected a header row\n"
        assert not out.exists()

    @pytest.mark.parametrize("name, kind", [
        ("impact/impact.csv", "impact"),
        ("impact/expenditure.csv", "expenditure"),
        ("project/population_PopSV-1.7.csv", "population"),
        ("report/expenditure_series_DC_PopMV.csv", "series"),
    ])
    def test_a_result_file_is_decoded_once_before_its_reader(self, monkeypatch, name, kind):
        # sniff_schema reads the header and whether a row follows in one pass.
        src = _GOLDEN_CLI / name
        opened = []
        open_text = io.open_text

        def counting_open_text(path):
            opened.append(path)
            return open_text(path)

        monkeypatch.setattr(io, "open_text", counting_open_text)
        assert sniff_schema(src) == (kind, True)
        opened.clear()
        table, _ = render_result_file(src)
        assert table is not None
        assert opened == [src]

    def test_a_one_scenario_population_file_builds_one_path(self, monkeypatch):
        built = []
        post_init = PopulationPath.__post_init__

        def counting_post_init(path):
            built.append(path.scenario)
            post_init(path)

        monkeypatch.setattr(PopulationPath, "__post_init__", counting_post_init)
        _, series = render_result_file(_GOLDEN_CLI / "project/population_PopSV-1.7.csv")
        assert built == ["PopSV-1.7"]
        assert [name for name, _, _ in series] == ["PopSV-1.7_total"]


def test_render_table_aligns_numbers_and_numeric_texts_right_and_bools_left():
    rows = [["upper", 7, True, 2.5],
            ["1.05", 12345, False, float("nan")],
            ["lower", -3, np.bool_(True), np.float64(1e6)]]
    assert render_table(["selector", "n", "flag", "eur_m"], rows) == (
        "selector  n      flag   eur_m\n"
        "--------  -----  -----  ---------\n"
        "upper         7  True         2.5\n"
        "    1.05  12345  False        nan\n"
        "lower        -3    1.0  1000000.0\n"
    )
    assert render_table(["a", "b"], []) == "a  b\n-  -\n"


class TestProjectedScenariosFeedBack:
    def test_projected_file_joins_the_population_bundle(self, tmp_path):
        # project simulated scenarios, then sweep over one of them
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "o"
        assert run_cli("project", "--manifest", manifest, "--out", out) == 0

        text = manifest.read_text()
        text = text.replace(
            "data.population = population.csv",
            f"data.population = population.csv,{out / 'population_SIM-A.csv'}",
        )
        text = text.replace(
            "sensitivity.populations = BASE",
            "sensitivity.populations = BASE,SIM-A",
        )
        manifest.write_text(text)
        out2 = tmp_path / "o2"
        assert run_cli("sensitivity", "--manifest", manifest, "--out", out2) == 0
        rows = (out2 / "sensitivity.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2 * 2 * 2
        assert any(",SIM-A," in r for r in rows[1:])


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "hcimpact.cli", "impact",
             "--manifest", str(DATA_DIR / "manifest.txt"), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "cri =" in proc.stdout
        assert (out / "impact.csv").exists()

    def test_missing_manifest_is_input_error(self, tmp_path, capsys):
        assert run_cli("impact", "--manifest", tmp_path / "nope.txt",
                       "--out", tmp_path / "o") == 2


class TestNonUtf8Input:
    def test_input_file_is_input_error_with_line(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        (tmp_path / "b" / "gdp.csv").write_bytes(
            b"date,eur_millions\n2010,1520346\n2015,\xe91520346\n"
        )
        out = tmp_path / "o"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        assert "gdp.csv:3: not valid UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_is_input_error_with_line(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        manifest.write_bytes(manifest.read_bytes() + b"# caf\xe9\n")
        n_lines = manifest.read_bytes().count(b"\n")
        assert run_cli("impact", "--manifest", manifest, "--out", tmp_path / "o") == 2
        assert f"manifest.txt:{n_lines}: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, problem", [
        ([b"# one", b"bogus.key = 1", b"# three", b"# caf\xff"], "2: unknown key 'bogus.key'"),
        ([b"# one", b"# caf\xff", b"# three", b"bogus.key = 1"], "2: not valid UTF-8"),
        ([b"# caf\xff", b"bogus.key = 1"], "1: not valid UTF-8"),
    ], ids=["bad_key_before_bad_byte", "bad_byte_before_bad_key", "bad_byte_on_line_1"])
    def test_manifest_reports_its_first_bad_line(self, tmp_path, capsys, lines, problem):
        manifest = tmp_path / "mb.txt"
        manifest.write_bytes(b"\n".join(lines) + b"\n")
        out = tmp_path / "o"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {manifest}:{problem}\n"
        assert not out.exists()

    def test_report_source_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x,y\n1,\xff\n")
        m = tmp_path / "report.txt"
        m.write_text(f"report.files = {bad}\n")
        assert run_cli("report", "--manifest", m, "--out", tmp_path / "rep") == 2
        assert "bad.csv:2: not valid UTF-8" in capsys.readouterr().err


class TestOutputNames:
    def _project(self, tmp_path, scenarios: str, rates: str):
        manifest = write_mini_bundle(tmp_path / "b")
        manifest.write_text(
            manifest.read_text()
            .replace("project.scenarios = SIM-A,SIM-B", f"project.scenarios = {scenarios}")
            .replace("project.birth_rates = 0.017,0.013", f"project.birth_rates = {rates}")
        )
        out = tmp_path / "out"
        return run_cli("project", "--manifest", manifest, "--out", out), out

    def test_scenario_name_with_separator_rejected(self, tmp_path, capsys):
        code, out = self._project(tmp_path, "ok,sub/x", "0.017,0.013")
        assert code == 2
        err = capsys.readouterr().err
        assert "project.scenarios" in err and "population_sub/x.csv" in err
        assert not out.exists()  # not even population_ok.csv

    def test_duplicate_scenario_name_rejected(self, tmp_path, capsys):
        code, out = self._project(tmp_path, "A,A", "0.017,0.013")
        assert code == 2
        assert "key 'project.scenarios': 'A' is listed twice" in capsys.readouterr().err
        assert not out.exists()

    def test_report_sources_with_one_name_rejected(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        for sub in ("a", "b2"):
            assert run_cli("impact", "--manifest", manifest, "--out", tmp_path / sub) == 0
        sources = [tmp_path / sub / "impact.csv" for sub in ("a", "b2")]
        m = tmp_path / "report.txt"
        m.write_text(f"report.files = {sources[0]},{sources[1]}\n")
        rep = tmp_path / "rep"
        capsys.readouterr()
        assert run_cli("report", "--manifest", m, "--out", rep) == 2
        err = capsys.readouterr().err
        assert f"{sources[0]} and {sources[1]}: output file impact_table.txt" in err
        assert not rep.exists()


class _FullDisk:
    """A text file whose first write stores half its text, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


class TestAtomicOutput:
    def _fail_second_write(self, monkeypatch):
        opened = []

        def open_failing_second(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            opened.append(path)
            return _FullDisk(fh) if len(opened) == 2 else fh

        monkeypatch.setattr(cli, "open", open_failing_second, raising=False)
        return opened

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "out"
        opened = self._fail_second_write(monkeypatch)
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        assert len(opened) == 2
        assert sorted(out.iterdir()) == []  # neither result nor temporary files
        assert "No space left on device" in capsys.readouterr().err

    def test_failed_write_keeps_earlier_results(self, tmp_path, monkeypatch):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "out"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        self._fail_second_write(monkeypatch)
        text = manifest.read_text()
        manifest.write_text(text.replace("scenario.model = DC", "scenario.model = PD"))
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_directory_at_a_target_replaces_nothing(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        out = tmp_path / "out"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 0
        before = (out / "impact.csv").read_bytes()
        (out / "expenditure.csv").unlink()
        (out / "expenditure.csv").mkdir()
        text = manifest.read_text()
        manifest.write_text(text.replace("scenario.model = DC", "scenario.model = PD"))
        capsys.readouterr()
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        assert "Is a directory" in capsys.readouterr().err
        assert (out / "impact.csv").read_bytes() == before
        assert sorted(f.name for f in out.iterdir()) == ["expenditure.csv", "impact.csv"]


class TestManifestKeys:
    def test_misspelt_key_is_rejected_with_its_line(self, tmp_path, capsys):
        manifest = write_mini_bundle(tmp_path / "b")
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines + ["scenario.unemployement_rate = 0.5"]) + "\n")
        out = tmp_path / "out"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:{len(lines) + 1}: unknown key 'scenario.unemployement_rate'" in err
        assert "did you mean 'scenario.unemployment_rate'?" in err
        assert not out.exists()

    def test_every_key_the_engine_reads_is_known(self):
        src = Path(cli.__file__).parent
        pattern = r'"((?:data|scenario|params|project|sensitivity|report)\.[a-z_]+)"'
        read = {key for f in src.glob("*.py") for key in re.findall(pattern, f.read_text())}
        assert read and read <= KNOWN_KEYS
        assert KNOWN_KEYS <= {line.partition(" =")[0]
                              for line in (DATA_DIR / "manifest.txt").read_text().splitlines()
                              } | {"report.files"}

    @pytest.mark.parametrize("key, value, problem", [
        ("scenario.unemployment_rate", "2", "unemployment rate must be in [0, 1], got 2.0"),
        ("scenario.unemployment_rate", "nan", "unemployment rate must be in [0, 1], got nan"),
        ("scenario.envelope_policy", "bogus",
         "unknown policy 'bogus'; valid: population_level, hull"),
    ])
    def test_bad_risk_setting_names_manifest_and_key(self, tmp_path, capsys, key, value, problem):
        manifest = write_mini_bundle(tmp_path / "b")
        lines = [ln for ln in manifest.read_text().splitlines() if not ln.startswith(key)]
        manifest.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        (tmp_path / "b" / "population.csv").unlink()  # checked before any data file is read
        out = tmp_path / "out"
        assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
        assert f"error: {manifest}: key {key!r}: {problem}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("name, row", [("cost_profile.csv", "ARC1,100,104,1"),
                                       ("ds_ratio.csv", "central,2,6,1")])
def test_cohort_row_off_the_grid_exits_2_with_its_line(tmp_path, capsys, data_dir, name, row):
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    table = bundle / name
    text = table.read_text() + row + "\n"
    table.write_text(text)
    out = tmp_path / "out"
    assert run_cli("impact", "--manifest", bundle / "manifest.txt", "--out", out) == 2
    lo, hi = row.split(",")[1:3]
    assert (f"error: {table}:{text.count(chr(10))}: cohort [{lo}, {hi}] is not on the "
            "cohort grid") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["impact", "sensitivity"])
def test_overflowing_expenditure_exits_2_without_a_warning(tmp_path, command):
    manifest = overflowing_bundle(tmp_path)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "hcimpact.cli", command, "--manifest", str(manifest),
         "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: expenditure must be finite at every date\n"
    assert not out.exists()


class TestSensitivityTable:
    def test_table_cells_come_from_every_grid_row(self, tmp_path, data_dir, capsys):
        out = tmp_path / "out"
        manifest = data_dir / "manifest.txt"
        assert run_cli("sensitivity", "--manifest", manifest, "--out", out,
                       "--format", "table") == 0
        m = parse_manifest(manifest)
        axes = [[parse_selector(s) for s in m.get_list(f"sensitivity.{k}")]
                for k in ("rr_values", "rf_values")]
        axes += [m.get_list("sensitivity.models"), m.get_list("sensitivity.populations")]
        rows = sensitivity_grid(m.scenario_config(), m.load_inputs(), *axes)
        cells = [[r.model, r.pop_scenario, io.selector_text(r.rr_selector), r.rf,
                  r.result.crimi, r.result.criui, r.result.cri, r.result.cri_gdp_pct]
                 for r in rows]
        expected = render_table(list(io.IMPACT_COLUMNS), cells)
        assert (out / "sensitivity.txt").read_text() == expected
        lo = min(rows, key=lambda r: r.result.cri).result
        assert f"CRI min = {io.fmt_value(lo.cri)} EUR millions" in capsys.readouterr().out


@pytest.mark.parametrize("horizon", ["2100", "2012"])
def test_project_horizon_off_the_grid_names_manifest_and_key(tmp_path, capsys, horizon):
    manifest = write_mini_bundle(tmp_path / "b")
    manifest.write_text(manifest.read_text() + f"project.horizon = {horizon}\n")
    out = tmp_path / "out"
    assert run_cli("project", "--manifest", manifest, "--out", out) == 2
    assert (f"error: {manifest}: key 'project.horizon': date {horizon} is not on the "
            "projection grid") in capsys.readouterr().err
    assert not out.exists()


_GOLDEN_CLI = REPO_ROOT / "benchmarks" / "golden" / "cli"
# The result files ``report`` renders, as in the benchmark's ``cli`` workload.
_REPORT_INPUTS = ("impact/impact.csv", "impact/expenditure.csv", "sensitivity/sensitivity.csv",
                  "project/population_PopSV-1.7.csv")


@pytest.mark.parametrize("command", ["project", "impact", "sensitivity", "report"])
def test_outputs_equal_the_golden_files_byte_for_byte(tmp_path, data_dir, command):
    manifest = data_dir / "manifest.txt"
    if command == "report":
        manifest = tmp_path / "report_manifest.txt"
        files = ", ".join(str(_GOLDEN_CLI / rel) for rel in _REPORT_INPUTS)
        manifest.write_text(f"report.files = {files}\n")
    out = tmp_path / "out"
    assert run_cli(command, "--manifest", manifest, "--out", out) == 0
    golden = sorted((_GOLDEN_CLI / command).iterdir())
    assert golden
    for want in golden:
        assert (out / want.name).read_bytes() == want.read_bytes(), want.name


def _fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a new process that imports ``hcimpact`` from ``src/``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("utilization", ["1.0", "2.0"])
@pytest.mark.parametrize("model", ["PD", "CH", "DC"])
def test_costs_near_the_float_maximum_exit_2_under_warnings_as_errors(
    tmp_path, data_dir, model, utilization
):
    # The rescaled costs overflow first at utilization 1; at 2 the weights do.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    table = bundle / "cost_profile.csv"
    header, *rows = table.read_text().splitlines()
    table.write_text("\n".join([header, *(row.rsplit(",", 1)[0] + ",1.7e308" for row in rows)]))
    manifest = bundle / "manifest.txt"
    text = re.sub(r"(?m)^scenario\.model = .*$", f"scenario.model = {model}", manifest.read_text())
    manifest.write_text(re.sub(r"(?m)^params\.utilization = .*$",
                               f"params.utilization = {utilization}", text))
    out = tmp_path / "out"
    proc = _fresh_interpreter("-W", "error", "-m", "hcimpact.cli", "impact",
                              "--manifest", str(manifest), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "error: expenditure must be finite at every date\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["project", "impact", "sensitivity", "report"])
def test_no_subcommand_imports_numpy_ma(tmp_path, data_dir, command):
    # numpy 2 imports numpy.ma on first use (plain ``np.unique`` does), at 15-30 ms;
    # numpy 1 imports it with numpy, so the test asks whether ``main`` added it.
    manifest = data_dir / "manifest.txt"
    if command == "report":
        manifest = tmp_path / "report_manifest.txt"
        files = ", ".join(str(_GOLDEN_CLI / rel) for rel in _REPORT_INPUTS)
        manifest.write_text(f"report.files = {files}\n")
    argv = [command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]
    proc = _fresh_interpreter("-c", "import sys, numpy; had = 'numpy.ma' in sys.modules; "
                              f"from hcimpact.cli import main; status = main({argv!r}); "
                              "print(status, 'numpy.ma' in sys.modules and not had)")
    assert proc.stdout.splitlines()[-1] == "0 False", proc.stderr


@pytest.mark.parametrize("command", ["impact", "sensitivity"])
def test_subnormal_gdp_exits_2_under_warnings_as_errors(tmp_path, data_dir, command):
    # 1e-320 passes "GDP must be positive", but a share of it overflows to inf.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    gdp = bundle / "gdp.csv"
    gdp.write_text(re.sub(r"(?m)^2015,.*$", "2015,1e-320", gdp.read_text()))
    out = tmp_path / "out"
    proc = _fresh_interpreter("-W", "error", "-m", "hcimpact.cli", command,
                              "--manifest", str(bundle / "manifest.txt"), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "error: the share of GDP 1e-320 EUR millions is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("certain_death", [False, True])
def test_huge_birth_rate_exits_2_under_warnings_as_errors(tmp_path, data_dir, certain_death):
    # The births overflow to inf; with a death probability of 1, inf x 0 is nan.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    if certain_death:
        mortality = bundle / "mortality.csv"
        header, *rows = mortality.read_text().splitlines()
        at = header.split(",").index("pd_5yr")
        rows = [row.split(",") for row in rows]
        for row in rows:
            row[at] = "1" if row[1] == "5" else row[at]
        mortality.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    manifest = bundle / "manifest.txt"
    manifest.write_text(re.sub(r"(?m)^project\.birth_rates = .*$",
                               "project.birth_rates = 1e300,0.013", manifest.read_text()))
    out = tmp_path / "out"
    proc = _fresh_interpreter("-W", "error", "-m", "hcimpact.cli", "project",
                              "--manifest", str(manifest), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "error: head-counts must be finite and >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["impact", "sensitivity"])
def test_a_degenerate_cost_split_exits_3_under_warnings_as_errors(tmp_path, data_dir, command):
    # Certain death and a D/S ratio near 0 leave the survivor/decedent split no denominator.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    for name, column, value in (("mortality.csv", "pd_5yr", "1"), ("ds_ratio.csv", "ratio", "1e-300")):
        table = bundle / name
        header, *rows = table.read_text().splitlines()
        lo, at = map(header.split(",").index, ("cohort_lo", column))
        rows = [row.split(",") for row in rows]
        for row in rows:
            row[at] = value if row[lo] == "0" else row[at]
        table.write_text("\n".join([header, *map(",".join, rows)]) + "\n")
    out = tmp_path / "out"
    proc = _fresh_interpreter("-W", "error", "-m", "hcimpact.cli", command,
                              "--manifest", str(bundle / "manifest.txt"), "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr == (
        "numerical error: degenerate denominator in survivor/decedent cost split\n")
    assert not out.exists()


def _set_manifest_value(manifest: Path, key: str, value: str) -> None:
    text, n = re.subn(rf"(?m)^{re.escape(key)} = .*$", f"{key} = {value}", manifest.read_text())
    assert n == 1, key
    manifest.write_text(text)


@pytest.mark.parametrize("command", ["project", "impact", "sensitivity"])
@pytest.mark.parametrize("key, value, problem", [
    ("sensitivity.rr_values", "nan,upper", "must be finite and >= 0, got nan"),
    ("sensitivity.models", "CH,XX", "unknown model 'XX'; valid: PD, CH, DC"),
    ("sensitivity.rf_values", "-1,upper", "must be finite and >= 0, got -1.0"),
    ("project.birth_rates", "x,0.013", "'x' is not a number"),
    ("project.birth_rates", "-1,0.013", "must be finite and >= 0, got -1.0"),
    ("scenario.rr_selection", "-2", "must be finite and >= 0, got -2.0"),
    ("scenario.model", "XX", "unknown model 'XX'; valid: PD, CH, DC"),
    ("scenario.shock_date", "soon", "'soon' is not an integer"),
    ("params.utilization", "lots", "'lots' is not a number"),
    ("project.horizon", "2030.5", "'2030.5' is not an integer"),
], ids=["rr_nan", "unknown_model_in_list", "rf_negative", "rate_not_a_number", "rate_negative",
        "rr_selection_negative", "unknown_model", "shock_date_not_an_integer",
        "utilization_not_a_number", "horizon_not_an_integer"])
def test_bad_value_names_manifest_and_key_before_any_data_file_is_read(
    tmp_path, data_dir, command, key, value, problem
):
    # Every subcommand checks every value, whether or not it reads the key.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    (bundle / "population.csv").unlink()
    manifest = bundle / "manifest.txt"
    _set_manifest_value(manifest, key, value)
    out = tmp_path / "out"
    proc = _fresh_interpreter("-W", "error", "-m", "hcimpact.cli", command,
                              "--manifest", str(manifest), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {manifest}: key {key!r}: {problem}\n"
    assert not out.exists()


def test_mortality_grid_mismatch_names_the_mortality_file(tmp_path, data_dir, capsys):
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    mortality = bundle / "mortality.csv"
    mortality.write_text("".join(line for line in mortality.read_text().splitlines(True)
                                 if not line.startswith("2060,")))
    out = tmp_path / "out"
    assert run_cli("impact", "--manifest", bundle / "manifest.txt", "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: {mortality}: mortality table grid differs from the population grid\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["impact", "sensitivity"])
def test_shock_date_off_the_gdp_path_names_manifest_key_and_gdp_file(
    tmp_path, data_dir, capsys, command
):
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    manifest = bundle / "manifest.txt"
    _set_manifest_value(manifest, "scenario.shock_date", "2012")
    out = tmp_path / "out"
    assert run_cli(command, "--manifest", manifest, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: key 'scenario.shock_date': {bundle / 'gdp.csv'}: "
        "GDP path does not cover the shock date 2012\n")
    assert not out.exists()


def test_impact_stdout_on_the_bundled_manifest(tmp_path, data_dir, capsys):
    assert run_cli("impact", "--manifest", data_dir / "manifest.txt",
                   "--out", tmp_path / "out") == 0
    assert capsys.readouterr().out == (
        "scenario.population = PopMV\n"
        "scenario.model = DC\n"
        "scenario.cost_profile = ARC1\n"
        "scenario.ds_scenario = central\n"
        "scenario.rr_selection = upper\n"
        "scenario.rf_selection = upper\n"
        "scenario.shock_date = 2015\n"
        "scenario.unemployment_rate = 0.1\n"
        "scenario.envelope_policy = population_level\n"
        "resolved rescaling factor = 1.07694\n"
        "crimi = 191.508 EUR millions (0.0125963% of GDP)\n"
        "criui = 8960.96 EUR millions (0.589403% of GDP)\n"
        "cri = 9152.47 EUR millions (0.601999% of GDP)\n"
    )


def test_readme_key_table_lists_every_known_key():
    readme = (REPO_ROOT / "README.md").read_text()
    groups = "|".join({key.partition(".")[0] for key in KNOWN_KEYS})
    keys = re.findall(rf"(?m)^\| `((?:{groups})\.[a-z_]+)` \|", readme)
    assert len(keys) == len(set(keys))
    assert set(keys) == KNOWN_KEYS


@pytest.mark.parametrize("key, value, problem", [
    ("sensitivity.models", "CH,CH", "'CH' is listed twice"),
    ("sensitivity.populations", "PopMV,PopLV,PopMV", "'PopMV' is listed twice"),
    ("sensitivity.rr_values", "lower,1.05,1.050", "1.05 is listed twice"),
    ("sensitivity.rf_values", "upper,lower,upper", "'upper' is listed twice"),
], ids=["models", "populations", "rr_values", "rf_values"])
def test_a_repeated_sensitivity_axis_entry_exits_2_before_any_data_file_is_read(
    tmp_path, data_dir, key, value, problem
):
    # A repeat would write each of its cells twice; numbers repeat by value.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    (bundle / "population.csv").unlink()
    manifest = bundle / "manifest.txt"
    _set_manifest_value(manifest, key, value)
    out = tmp_path / "out"
    proc = _fresh_interpreter("-W", "error", "-m", "hcimpact.cli", "sensitivity",
                              "--manifest", str(manifest), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {manifest}: key {key!r}: {problem}\n"
    assert not out.exists()


def test_a_repeated_project_scenario_exits_2_before_any_data_file_is_read(tmp_path, data_dir):
    # The repeat is refused by the manifest, not later as a file written twice.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    (bundle / "population.csv").unlink()
    manifest = bundle / "manifest.txt"
    _set_manifest_value(manifest, "project.scenarios", "A,A")
    out = tmp_path / "out"
    proc = _fresh_interpreter("-W", "error", "-m", "hcimpact.cli", "project",
                              "--manifest", str(manifest), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {manifest}: key 'project.scenarios': 'A' is listed twice\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, what, tables", [
    ("impact", "scenario.population", "Nope", "population scenario", "populations"),
    ("impact", "scenario.cost_profile", "Nope", "cost profile", "cost_profiles"),
    ("impact", "scenario.ds_scenario", "Nope", "D/S scenario", "ds_profiles"),
    ("sensitivity", "sensitivity.populations", "PopMV,Nope", "population scenario", "populations"),
    ("sensitivity", "scenario.cost_profile", "Nope", "cost profile", "cost_profiles"),
    ("sensitivity", "scenario.ds_scenario", "Nope", "D/S scenario", "ds_profiles"),
    ("project", "project.initial", "Nope", "initial population scenario", "populations"),
])
def test_an_unknown_id_names_manifest_and_key(
    tmp_path, data_dir, capsys, command, key, value, what, tables
):
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    manifest = bundle / "manifest.txt"
    valid = sorted(getattr(parse_manifest(manifest).load_inputs(), tables))
    _set_manifest_value(manifest, key, value)
    out = tmp_path / "out"
    assert run_cli(command, "--manifest", manifest, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: key {key!r}: unknown {what} 'Nope'; valid ids: {', '.join(valid)}\n")
    assert not out.exists()


def _numbers(text: str) -> list[float]:
    """Every token of ``text`` that ``float`` takes."""
    numbers = []
    for token in re.split(r"[\s,=()%]+", text):
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return numbers


def test_every_study_cell_mutation_exits_0_with_finite_numbers_or_2_naming_the_file(
    tmp_path, data_dir, capsys
):
    # Each cell of the bundled study-record file is set to each text in turn.
    # A run writes only finite numbers, or prints one error line that names
    # the file and writes nothing; no warning and no other exit.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    study = bundle / "rr_mortality.csv"
    header, *rows = study.read_text().splitlines()
    columns = header.split(",")
    texts = ("", "nan", "inf", "-1", "-0", "1e308", "1e-320")
    failures = []
    for run, (row, column, text) in enumerate(
            itertools.product(range(len(rows)), range(len(columns)), texts)):
        cells = [r.split(",") for r in rows]
        cells[row][column] = text
        study.write_text("\n".join([header, *map(",".join, cells)]) + "\n")
        out = tmp_path / f"out{run}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("impact", "--manifest", bundle / "manifest.txt", "--out", out)
        std = capsys.readouterr()
        written = std.out + "".join(f.read_text() for f in sorted(out.glob("*")))
        errors = [line for line in std.err.splitlines() if line.startswith("error:")]
        if code == 0 and all(map(math.isfinite, _numbers(written))):
            continue
        if code == 2 and len(errors) == 1 and "rr_mortality.csv" in errors[0] and not out.exists():
            continue
        failures.append((row + 2, columns[column], text, code, std.err))
    assert run + 1 == len(rows) * len(columns) * len(texts) == 252
    assert failures == []


@pytest.mark.parametrize("line, problem", [
    ("oops", "expected 'key = value', got 'oops'"),
    (" = 1", "empty key"),
    ("scenario.model = DC", "duplicate key 'scenario.model'"),
    # A line ends only at \n, \r or \r\n: a form feed or U+2028 in a comment does not end it.
    ("# notes\x0cpage two\nbogus.key = 1", "unknown key 'bogus.key'"),
    ("# notes\u2028page two\nbogus.key = 1", "unknown key 'bogus.key'"),
], ids=["no_equals_sign", "empty_key", "duplicate_key", "form_feed_in_a_comment",
        "line_separator_in_a_comment"])
def test_a_malformed_manifest_line_exits_2_with_its_line(tmp_path, data_dir, capsys, line, problem):
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    manifest = bundle / "manifest.txt"
    text = manifest.read_text() + line + "\n"
    manifest.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("impact", "--manifest", manifest, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {manifest}:{text.count(chr(10))}: {problem}\n"
    assert not out.exists()


def test_unequal_project_scenarios_and_birth_rates_exit_2(tmp_path, data_dir, capsys):
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    manifest = bundle / "manifest.txt"
    _set_manifest_value(manifest, "project.birth_rates", "0.017")
    out = tmp_path / "out"
    assert run_cli("project", "--manifest", manifest, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: {manifest}: project.scenarios and project.birth_rates must list the same "
        "number of items\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["gdp.csv", "population.csv"])
def test_an_unknown_input_column_exits_2_naming_the_file(tmp_path, data_dir, capsys, name):
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    table = bundle / name
    header, rest = table.read_text().split("\n", 1)
    table.write_text(f"{header},foo\n{rest}")
    out = tmp_path / "out"
    assert run_cli("impact", "--manifest", bundle / "manifest.txt", "--out", out) == 2
    assert capsys.readouterr().err == f"error: {table}: unknown column(s): foo\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["impact", "sensitivity"])
def test_outputs_are_utf8_and_stdout_escapes_under_the_c_locale(tmp_path, data_dir, command):
    # Under the C locale without UTF-8 mode the locale's codec is ASCII.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    for name in ("population.csv", "manifest.txt"):
        path = bundle / name
        path.write_text(path.read_text(encoding="utf-8").replace("PopMV", "PopMÉ"),
                        encoding="utf-8")
    out = tmp_path / "out"
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO_ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "hcimpact.cli", command,
                           "--manifest", str(bundle / "manifest.txt"), "--out", str(out)],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    files = sorted(out.iterdir())
    assert len(files) == {"impact": 2, "sensitivity": 1}[command]
    for path in files:
        assert "PopMÉ" in path.read_bytes().decode("utf-8"), path.name
    if command == "impact":
        assert b"scenario.population = PopM\\xc9\n" in proc.stdout


@pytest.mark.parametrize("fmt", ["csv", "table"])
def test_report_takes_no_format(tmp_path, capsys, fmt):
    manifest = tmp_path / "report_manifest.txt"
    manifest.write_text(f"report.files = {_GOLDEN_CLI / 'impact' / 'impact.csv'}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli("report", "--manifest", manifest, "--out", out, "--format", fmt)
    assert exc.value.code == 2
    assert f"unrecognized arguments: --format {fmt}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("removed", [("scenario.population",), ("scenario.model",),
                                     ("scenario.population", "scenario.model")])
def test_sensitivity_reads_neither_scenario_population_nor_scenario_model(
    tmp_path, data_dir, capsys, removed
):
    # The grid takes its models and populations from its axes; impact still needs both keys.
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    manifest = bundle / "manifest.txt"
    manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                if not line.startswith(removed)))
    out = tmp_path / "out"
    assert run_cli("sensitivity", "--manifest", manifest, "--out", out) == 0
    golden = _GOLDEN_CLI / "sensitivity" / "sensitivity.csv"
    assert (out / "sensitivity.csv").read_bytes() == golden.read_bytes()
    capsys.readouterr()
    assert run_cli("impact", "--manifest", manifest, "--out", tmp_path / "impact") == 2
    assert capsys.readouterr().err == f"error: {manifest}: manifest is missing key {removed[0]!r}\n"
    assert not (tmp_path / "impact").exists()
