import errno
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hcimpact import cli, io, parse_selector, sensitivity_grid
from hcimpact.cli import main
from hcimpact.manifest import KNOWN_KEYS, parse_manifest
from hcimpact.report import render_table

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
        assert "project.scenarios: output file population_A.csv" in capsys.readouterr().err
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
