import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcimpact import (
    ExpenditurePath,
    GridRow,
    ImpactResult,
    LaborMarketState,
    MortalityTable,
    PopulationPath,
    ValidationError,
)
from hcimpact import io

from conftest import grid_of


class TestPopulationRoundTrip:
    def test_write_then_read_recovers_values(self, tmp_path, rng):
        grid = grid_of(4, 3)
        original = PopulationPath("X1", grid, rng.uniform(0, 100, (4, 3)).round(3))
        out = tmp_path / "pop.csv"
        io.write_population_csv([original], out)
        back = io.read_population_csv(out)["X1"]
        assert np.allclose(back.counts, original.counts, rtol=1e-5)
        assert back.grid == grid

    def test_duplicate_cell_reports_line_number(self, tmp_path):
        f = tmp_path / "pop.csv"
        f.write_text(
            "scenario,date,cohort_lo,cohort_hi,count_thousands\n"
            "X,2010,0,4,10\n"
            "X,2010,0,4,11\n"
        )
        with pytest.raises(ValidationError, match=r"pop\.csv:3"):
            io.read_population_csv(f)

    def test_bad_number_reports_line_and_column(self, tmp_path):
        f = tmp_path / "pop.csv"
        f.write_text(
            "scenario,date,cohort_lo,cohort_hi,count_thousands\nX,2010,0,4,soon\n"
        )
        with pytest.raises(ValidationError, match="count_thousands"):
            io.read_population_csv(f)

    def test_missing_column_rejected(self, tmp_path):
        f = tmp_path / "pop.csv"
        f.write_text("scenario,date,cohort_lo,count_thousands\nX,2010,0,10\n")
        with pytest.raises(ValidationError, match="cohort_hi"):
            io.read_population_csv(f)

    def test_nonexistent_file_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="does not exist"):
            io.read_population_csv(tmp_path / "nope.csv")


class TestMortalityRoundTrip:
    def test_write_then_read(self, tmp_path, rng):
        grid = grid_of(3, 4)
        table = MortalityTable(grid, rng.uniform(0, 1, (3, 4)).round(6))
        out = tmp_path / "mort.csv"
        io.write_mortality_csv(table, out)
        back = io.read_mortality_csv(out)
        assert np.allclose(back.death_prob, table.death_prob, atol=1e-5)

    def test_probability_out_of_range_rejected(self, tmp_path):
        f = tmp_path / "mort.csv"
        f.write_text("date,cohort_lo,cohort_hi,pd_5yr\n2010,0,4,1.2\n2010,5,9,0.1\n")
        with pytest.raises(ValidationError, match=r"mort\.csv:2"):
            io.read_mortality_csv(f)

    def test_optional_life_expectancy_column(self, tmp_path):
        # the column is accepted and checked, but nothing computes with it
        f = tmp_path / "mort.csv"
        header = "date,cohort_lo,cohort_hi,pd_5yr,life_expectancy\n"
        f.write_text(header + "2010,0,4,0.01,80.1\n2010,5,9,0.02,\n")
        assert io.read_mortality_csv(f).death_prob[:, 0].tolist() == [0.01, 0.02]
        f.write_text(header + "2010,0,4,0.01,80.1\n2010,5,9,0.02,old\n")
        with pytest.raises(ValidationError, match=r"mort\.csv:3: column 'life_expectancy'"):
            io.read_mortality_csv(f)


class TestRiskFiles:
    def test_study_records_parse(self, data_dir):
        records = io.read_rr_mortality_csv(data_dir / "rr_mortality.csv")
        assert len(records) == 6
        assert any(r.diluted for r in records) and any(not r.diluted for r in records)

    def test_inverted_bounds_report_line(self, tmp_path):
        f = tmp_path / "rr.csv"
        f.write_text(
            "cohort_lo,cohort_hi,rr_lower,rr_upper,diluted,source_tag\n"
            "0,99,1.5,1.2,1,bad\n"
        )
        with pytest.raises(ValidationError, match=r"rr\.csv:2"):
            io.read_rr_mortality_csv(f)

    def test_utilization_defaults_and_dilution(self, tmp_path):
        f = tmp_path / "ur.csv"
        f.write_text("service,rr,diluted\nH,2.00,0\nS,1.63,0\nGP,1.57,0\n")
        rrs = io.read_rr_utilization_csv(f, LaborMarketState(0.10))
        assert rrs.hospital == pytest.approx(1.10, abs=1e-12)
        assert rrs.specialist == pytest.approx(1.063, abs=1e-12)
        assert rrs.general_practice == pytest.approx(1.057, abs=1e-12)
        assert rrs.pharmaceutical == 1.0
        assert rrs.rehabilitation == 1.0
        assert rrs.minor == 1.0

    def test_utilization_missing_hospital_rejected(self, tmp_path):
        f = tmp_path / "ur.csv"
        f.write_text("service,rr,diluted\nS,1.63,1\nGP,1.2,1\n")
        with pytest.raises(ValidationError, match="'H'"):
            io.read_rr_utilization_csv(f, LaborMarketState(0.1))

    def test_unknown_service_rejected(self, tmp_path):
        f = tmp_path / "ur.csv"
        f.write_text("service,rr,diluted\nZZ,1.63,1\n")
        with pytest.raises(ValidationError, match="unknown service"):
            io.read_rr_utilization_csv(f, LaborMarketState(0.1))


class TestCostAndShareFiles:
    def test_bundled_cost_profiles(self, data_dir):
        grid = io.read_mortality_csv(data_dir / "mortality.csv").grid
        profiles = io.read_cost_profiles_csv(data_dir / "cost_profile.csv", grid)
        assert set(profiles) == {"ARC1", "ARC2", "ARC3", "ARC4"}
        assert profiles["ARC1"].values.shape == (20,)

    def test_cost_profile_coverage_gap_rejected(self, tmp_path):
        grid = grid_of(3, 1)
        f = tmp_path / "costs.csv"
        f.write_text(
            "profile_id,cohort_lo,cohort_hi,eur_per_capita\nA,0,4,100\nA,5,9,200\n"
        )
        with pytest.raises(ValidationError, match="missing cohort"):
            io.read_cost_profiles_csv(f, grid)

    def test_bundled_ds_ratios(self, data_dir):
        grid = io.read_mortality_csv(data_dir / "mortality.csv").grid
        ratios = io.read_ds_ratios_csv(data_dir / "ds_ratio.csv", grid)
        assert set(ratios) == {"central", "low", "high"}
        assert np.all(ratios["high"].values >= ratios["central"].values)

    def test_shares_must_cover_all_services(self, tmp_path):
        f = tmp_path / "shares.csv"
        f.write_text("service,fraction\nH,0.9\nP,0.1\n")
        with pytest.raises(ValidationError, match="missing service"):
            io.read_shares_csv(f)

    def test_bundled_shares_sum_to_one(self, data_dir):
        shares = io.read_shares_csv(data_dir / "shares.csv")
        assert shares.hospital == 0.71

    def test_gdp_parses(self, data_dir):
        gdp = io.read_gdp_csv(data_dir / "gdp.csv")
        assert gdp[2015] == 1_520_346.0

    def test_gdp_rejects_nonpositive(self, tmp_path):
        f = tmp_path / "gdp.csv"
        f.write_text("date,eur_millions\n2010,0\n")
        with pytest.raises(ValidationError, match="positive"):
            io.read_gdp_csv(f)


class TestResultFiles:
    def _row(self):
        return GridRow(
            model="DC",
            pop_scenario="PopMV",
            rr_selector="upper",
            rf=1.07694,
            result=ImpactResult(date=2015, crimi=191.508, criui=8960.96, gdp=1_520_346.0),
        )

    def test_impact_round_trip(self, tmp_path):
        out = tmp_path / "impact.csv"
        io.write_impact_csv([self._row()], out)
        rows = io.read_impact_csv(out)
        assert len(rows) == 1
        assert rows[0]["model"] == "DC"
        assert rows[0]["cri_eur_m"] == pytest.approx(9152.47, abs=0.01)

    def test_expenditure_round_trip(self, tmp_path):
        path = ExpenditurePath(
            model="PD", scenario="PopMV", dates=(2010, 2015),
            values=np.array([109700.0, 113500.0]),
        )
        out = tmp_path / "exp.csv"
        io.write_expenditure_csv([path], out)
        rows = io.read_expenditure_csv(out)
        assert rows == [("PD", "PopMV", 2010, 109700.0), ("PD", "PopMV", 2015, 113500.0)]

    def test_series_round_trip(self, tmp_path):
        out = tmp_path / "s.csv"
        io.write_series_csv([2010.0, 2015.0], [1.5, 2.5], out)
        assert io.read_series_csv(out) == [(2010.0, 1.5), (2015.0, 2.5)]

    def test_six_significant_digits(self):
        assert io.fmt_value(9152.4748321) == "9152.47"
        assert io.fmt_value(0.0300000001) == "0.03"
        assert io.fmt_value(1520346.0) == "1.52035e+06"

    def test_emitted_files_reparse_under_own_readers(self, tmp_path, rng):
        # round-trip invariant across every delimited schema the engine emits
        grid = grid_of(3, 2)
        pop = PopulationPath("S", grid, rng.uniform(0, 100, (3, 2)))
        io.write_population_csv([pop], tmp_path / "p.csv")
        io.read_population_csv(tmp_path / "p.csv")

        mort = MortalityTable(grid, rng.uniform(0, 1, (3, 2)))
        io.write_mortality_csv(mort, tmp_path / "m.csv")
        io.read_mortality_csv(tmp_path / "m.csv")

        io.write_impact_csv([self._row()], tmp_path / "i.csv")
        io.read_impact_csv(tmp_path / "i.csv")

        exp = ExpenditurePath("DC", "S", grid.dates, rng.uniform(0, 1e5, 2))
        io.write_expenditure_csv([exp], tmp_path / "e.csv")
        io.read_expenditure_csv(tmp_path / "e.csv")

        io.write_series_csv([1.0], [2.0], tmp_path / "xy.csv")
        io.read_series_csv(tmp_path / "xy.csv")


class TestEncodingAndHeader:
    def test_non_utf8_byte_reports_file_and_line(self, tmp_path):
        f = tmp_path / "gdp.csv"
        f.write_bytes(b"date,eur_millions\n2010,1\n2015,\xff2\n")
        with pytest.raises(ValidationError, match=r"gdp\.csv:3: not valid UTF-8"):
            io.read_gdp_csv(f)

    def test_leading_bom_is_dropped(self, tmp_path):
        f = tmp_path / "gdp.csv"
        f.write_bytes(b"\xef\xbb\xbfdate,eur_millions\n2010,1\n")
        assert io.read_gdp_csv(f) == {2010: 1.0}

    def test_duplicate_header_column_rejected(self, tmp_path):
        f = tmp_path / "gdp.csv"
        f.write_text("date,eur_millions,date\n2010,1,2011\n")
        with pytest.raises(ValidationError, match="duplicate column"):
            io.read_gdp_csv(f)


_GRID = grid_of(2, 2)
_READERS = {  # reader name: (call on a path, a valid header)
    "read_population_csv": (
        io.read_population_csv, "scenario,date,cohort_lo,cohort_hi,count_thousands"),
    "read_mortality_csv": (
        io.read_mortality_csv, "date,cohort_lo,cohort_hi,pd_5yr,life_expectancy"),
    "read_rr_mortality_csv": (
        io.read_rr_mortality_csv, "cohort_lo,cohort_hi,rr_lower,rr_upper,diluted,source_tag"),
    "read_rr_utilization_csv": (
        lambda p: io.read_rr_utilization_csv(p, LaborMarketState(0.1)), "service,rr,diluted"),
    "read_cost_profiles_csv": (
        lambda p: io.read_cost_profiles_csv(p, _GRID),
        "profile_id,cohort_lo,cohort_hi,eur_per_capita"),
    "read_ds_ratios_csv": (
        lambda p: io.read_ds_ratios_csv(p, _GRID), "scenario,cohort_lo,cohort_hi,ratio"),
    "read_shares_csv": (io.read_shares_csv, "service,fraction"),
    "read_gdp_csv": (io.read_gdp_csv, "date,eur_millions"),
    "read_impact_csv": (io.read_impact_csv, ",".join(io.IMPACT_COLUMNS)),
    "read_expenditure_csv": (io.read_expenditure_csv, "model,scenario,date,eur_millions"),
    "read_series_csv": (io.read_series_csv, "x,y"),
}


def test_every_reader_is_fuzzed():
    assert sorted(_READERS) == sorted(n for n in io.__all__ if n.startswith("read_"))


# raw bytes, or CSV-like UTF-8 text (with BOMs and a non-ASCII letter)
_BODIES = st.one_of(
    st.binary(max_size=200),
    st.text(alphabet="0123456789.,-+e \"\n\rHPSGRmabCD\ufeff\xe9", max_size=200).map(
        lambda t: t.encode("utf-8")
    ),
)


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=40, deadline=None)
@given(with_header=st.booleans(), body=_BODIES)
def test_reader_parses_or_rejects_any_bytes(tmp_path_factory, name, with_header, body):
    reader, header = _READERS[name]
    f = tmp_path_factory.mktemp("fuzz") / "input.csv"
    f.write_bytes((header.encode() + b"\n" if with_header else b"") + body)
    try:
        reader(f)
    except ValidationError:
        pass
