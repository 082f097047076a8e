import csv
import dataclasses
import importlib.util
import itertools
import math
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcimpact import (
    CostProfile,
    DSRatioProfile,
    ExpenditurePath,
    GridResult,
    GridRow,
    ImpactResult,
    LaborMarketState,
    MortalityTable,
    PopulationPath,
    StudyRecord,
    StudyRecords,
    ValidationError,
    build_rr_envelope,
    cri,
)
from hcimpact import io
from hcimpact.expenditure import ExpenditureShares
from hcimpact.grid import COHORT_WIDTH, CohortGrid
from hcimpact.manifest import parse_manifest
from hcimpact.relative_risk import (
    SERVICES,
    RelativeRisk,
    UtilizationRRSet,
    dilute_relative_risk,
)

from conftest import REPO_ROOT, grid_of


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

    @pytest.mark.parametrize("w", [0.0, 0.1, 0.37, 1.0])
    def test_utilization_dilutes_as_the_risk_api_and_the_envelope(self, tmp_path, w):
        f = tmp_path / "ur.csv"
        f.write_text("service,rr,diluted\nH,0,0\nS,1.63,0\nGP,1e300,0\n")
        labor, grid = LaborMarketState(w), grid_of(3, 1)
        rrs = io.read_rr_utilization_csv(f, labor)
        for got, rr in ((rrs.hospital, 0.0), (rrs.specialist, 1.63), (rrs.general_practice, 1e300)):
            want = dilute_relative_risk(RelativeRisk(rr), labor).value
            envelope = build_rr_envelope([StudyRecord(0, 99, rr, rr, diluted=False)], labor, grid)
            assert got.hex() == want.hex()
            assert [v.hex() for v in envelope.lower.tolist()] == [want.hex()] * 3

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

    @pytest.mark.parametrize("kind", list(io.RESULTS))
    def test_a_row_of_every_result_kind_reads_back_as_written(self, tmp_path, kind):
        sample = {str: "PopMV", int: 2015, float: 0.125}
        row = tuple(sample[t] for t in io.RESULTS[kind].values())
        out = tmp_path / f"{kind}.csv"
        out.write_text(io._csv_text(io.RESULTS[kind], [row, row]))
        assert out.read_text().splitlines()[0] == ",".join(io.RESULTS[kind])
        assert io.read_result_rows(out, kind) == [row, row]

    @pytest.mark.parametrize("text", ['Pop,"MV"', '"', "a,b", "a\nb", "a\rb", "a\r\nb"])
    def test_a_text_cell_with_a_comma_quote_or_line_end_reads_back_as_written(self, tmp_path, text):
        # Such a cell is quoted as csv.writer quotes it, on the grid's render and row by row.
        grid = grid_of(2, 1)
        cells = GridResult(("DC",), (text,), ("upper",), (1.5,), 2010, 1e6,
                           np.ones((1, 1, 1)), np.ones((1, 1, 1)))
        assert io.impact_csv_text(cells) == io.impact_csv_text(list(cells))
        io.write_impact_csv(cells, tmp_path / "i.csv")
        io.write_expenditure_csv([ExpenditurePath("DC", text, grid.dates, [1.0])], tmp_path / "e.csv")
        io.write_population_csv([PopulationPath(text, grid, [[1.0], [2.0]])], tmp_path / "p.csv")
        assert [row["pop_scenario"] for row in io.read_impact_csv(tmp_path / "i.csv")] == [text]
        assert io.read_expenditure_csv(tmp_path / "e.csv") == [("DC", text, 2010, 1.0)]
        assert list(io.read_population_csv(tmp_path / "p.csv")) == [text]

    @given(xs=st.lists(st.floats(), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_a_float_cell_is_written_as_fmt_value(self, xs):
        # Python floats and ints, numpy float64, nan, both infinities and -0.0 alike.
        xs = [*xs, 7]
        ys = [np.float64(x) for x in reversed(xs)]
        assert io.series_csv_text(xs, ys) == "x,y\n" + "".join(
            f"{io.fmt_value(x)},{io.fmt_value(y)}\n" for x, y in zip(xs, ys))


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


class TestWhitespaceInValidRows:
    """Valid cohort rows with whitespace in or around their cells are accepted."""

    def test_whitespace_only_life_expectancy(self, tmp_path):
        f = tmp_path / "mort.csv"
        f.write_text(
            "date,cohort_lo,cohort_hi,pd_5yr,life_expectancy\n2010,0,4,0.01, \n2010,5,9,0.02,80\n"
        )
        assert io.read_mortality_csv(f).death_prob[:, 0].tolist() == [0.01, 0.02]

    def test_id_with_surrounding_spaces(self, tmp_path):
        f = tmp_path / "pop.csv"
        f.write_text(
            "scenario,date,cohort_lo,cohort_hi,count_thousands\n"
            " X ,2010,0,4,10\n\tX,2010,5,9,11\nX\t,2015,0,4,12\nX,2015,5,9,13\n"
        )
        paths = io.read_population_csv(f)
        assert list(paths) == ["X"]
        assert paths["X"].counts.tolist() == [[10.0, 12.0], [11.0, 13.0]]

    def test_numeric_cells_with_surrounding_spaces(self, tmp_path):
        f = tmp_path / "costs.csv"
        f.write_text(
            "profile_id,cohort_lo,cohort_hi,eur_per_capita\n"
            "A, 0 ,\t4, 780.59 \nA,5,9 ,\t1366.04\n"
        )
        assert io.read_cost_profiles_csv(f, grid_of(2, 1))["A"].values.tolist() == [
            780.59, 1366.04]


# The cohort reader against the reader it replaced. ``_reference_cohort_table``
# and ``_reference_rows`` are copies of that path (every cell stripped into a
# dict, every check a call) and live only here, as the reference.

def _reference_fail(path, msg, line=None):
    where = f"{path}:{line}" if line is not None else str(path)
    raise ValidationError(f"{where}: {msg}")


def _reference_rows(path, required, optional=()):
    with io.open_text(path) as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None:
            _reference_fail(path, "empty file, expected a header row")
        header = [h.strip() for h in first]
        duplicate = sorted({h for h in header if header.count(h) > 1})
        if duplicate:
            _reference_fail(path, f"duplicate column(s): {', '.join(duplicate)}")
        missing = [c for c in required if c not in header]
        if missing:
            _reference_fail(path, f"missing required column(s): {', '.join(missing)}")
        unknown = [c for c in header if c not in (*required, *optional)]
        if unknown:
            _reference_fail(path, f"unknown column(s): {', '.join(unknown)}")
        width = len(header)
        for row in reader:
            if len(row) > width:
                _reference_fail(path, "row has more fields than the header", reader.line_num)
            if row:
                cells = [v.strip() for v in row] + [""] * (width - len(row))
                yield reader.line_num, dict(zip(header, cells))


def _reference_float(path, line, column, text):
    try:
        v = float(text)
    except ValueError:
        _reference_fail(path, f"column {column!r}: {text!r} is not a number", line)
    if not math.isfinite(v):
        _reference_fail(path, f"column {column!r}: value must be finite", line)
    return v


def _reference_int(path, line, column, text):
    try:
        return int(text)
    except ValueError:
        _reference_fail(path, f"column {column!r}: {text!r} is not an integer", line)


def _reference_cohort_table(path, value_column, rejects, key=None, grid=None, unused=()):
    dated = grid is None
    what = key and key.removesuffix("_id")
    columns = ((key,) if key else ()) + (("date",) if dated else ()) + (
        "cohort_lo", "cohort_hi", value_column)
    tables = {}
    date = None
    for line, row in _reference_rows(path, columns, optional=unused):
        table_id = row[key] if key else None
        if key and not table_id:
            _reference_fail(path, f"empty {what} id", line)
        if dated:
            date = _reference_int(path, line, "date", row["date"])
        lo = _reference_int(path, line, "cohort_lo", row["cohort_lo"])
        hi = _reference_int(path, line, "cohort_hi", row["cohort_hi"])
        if hi - lo != COHORT_WIDTH - 1:
            _reference_fail(path, f"cohort [{lo}, {hi}] is not a {COHORT_WIDTH}-year bin", line)
        if not dated and lo not in grid.cohort_starts:
            _reference_fail(path, f"cohort [{lo}, {hi}] is not on the cohort grid", line)
        value = _reference_float(path, line, value_column, row[value_column])
        problem = rejects(value)
        if problem:
            _reference_fail(path, problem, line)
        for column in unused:
            if row.get(column):
                _reference_float(path, line, column, row[column])
        cells = tables.setdefault(table_id, {})
        if (lo, date) in cells:
            owner = f"{what} {table_id}, " if key else ""
            when = f", date {date}" if dated else ""
            _reference_fail(path, f"duplicate cell for {owner}cohort {lo}{when}", line)
        cells[(lo, date)] = value
    if not tables:
        _reference_fail(path, "no data rows")
    if dated:
        starts = {lo for cells in tables.values() for lo, _ in cells}
        dates = {d for cells in tables.values() for _, d in cells}
        try:
            grid = CohortGrid(tuple(sorted(starts)), tuple(sorted(dates)))
        except ValidationError as exc:
            _reference_fail(path, str(exc))
    order = [(lo, d) for lo in grid.cohort_starts for d in (grid.dates if dated else (None,))]
    shape = (grid.n_cohorts, grid.n_dates) if dated else (grid.n_cohorts,)
    values = {}
    for table_id, cells in tables.items():
        try:
            values[table_id] = np.array([cells[cell] for cell in order]).reshape(shape)
        except KeyError as exc:
            lo, d = exc.args[0]
            label = grid.cohort_label(grid.cohort_starts.index(lo))
            owner = f"{what} {table_id}: " if key else ""
            missing = f"missing cohort {label}" if d is None else (
                f"missing cell for cohort {label} at date {d}")
            _reference_fail(path, owner + missing)
    return grid, values


_COST_GRID = grid_of(3, 1)


def _reference_population(path):
    grid, counts = _reference_cohort_table(
        path, "count_thousands", lambda v: f"negative head-count {v}" if v < 0.0 else None,
        key="scenario",
    )
    return grid, {s: PopulationPath(s, grid, c).counts for s, c in counts.items()}


def _reference_mortality(path):
    grid, tables = _reference_cohort_table(
        path, "pd_5yr",
        lambda v: None if 0.0 <= v <= 1.0 else f"death probability {v} outside [0, 1]",
        unused=("life_expectancy",),
    )
    return grid, {None: MortalityTable(grid, tables[None]).death_prob}


def _reference_cost_profiles(path):
    _, values = _reference_cohort_table(
        path, "eur_per_capita", lambda v: f"negative per-capita cost {v}" if v < 0.0 else None,
        key="profile_id", grid=_COST_GRID,
    )
    return _COST_GRID, {k: CostProfile(k, _COST_GRID, v).values for k, v in values.items()}


def _reference_ds_ratios(path):
    _, values = _reference_cohort_table(
        path, "ratio", lambda v: f"D/S ratio must be > 0, got {v}" if v <= 0.0 else None,
        key="scenario", grid=_COST_GRID,
    )
    return _COST_GRID, {k: DSRatioProfile(k, _COST_GRID, v).values for k, v in values.items()}


def _population(path):
    paths = io.read_population_csv(path)
    return next(iter(paths.values())).grid, {s: p.counts for s, p in paths.items()}


def _mortality(path):
    table = io.read_mortality_csv(path)
    return table.grid, {None: table.death_prob}


def _cost_profiles(path):
    profiles = io.read_cost_profiles_csv(path, _COST_GRID)
    return _COST_GRID, {k: p.values for k, p in profiles.items()}


def _ds_ratios(path):
    ratios = io.read_ds_ratios_csv(path, _COST_GRID)
    return _COST_GRID, {k: r.values for k, r in ratios.items()}


_COHORT_FILES = {  # kind: (reader, reference, id column, dated, value column, optional, values)
    "population": (_population, _reference_population,
                   "scenario", True, "count_thousands", (), ("0", "12.5", "3000")),
    "mortality": (_mortality, _reference_mortality,
                  None, True, "pd_5yr", ("life_expectancy",), ("0", "0.02", "1")),
    "cost_profiles": (_cost_profiles, _reference_cost_profiles,
                      "profile_id", False, "eur_per_capita", (), ("0", "780.59", "6400")),
    "ds_ratios": (_ds_ratios, _reference_ds_ratios,
                  "scenario", False, "ratio", (), ("0.5", "4", "15.65")),
}
_ODD_CELLS = (
    "", " ", "nan", "inf", "-inf", "-1", "-0.0", "0", "1.5", "+5", "1_0", "1e400", "5e-324",
    "x", "0x10", " 7 ", "\x1c3", '" 4 "',
)
_ROW_EDITS = ("keep",) * 6 + (
    "pad", "quote", "short", "long", "blank", "drop", "dup", "odd", "bin")


@st.composite
def _cohort_file(draw, kind, edits=_ROW_EDITS):
    """A cohort table file, valid or malformed, as bytes; each row takes one of ``edits``."""
    _, _, key, dated, value_column, optional, values = _COHORT_FILES[kind]
    header = ([key] if key else []) + (["date"] if dated else []) + [
        "cohort_lo", "cohort_hi", value_column]
    header = draw(st.permutations(header + [c for c in optional if draw(st.booleans())]))
    ids = ("A", "B")[: draw(st.integers(1, 2))] if key else (None,)
    first_id = draw(st.sampled_from((ids[0], ids[0], "", " ")))  # the first row's id
    dates = (2010, 2015)[: draw(st.integers(1, 2))] if dated else (None,)
    odd_values = draw(st.booleans())  # then about one value in four is odd
    lines = [",".join(header)]
    for table_id in ids:
        for lo in (0, 5, 10):
            for date in dates:
                cell = {
                    key: table_id if len(lines) > 1 else first_id,
                    "date": str(date), "cohort_lo": str(lo),
                    "cohort_hi": str(lo + COHORT_WIDTH - 1),
                    value_column: draw(st.sampled_from(
                        _ODD_CELLS if odd_values and draw(st.integers(0, 3)) == 0 else values)),
                    "life_expectancy": draw(st.sampled_from(
                        ("80.1", " 80 ", "", " ", "old", "nan", "1e400"))),
                }
                row = [cell[c] for c in header]
                edit = draw(st.sampled_from(edits))
                if edit == "pad":
                    row = [f" {c}\t" for c in row]
                elif edit == "quote":
                    row = [f'"{c}"' for c in row]
                elif edit == "short":
                    row = row[: draw(st.integers(0, len(row) - 1))]
                elif edit == "long":
                    row.append("1")
                elif edit == "odd":
                    row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_ODD_CELLS))
                elif edit == "bin":
                    row[header.index("cohort_hi")] = str(lo + COHORT_WIDTH)
                if edit == "blank":
                    lines.append("")
                if edit != "drop":
                    lines.append(",".join(row))
                if edit == "dup":
                    lines.append(",".join(row))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + "\n".join(lines) + "\n").encode()


def _outcome(read, path):
    """``(grid, {id: values})`` of a reader, or its ``ValidationError`` message."""
    try:
        return read(path)
    except ValidationError as exc:
        return str(exc)


def _assert_same_outcome(reader, reference, path):
    """Equal grids, table order and tables, or the same error message."""
    got, want = _outcome(reader, path), _outcome(reference, path)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert got[0] == want[0]
        assert list(got[1]) == list(want[1])
        assert all(np.array_equal(got[1][k], want[1][k]) for k in want[1])


@pytest.mark.parametrize("kind", sorted(_COHORT_FILES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cohort_reader_matches_reference(tmp_path_factory, kind, data):
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path_factory.mktemp("cohort") / "table.csv"
    f.write_bytes(data.draw(_cohort_file(kind)))
    _assert_same_outcome(reader, reference, f)


# Files whose first data rows reach states a random file rarely does: an
# empty or blank id before any table exists, every id empty, an empty id
# after a complete table, and a first row that is blank, short or padded.
_EDGE_FILES = {
    "population": (
        ",2010,0,4,999\nX,2010,0,4,1\nX,2010,5,9,2\n",
        " ,2010,0,4,999\nX,2010,0,4,1\nX,2010,5,9,2\n",
        ",2010,0,4,1\n,2010,5,9,2\n",
        "X,2010,0,4,1\nX,2010,5,9,2\n\t,2010,0,4,3\n",
        "\nX,2010,0,4,1\nX,2010,5,9,2\n",
        "X,2010\nX,2010,5,9,2\n",
        " X , 2010 ,\x1c0, 4\x1c,\x1c1\nX,2010,5,9,2\n",
    ),
    "cost_profiles": (
        ",0,4,999\nA,0,4,1\nA,5,9,2\nA,10,14,3\n",
        "\t,0,4,999\nA,0,4,1\nA,5,9,2\nA,10,14,3\n",
        ",0,4,1\n,5,9,2\n,10,14,3\n",
        "A,0,4,1\nA,5,9,2\nA,10,14,3\n ,0,4,1\n",
    ),
}
_EDGE_HEADERS = {
    "population": "scenario,date,cohort_lo,cohort_hi,count_thousands",
    "cost_profiles": "profile_id,cohort_lo,cohort_hi,eur_per_capita",
}


@pytest.mark.parametrize(
    "kind, rows", [(kind, rows) for kind, files in _EDGE_FILES.items() for rows in files]
)
def test_cohort_reader_matches_reference_on_edge_files(tmp_path, kind, rows):
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path / "table.csv"
    f.write_text(f"{_EDGE_HEADERS[kind]}\n{rows}")
    _assert_same_outcome(reader, reference, f)


@pytest.mark.parametrize("first_id", ["", " ", "\t"])
def test_empty_id_on_the_first_data_row_is_rejected(tmp_path, first_id):
    pop = tmp_path / "pop.csv"
    pop.write_text(
        "scenario,date,cohort_lo,cohort_hi,count_thousands\n"
        f"{first_id},2010,0,4,999\nX,2010,0,4,1\nX,2010,5,9,2\n"
    )
    with pytest.raises(ValidationError, match=r"pop\.csv:2: empty scenario id$"):
        io.read_population_csv(pop)
    costs = tmp_path / "costs.csv"
    costs.write_text(
        "profile_id,cohort_lo,cohort_hi,eur_per_capita\n"
        f"{first_id},0,4,999\nA,0,4,1\nA,5,9,2\n"
    )
    with pytest.raises(ValidationError, match=r"costs\.csv:2: empty profile id$"):
        io.read_cost_profiles_csv(costs, grid_of(2, 1))


@pytest.mark.parametrize("read, header", [
    (io.read_cost_profiles_csv, "profile_id,cohort_lo,cohort_hi,eur_per_capita"),
    (io.read_ds_ratios_csv, "scenario,cohort_lo,cohort_hi,ratio"),
])
@pytest.mark.parametrize("off_grid, line", [("15,19", 5), ("7,11", 3)])
def test_cohort_off_the_grid_names_its_line(tmp_path, read, header, off_grid, line):
    rows = ["A,0,4,1", "A,5,9,2", "A,10,14,3"]
    rows.insert(line - 2, f"A,{off_grid},4")
    f = tmp_path / "table.csv"
    f.write_text("\n".join([header, *rows]) + "\n")
    lo, hi = off_grid.split(",")
    with pytest.raises(ValidationError) as exc:
        read(f, grid_of(3, 1))
    assert str(exc.value) == f"{f}:{line}: cohort [{lo}, {hi}] is not on the cohort grid"


@pytest.mark.parametrize("name", sorted(_READERS))
@pytest.mark.parametrize("commas", [1, 2])
def test_empty_header_cell_is_named(tmp_path, name, commas):
    reader, header = _READERS[name]
    f = tmp_path / "input.csv"
    f.write_text(header + "," * commas + "\n")
    with pytest.raises(ValidationError) as exc:
        reader(f)
    assert str(exc.value) == f"{f}: header column {header.count(',') + 2} is empty"


# The columnar pass of the cohort reader hands irregular files to the row
# loop; both must agree with the reference on every file. ``_regular_file``
# draws any file or one whose rows only take ``edits``, which the pass reads
# itself unless a cell or a check fails.

def _regular_file(kind, edits=("keep", "pad")):
    return st.one_of(_cohort_file(kind), _cohort_file(kind, edits))


@pytest.mark.parametrize("kind", sorted(_COHORT_FILES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cohort_reader_matches_reference_with_crlf(tmp_path_factory, kind, data):
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path_factory.mktemp("cohort") / "table.csv"
    f.write_bytes(data.draw(_regular_file(kind)).replace(b"\n", b"\r\n"))
    _assert_same_outcome(reader, reference, f)


@pytest.mark.parametrize("kind", sorted(_COHORT_FILES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cohort_reader_matches_reference_with_blank_lines(tmp_path_factory, kind, data):
    reader, reference = _COHORT_FILES[kind][:2]
    header, *rows = data.draw(_regular_file(kind, ("keep", "pad", "blank"))).split(b"\n")
    for _ in range(data.draw(st.integers(1, 4))):
        rows.insert(data.draw(st.integers(0, len(rows))), b"")
    f = tmp_path_factory.mktemp("cohort") / "table.csv"
    f.write_bytes(b"\n".join([header, *rows]) + b"\n" * data.draw(st.integers(0, 3)))
    _assert_same_outcome(reader, reference, f)


@pytest.mark.parametrize("kind", sorted(_COHORT_FILES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cohort_reader_matches_reference_across_blocks(tmp_path_factory, kind, data):
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path_factory.mktemp("cohort") / "table.csv"
    f.write_bytes(data.draw(_regular_file(kind)))
    _assert_same_outcome(reader, reference, f)


# Files the columnar pass would misread without its checks: csv removes the
# quotes, a lone CR ends a line, a NUL (which csv rejects before Python
# 3.11), a cell over the csv field limit (also a number on a last line
# without a newline), an id outside latin-1 (which a bytes column cannot
# hold), and a cost profile cohort off the grid (the row loop names its line).
# The two cases with a cell over the field limit are named ("long-"), as their
# text would make a test id of over 100,000 characters.
_OVER_FIELD_LIMIT = {
    "long-id":
        "".join(f"{'Y' * (csv.field_size_limit() + 1)},2010,{lo},{lo + 4},1\n" for lo in (0, 5)),
    "long-value": f"Y,2010,0,4,1\nY,2010,5,9,{'0' * (csv.field_size_limit() + 1)}1",
}
_SPLIT_FILES = {
    "population": (
        '"X",2010,0,4,1\n"X",2010,5,9,2\n',
        "X\r,2010,0,4,1\nX\r,2010,5,9,2\n",
        "X\0,2010,0,4,1\nX\0,2010,5,9,2\n",
        *_OVER_FIELD_LIMIT.values(),
        "\u20acY,2010,0,4,1\n\u20acY,2010,5,9,2\n",
    ),
    "cost_profiles": ("A,0,4,1\nA,5,9,2\nA,10,14,3\nA,15,19,4\n",),
}
_SPLIT_IDS = {rows: name for name, rows in _OVER_FIELD_LIMIT.items()}


@pytest.mark.parametrize("kind, rows", [
    pytest.param(kind, rows, id=f"{kind}-{_SPLIT_IDS[rows]}" if rows in _SPLIT_IDS else None)
    for kind, files in _SPLIT_FILES.items() for rows in files
])
def test_cohort_reader_matches_reference_on_files_csv_splits(tmp_path, kind, rows):
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path / "table.csv"
    f.write_bytes(f"{_EDGE_HEADERS[kind]}\n{rows}".encode())
    _assert_same_outcome(reader, reference, f)


def _row_loop_not_used(*args, **kwargs):
    raise AssertionError("the row loop read a regular file")


def _two_cohorts(*ids: str, date: str = "2010") -> str:
    """Population rows: each id's run of the cohorts 0-4 and 5-9 at ``date``."""
    return "".join(f"{i},{date},{lo},{lo + 4},{lo + 1}\n" for i in ids for lo in (0, 5))


# Regular files whose id runs the columnar pass finds by comparing ids as
# 8-byte words: ids that end at or next to a word boundary, ids that differ
# only past their first word, and runs that are one table only once the
# ids are stripped, or that come back after another id's.
_WORD_FILES = {
    "7 to 17 characters": ("population", _two_cohorts(*(c * k for c, k in zip(
        "ABCDE", (7, 8, 9, 16, 17))))),
    "7 characters in one word": ("population", _two_cohorts("ABCDEFG", "ABCDEFH", date="5")),
    "equal first words": ("population", _two_cohorts("ABCDEFGH1", "ABCDEFGH2", "ABCDEFGH")),
    "equal first two words": ("population", _two_cohorts(
        "ABCDEFGHIJKLMNOP", "ABCDEFGHIJKLMNOPQ", "ABCDEFGHIJKLMNOQ")),
    "a trailing space": ("population", "X,2010,0,4,1\nX ,2010,5,9,2\n"),
    "trailing spaces across a word": ("population", "ABCDEFGH,2010,0,4,1\nABCDEFGH ,2010,5,9,2\n"
                                      "ABCDEFGH  ,2010,10,14,3\n"),
    "a run that comes back": ("population", _two_cohorts("A", "BB") + _two_cohorts(
        "A", "BB", date="2015")),
    "runs that come back": ("cost_profiles", "LONGPROFILE1,0,4,1\nLONGPROFILE2,0,4,2\n"
                            "LONGPROFILE1,5,9,3\nLONGPROFILE2,5,9,4\nLONGPROFILE1,10,14,5\n"
                            "LONGPROFILE2,10,14,6\n"),
}


@pytest.mark.parametrize("name", sorted(_WORD_FILES))
def test_columnar_pass_reads_id_runs_across_word_boundaries(tmp_path, monkeypatch, name):
    kind, rows = _WORD_FILES[name]
    f = tmp_path / "table.csv"
    f.write_text(f"{_EDGE_HEADERS[kind]}\n{rows}")
    monkeypatch.setattr(io, "_read_cohort_rows", _row_loop_not_used)
    reader, reference = _COHORT_FILES[kind][:2]
    assert not isinstance(_outcome(reader, f), str)
    _assert_same_outcome(reader, reference, f)


def test_columnar_pass_serves_regular_files(tmp_path, monkeypatch, data_dir):
    spec = importlib.util.spec_from_file_location("bench_gen", REPO_ROOT / "benchmarks" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "INGEST_SCENARIOS", 3)
    gen.write_ingest_inputs(0, tmp_path)
    with monkeypatch.context() as mp:  # the row loop's result
        mp.setattr(io, "_read_cohort_blocks", lambda *args: None)
        expected = {folder: [read(folder) for read in _COHORT_READS]
                    for folder in (data_dir, tmp_path)}
    monkeypatch.setattr(io, "_read_cohort_rows", _row_loop_not_used)
    for folder, want in expected.items():
        for read, (grid, tables) in zip(_COHORT_READS, want):
            got_grid, got_tables = read(folder)
            assert got_grid == grid and list(got_tables) == list(tables)
            assert all(np.array_equal(got_tables[k], tables[k]) for k in tables)


def _folder_grid(folder):
    return io.read_mortality_csv(folder / "mortality.csv").grid


_COHORT_READS = (  # each cohort file of an input folder, as (grid, {id: values})
    lambda folder: _population(folder / "population.csv"),
    lambda folder: _mortality(folder / "mortality.csv"),
    lambda folder: (_folder_grid(folder), {k: p.values for k, p in io.read_cost_profiles_csv(
        folder / "cost_profile.csv", _folder_grid(folder)).items()}),
    lambda folder: (_folder_grid(folder), {k: p.values for k, p in io.read_ds_ratios_csv(
        folder / "ds_ratio.csv", _folder_grid(folder)).items()}),
)


# Cells where numpy's text parser (which the columnar pass uses) and the
# ``int``, ``float`` and ``csv`` of the row loop could differ. Each file
# must read as the reference reads it, whichever pass ends up reading it.
_POPULATION_HEADER = "scenario,date,cohort_lo,cohort_hi,count_thousands"
_POPULATION_ROWS = [f"X,{date},{lo},{lo + 4},{lo + 1}" for date in (2010, 2015)
                    for lo in (0, 5, 10)]
_ODD_INTS = ("\u0661\u0662", "1_0", "1.0", "1e3", "99999999999999999999", "007", "-0", "+5",
             "10.0", "1e1")


def _with_cell(column: str, text: str) -> str:
    """The population rows with ``column`` of one row set to ``text``: the row
    of the cohort ``int(text)`` starts, if there is one, else the last."""
    at = _POPULATION_HEADER.split(",").index(column)
    try:
        target = [row.split(",")[2] for row in _POPULATION_ROWS].index(str(int(text)))
    except ValueError:
        target = len(_POPULATION_ROWS) - 1
    rows = [row.split(",") for row in _POPULATION_ROWS]
    rows[target][at] = text
    return "\n".join(map(",".join, rows)) + "\n"


_PARSER_EDGE_FILES = {
    **{f"{column} {text!r}": ("population", _with_cell(column, text))
       for column in ("date", "cohort_lo", "cohort_hi") for text in _ODD_INTS},
    **{f"value {text!r}": ("population", _with_cell("count_thousands", text))
       for text in ("\u0661\u0662", "1_0", "\x1c1", "1.5\x85", "infinity", "-nan")},
    **{f"id {table_id!r}": ("population", "\n".join(
        row.replace("X", table_id) for row in _POPULATION_ROWS) + "\n")
       for table_id in ("A\u2028B", "A\x85B", "\u2028A\x85", "A\xa0B")},
    "an id as wide as its line leaves room for": ("population", "WWWWWWWWW,2,0,4,1"),
    # int32 bounds whose difference wraps to the bin width.
    "a bin that wraps in int32": ("population", "\n".join(
        _POPULATION_ROWS + ["X,2010,2147483645,-2147483647,1"]) + "\n"),
    "a cost bin that wraps in int32": ("cost_profiles", "profile_id,cohort_lo,cohort_hi,"
                                       "eur_per_capita\nA,0,4,1\nA,5,9,2\n"
                                       "A,2147483645,-2147483647,1\n"),
    "dates past int32": ("population", "\n".join(
        row.replace(",2010,", ",4294967296,").replace(",2015,", ",4294967301,")
        for row in _POPULATION_ROWS) + "\n"),
    "a block of blank lines": ("population", "\n" * 4096 + "\n".join(_POPULATION_ROWS) + "\n"),
    "a whitespace-only line": ("population", "\n".join(
        _POPULATION_ROWS[:3] + ["   "] + _POPULATION_ROWS[3:]) + "\n"),
    "a blank life_expectancy cell": ("mortality", "date,cohort_lo,cohort_hi,pd_5yr,life_expectancy"
                                     "\n2010,0,4,0.01,\n2010,5,9,0.02,80\n"),
}


@pytest.mark.parametrize("name", sorted(_PARSER_EDGE_FILES))
def test_cohort_reader_matches_reference_where_parsers_could_differ(tmp_path, name):
    kind, text = _PARSER_EDGE_FILES[name]
    if kind == "population":
        text = f"{_POPULATION_HEADER}\n{text}"
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path / "table.csv"
    f.write_text(text, encoding="utf-8")
    _assert_same_outcome(reader, reference, f)


# Past ``io._IN_MEMORY_BYTES`` the columnar pass hands numpy the path, not the
# lines, and numpy's loadtxt picks a decompressor by the file name's extension.
_LARGE_ROWS = [row.replace("X", f"S{i}") for i in range(1000) for row in _POPULATION_ROWS]


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_a_plain_file_named_as_compressed_reads_as_text(tmp_path, suffix):
    f = tmp_path / f"population.csv{suffix}"
    f.write_text("\n".join([_POPULATION_HEADER, *_LARGE_ROWS]) + "\n")
    assert f.stat().st_size > io._IN_MEMORY_BYTES
    _assert_same_outcome(_population, _reference_population, f)


@pytest.mark.parametrize("fault", ["", "S,2010,0,4,1", "S,2010,0,5,1", "S,2010,0,4,-1"])
def test_a_large_file_with_empty_lines_reads_in_one_pass(tmp_path, monkeypatch, fault):
    f = tmp_path / "pop.csv"
    f.write_text(f"{_POPULATION_HEADER}\n\n" + "\n\n".join(_LARGE_ROWS + [fault]) + "\n")
    assert f.stat().st_size > io._IN_MEMORY_BYTES
    want = _outcome(_reference_population, f)
    monkeypatch.setattr(io, "_read_cohort_rows", _row_loop_not_used)
    _assert_same_outcome(_population, lambda path: want, f)


@pytest.mark.parametrize("source", ["bundled", "generated"])
def test_load_inputs_takes_the_columnar_pass(tmp_path, monkeypatch, data_dir, source):
    if source == "bundled":
        manifest = data_dir / "manifest.txt"
    else:
        subprocess.run([sys.executable, str(REPO_ROOT / "benchmarks" / "gen.py"), "--seed", "0",
                        "--out", str(tmp_path)], check=True)
        manifest = tmp_path / "manifest_PD.txt"
    calls, row_loop = [], io._read_cohort_rows

    def spy(path, *args, **kwargs):
        calls.append(path)
        return row_loop(path, *args, **kwargs)

    monkeypatch.setattr(io, "_read_cohort_rows", spy)
    parse_manifest(manifest).load_inputs()
    assert calls == []


def test_columnar_pass_memory_stays_linear_in_the_rows(tmp_path):
    # One row per table, cohort and date: a grid of rows cubed cells, nearly all missing.
    f = tmp_path / "pop.csv"
    f.write_text("\n".join([_POPULATION_HEADER, *(
        f"S{i},{2010 + 5 * i},{5 * i},{5 * i + 4},1" for i in range(300))]) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="missing cell for cohort 0-4 at date 2015$"):
            io.read_population_csv(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_population_read_memory_stays_near_the_file_size(tmp_path):
    # The seed-0 ingest population: 88,000 rows, 2.3 MB. An id column of
    # Python strings, one per row, would take the peak past the bound.
    spec = importlib.util.spec_from_file_location("bench_gen", REPO_ROOT / "benchmarks" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_ingest_inputs(0, tmp_path)
    tracemalloc.start()
    try:
        io.read_population_csv(tmp_path / "population.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


# Files np.loadtxt accepts that each fail one check. The block parser reads each
# once: the checks name the reference reader's line without the row parser.
_MORTALITY_HEADER = "date,cohort_lo,cohort_hi,pd_5yr,life_expectancy"
_CHECKED_FILES = {
    "empty id": ("population", _with_cell("scenario", "")),
    "off-bin cohort": ("population", _with_cell("cohort_hi", "11")),
    "off-grid cost cohort": ("cost_profiles", "A,0,4,1\nA,5,9,2\nA,15,19,3\nA,10,14,4\n"),
    **{f"value {text}": ("population", _with_cell("count_thousands", text))
       for text in ("nan", "inf", "-1")},
    **{f"life_expectancy {text}": ("mortality", f"2010,0,4,0.01,80\n2010,5,9,0.02,{text}\n")
       for text in ("abc", "inf")},
    "duplicate cell": ("population", "\n".join(_POPULATION_ROWS + _POPULATION_ROWS[2:3]) + "\n"),
    "missing cell": ("population", "\n".join(_POPULATION_ROWS[:-1]) + "\n"),
}
_HEADERS = {"population": _POPULATION_HEADER, "mortality": _MORTALITY_HEADER, **_EDGE_HEADERS}


@pytest.mark.parametrize("name", sorted(_CHECKED_FILES))
def test_a_failed_check_reads_the_file_once(tmp_path, monkeypatch, name):
    kind, rows = _CHECKED_FILES[name]
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path / "table.csv"
    f.write_text(f"{_HEADERS[kind]}\n{rows}")
    want = _outcome(reference, f)
    assert isinstance(want, str)
    monkeypatch.setattr(io, "_read_cohort_rows", _row_loop_not_used)
    assert _outcome(reader, f) == want


# A row with more fields than the header, or a read error (a field over the csv
# limit, a byte that does not decode past the first buffer the decoder fills),
# ends the row parser's reading. It comes after the failed checks of the rows
# before it, as in the reference, which reads and checks row by row.
_VALID_ROWS = "".join(f"S{i},2010,0,4,1\n" for i in range(2000))
_READ_ERROR_FILES = {
    "field limit after an off-bin cohort":
        f"X,2010,0,5,1\n{'Y' * (csv.field_size_limit() + 1)},2010,0,4,1\n".encode(),
    "bad byte after an empty id": f",2010,0,4,1\n{_VALID_ROWS}".encode() + b"X,2010,0,4,\xff\n",
    "bad byte after a quoted row": f'"X",2010,0,4,1\n{_VALID_ROWS}'.encode() + b"\xff\n",
    "long row after an empty id": b",2010,0,4,1\nX,2010,5,9,2,7\n",
    "long row before an empty id": b"X,2010,5,9,2,7\n,2010,0,4,1\n",
}


@pytest.mark.parametrize("name", sorted(_READ_ERROR_FILES))
def test_a_read_error_follows_the_checks_of_earlier_rows(tmp_path, name):
    f = tmp_path / "table.csv"
    f.write_bytes(_POPULATION_HEADER.encode() + b"\n" + _READ_ERROR_FILES[name])
    _assert_same_outcome(_population, _reference_population, f)


# A bad byte on line 4 after a row error on line 2: the error of line 2 comes
# first, whether the bad byte falls in the first 8 KiB a decoder reads at once
# or, past 2,000 valid rows, well after it.
_BAD_BYTE_FILES = {  # kind: (reader, header, the row of line 2, a valid row, its message)
    "population": (io.read_population_csv, _POPULATION_HEADER, ",2010,0,4,1", "S{},2010,0,4,1",
                   "empty scenario id"),
    "gdp": (io.read_gdp_csv, "date,eur_millions", "x,1", "{},1",
            "column 'date': 'x' is not an integer"),
}


@pytest.mark.parametrize("filler", [0, 2000])
@pytest.mark.parametrize("kind", sorted(_BAD_BYTE_FILES))
def test_a_bad_byte_follows_the_rows_before_its_line(tmp_path, kind, filler):
    reader, header, bad_row, row, message = _BAD_BYTE_FILES[kind]
    f = tmp_path / "table.csv"
    lines = [header, bad_row, *map(row.format, range(filler + 1))]
    f.write_bytes("\n".join(lines).encode() + b"\n9,\xff\n")
    with pytest.raises(ValidationError) as exc:
        reader(f)
    assert str(exc.value) == f"{f}:2: {message}"


# The study-record file: the columnar pass against the row loop it stands in
# for, ``_reference_records`` plus ``StudyRecord``. Each file must give the same
# records, or fail with the same ``file:line`` message.
_STUDY_HEADER = "cohort_lo,cohort_hi,rr_lower,rr_upper,diluted,source_tag"
_STUDY_ROWS = ("0,9,1.0,1.1,1,anchor", "5,14,1.2,1.5,0,study", "10,99,1.05,1.3,1,late")


def _reference_flag(path, line, column, text):
    if text not in ("0", "1"):
        _reference_fail(path, f"column {column!r}: expected 0 or 1, got {text!r}", line)
    return text == "1"


def _reference_text(path, line, column, text):
    return text


def _reference_records(path, parsers):
    """``(line, values)`` of each row, each column of ``parsers`` parsed by its parser."""
    for line, row in _reference_rows(path, tuple(parsers)):
        yield line, [parse(path, line, column, row[column]) for column, parse in parsers.items()]


def _reference_study_records(path):
    parsers = {"cohort_lo": _reference_int, "cohort_hi": _reference_int,
               "rr_lower": _reference_float, "rr_upper": _reference_float,
               "diluted": _reference_flag, "source_tag": _reference_text}
    records = []
    for line, values in _reference_records(path, parsers):
        try:
            records.append(StudyRecord(*values))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{line}: {exc}") from None
    if not records:
        raise ValidationError(f"{path}: no data rows")
    return records


def _study_records(path):
    return list(io.read_rr_mortality_csv(path))


def _with_study_cell(column: str, text: str) -> str:
    """The study rows with ``column`` of the second row set to ``text``."""
    rows = [r.split(",") for r in _STUDY_ROWS]
    rows[1][_STUDY_HEADER.split(",").index(column)] = text
    return "\n".join(map(",".join, rows)) + "\n"


_STUDY_FILES = {
    **{f"{column} {text!r}": _with_study_cell(column, text)
       for column in ("cohort_lo", "cohort_hi") for text in (*_ODD_INTS, "-99999999999999999999")},
    **{f"diluted {text!r}": _with_study_cell("diluted", text)
       for text in ("00", "+1", " 1 ", "1.0", "-0", "", "2", "\t0", "1\x1c", "١")},
    **{f"{column} {text!r}": _with_study_cell(column, text)
       for column in ("rr_lower", "rr_upper")
       for text in ("nan", "-nan", "inf", "-inf", "1e400", "-1", "1_0", "١", " 1.25 ", "x")},
    **{f"source {text!r}": _with_study_cell("source_tag", text)
       for text in ("", " tag ", "\x85tag ", "a b", "#c")},
    "ages past int64": _with_study_cell("cohort_lo", "99999999999999999999")
    .replace(",14,", ",999999999999999999999,"),
    "inverted age range": _with_study_cell("cohort_hi", "4"),
    "inverted bounds": _with_study_cell("rr_upper", "1.1"),
    "quoted cells": "\n".join(",".join(f'"{c}"' for c in r.split(",")) for r in _STUDY_ROWS)
    + "\n",
    "CR line ends": "\r\n".join(_STUDY_ROWS) + "\r\n",
    "a NUL byte": _with_study_cell("source_tag", "st\0udy"),
    "empty lines": "\n\n" + "\n\n".join(_STUDY_ROWS) + "\n\n",
    "a block of empty lines": "\n" * 4100 + "\n".join(_STUDY_ROWS) + "\n",
    "a whitespace-only line": "\n".join((*_STUDY_ROWS[:2], "  ", _STUDY_ROWS[2])) + "\n",
    "a short row": "\n".join((*_STUDY_ROWS, "0,9,1.0,1.1,1")) + "\n",
    "a long row": "\n".join((*_STUDY_ROWS, "0,9,1.0,1.1,1,x,y")) + "\n",
    "no data rows": "",
    "only empty lines": "\n\n\n",
    # Two faults: the first row with one fails, by the first check of that row.
    "an inverted age range, then an unparsable risk":
        "9,0,1.0,1.1,1,anchor\n5,14,1.2,x,0,study\n",
    "an unparsable risk, then an inverted age range":
        "0,9,1.0,x,1,anchor\n14,5,1.2,1.5,0,study\n",
    "a bad flag and inverted bounds on one row": _with_study_cell("diluted", "2")
    .replace("1.2,1.5", "1.5,1.2"),
    "a long row after inverted bounds": "5,14,1.5,1.2,0,study\n0,9,1.0,1.1,1,x,y\n",
    "diluted '1\\x00'": _with_study_cell("diluted", "1\0"),
    "diluted '1\\x00 '": _with_study_cell("diluted", "1\0 "),
}


@pytest.mark.parametrize("name", sorted(_STUDY_FILES))
def test_study_records_match_the_row_loop(tmp_path, name):
    f = tmp_path / "rr.csv"
    f.write_bytes(f"{_STUDY_HEADER}\n{_STUDY_FILES[name]}".encode())
    assert _outcome(_study_records, f) == _outcome(_reference_study_records, f)


# Each file above once more, parsed from its path as a file past
# ``io._IN_MEMORY_BYTES`` would be: a small file is parsed from its lines.
_FILES_BY_NAME = {
    **{f"{label} {kind} {i}": (kind, f"{_EDGE_HEADERS[kind]}\n{rows}".encode())
       for label, files in (("edge", _EDGE_FILES), ("split", _SPLIT_FILES))
       for kind, texts in files.items() for i, rows in enumerate(texts)},
    **{f"word {name}": (kind, f"{_EDGE_HEADERS[kind]}\n{rows}".encode())
       for name, (kind, rows) in _WORD_FILES.items()},
    **{f"parser {name}": (kind, (f"{_POPULATION_HEADER}\n{text}" if kind == "population"
                                 else text).encode())
       for name, (kind, text) in _PARSER_EDGE_FILES.items()},
    **{f"checked {name}": (kind, f"{_HEADERS[kind]}\n{rows}".encode())
       for name, (kind, rows) in _CHECKED_FILES.items()},
    **{f"read error {name}": ("population", f"{_POPULATION_HEADER}\n".encode() + rows)
       for name, rows in _READ_ERROR_FILES.items()},
    **{f"study {name}": ("study", f"{_STUDY_HEADER}\n{rows}".encode())
       for name, rows in _STUDY_FILES.items()},
}


@pytest.mark.parametrize("name", sorted(_FILES_BY_NAME))
def test_each_file_reads_the_same_through_its_path(tmp_path, monkeypatch, name):
    kind, text = _FILES_BY_NAME[name]
    f = tmp_path / "table.csv"
    f.write_bytes(text)
    monkeypatch.setattr(io, "_IN_MEMORY_BYTES", -1)
    if kind == "study":
        assert _outcome(_study_records, f) == _outcome(_reference_study_records, f)
    else:
        _assert_same_outcome(*_COHORT_FILES[kind][:2], f)


@pytest.mark.parametrize("kind", sorted(_COHORT_FILES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cohort_reader_matches_reference_through_the_path(tmp_path_factory, kind, data):
    reader, reference = _COHORT_FILES[kind][:2]
    f = tmp_path_factory.mktemp("cohort") / "table.csv"
    f.write_bytes(data.draw(_regular_file(kind, ("keep", "pad", "blank"))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(io, "_IN_MEMORY_BYTES", -1)
        _assert_same_outcome(reader, reference, f)


_STUDY_CELLS = {  # each column's cells: valid ones and ones a parser could take differently
    "cohort_lo": ("0", "5", "007", "-0", "1_0", "1e3", "99999999999999999999", " 5 "),
    "cohort_hi": ("9", "99", "+14", "١٢", "4", "99999999999999999999"),
    "rr_lower": ("1.0", "1.25", "0", "-1", "nan", "1e400", "2.5e0"),
    "rr_upper": ("1.5", "1.3", "inf", "1_0", " 2 ", "3"),
    "diluted": ("0", "1", "1", "0", "00", "+1", " 1 ", "1.0"),
    "source_tag": ("a", "", " b ", "c d"),
}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_study_records_match_the_row_loop_on_random_files(tmp_path_factory, data):
    header = data.draw(st.permutations(list(_STUDY_CELLS)))
    rows = data.draw(st.lists(st.lists(st.sampled_from((0, 0, 0, 1, 2, 3, 4, 5)),
                                       min_size=6, max_size=6), max_size=6))
    lines = [",".join(header)] + [
        ",".join(_STUDY_CELLS[c][i % len(_STUDY_CELLS[c])] for c, i in zip(header, row))
        for row in rows]
    f = tmp_path_factory.mktemp("rr") / "rr.csv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _outcome(_study_records, f) == _outcome(_reference_study_records, f)


def test_study_records_of_regular_files_take_the_columnar_pass(tmp_path, monkeypatch, data_dir):
    subprocess.run([sys.executable, str(REPO_ROOT / "benchmarks" / "gen.py"), "--seed", "0",
                    "--out", str(tmp_path)], check=True)
    files = (data_dir / "rr_mortality.csv", tmp_path / "rr_mortality.csv")
    want = [_reference_study_records(f) for f in files]
    monkeypatch.setattr(io, "_read_cohort_rows", _row_loop_not_used)
    for f, records in zip(files, want):
        got = io.read_rr_mortality_csv(f)
        assert isinstance(got, StudyRecords) and got.age_lo.dtype == np.int64
        assert list(got) == records


def test_study_record_columns_are_read_only(data_dir):
    records = io.read_rr_mortality_csv(data_dir / "rr_mortality.csv")
    for column in (records.age_lo, records.age_hi, records.rr, records.diluted):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


# The GDP, service and result readers against the cell-by-cell readers they
# replaced, frozen here from the same reference helpers: each file must give
# the same value, with the same Python types, or the same ``file:line`` message.

def _reference_service_rows(path, columns, parse):
    values = {}
    for line, row in _reference_rows(path, ("service", *columns)):
        service = row["service"]
        if service not in SERVICES:
            _reference_fail(path, f"unknown service {service!r}; valid: {', '.join(SERVICES)}",
                            line)
        if service in values:
            _reference_fail(path, f"duplicate service {service}", line)
        values[service] = parse(line, row)
    return values


def _reference_utilization(path, labor=LaborMarketState(0.1)):
    def parse(line, row):
        rr = _reference_float(path, line, "rr", row["rr"])
        if rr < 0.0:
            _reference_fail(path, f"negative relative risk {rr}", line)
        if _reference_flag(path, line, "diluted", row["diluted"]):
            return rr
        return dilute_relative_risk(RelativeRisk(rr), labor).value

    values = _reference_service_rows(path, ("rr", "diluted"), parse)
    for required in ("H", "S", "GP"):
        if required not in values:
            _reference_fail(path, f"missing service row {required!r}")
    return UtilizationRRSet(*(values.get(code, 1.0) for code in ("H", "S", "GP", "P", "R", "m")))


def _reference_shares(path):
    values = _reference_service_rows(
        path, ("fraction",), lambda line, row: _reference_float(path, line, "fraction",
                                                                row["fraction"]))
    missing = [s for s in SERVICES if s not in values]
    if missing:
        _reference_fail(path, f"missing service row(s): {', '.join(missing)}")
    try:
        return ExpenditureShares(*(values[code] for code in SERVICES))
    except ValidationError as exc:
        _reference_fail(path, str(exc))


def _reference_gdp(path):
    gdp = {}
    for line, (date, v) in _reference_records(path, {"date": _reference_int,
                                                     "eur_millions": _reference_float}):
        if v <= 0.0:
            _reference_fail(path, f"GDP must be positive, got {v}", line)
        if date in gdp:
            _reference_fail(path, f"duplicate date {date}", line)
        gdp[date] = v
    if not gdp:
        _reference_fail(path, "no data rows")
    return gdp


def _reference_impact(path):
    parsers = dict.fromkeys(io.IMPACT_COLUMNS, _reference_float)
    parsers.update(model=_reference_text, pop_scenario=_reference_text, rr_selector=_reference_text)
    return [dict(zip(io.IMPACT_COLUMNS, values)) for _, values in _reference_records(path, parsers)]


def _reference_expenditure(path):
    parsers = dict(zip(io.EXPENDITURE_COLUMNS,
                       (_reference_text, _reference_text, _reference_int, _reference_float)))
    return [tuple(values) for _, values in _reference_records(path, parsers)]


def _reference_series(path):
    return [tuple(xy) for _, xy in _reference_records(path, dict.fromkeys(io.SERIES_COLUMNS,
                                                                            _reference_float))]


_SMALL_FILES = {  # kind: (reader, reference, a valid file)
    "gdp": (io.read_gdp_csv, _reference_gdp,
            "date,eur_millions\n2010,1520346\n2015,1520346.5\n2020,1550753\n"),
    "utilization": (lambda f: io.read_rr_utilization_csv(f, LaborMarketState(0.1)),
                    _reference_utilization,
                    "service,rr,diluted\nH,1.33,0\nS,1.63,0\nGP,1.20,0\nP,1.00,1\n"),
    "shares": (io.read_shares_csv, _reference_shares,
               "service,fraction\nH,0.71\nP,0.10\nS,0.04\nGP,0.06\nR,0.02\nm,0.07\n"),
    "impact": (io.read_impact_csv, _reference_impact,
               ",".join(io.IMPACT_COLUMNS) + "\nPD,PopSV-1.7,lower,0.2,1.5,2.5,4,0.01\n"
               "DC,PopSV-1.7,1.25,0.8,-0,3e-5,7,2.5e-7\n"),
    "expenditure": (io.read_expenditure_csv, _reference_expenditure,
                    "model,scenario,date,eur_millions\nDC,BASE,2010,1.5\nDC,BASE,2015,2.5\n"),
    "series": (io.read_series_csv, _reference_series, "x,y\n0.1,1\n0.2,-2.5\n"),
}
_CELL_TEXTS = ("", "x", "nan", "inf", "1e400", "-0.0", "-1", "2010.0", "1_0",
               "99999999999999999999", "1\0", "Q", "H")  # "Q" is no service and "H" repeats the first row's service


def _small_files(kind, edit):
    """The valid file of ``kind`` with each cell set in turn to each text of
    :data:`_CELL_TEXTS` ("cells"), or each line dropped, doubled, preceded by
    a blank line or given one more field, and the header alone ("lines");
    each with and without a final newline."""
    header, *rows = _SMALL_FILES[kind][2].splitlines()
    grid = [row.split(",") for row in rows]
    bodies = []
    if edit == "cells":
        for i, j, text in itertools.product(range(len(grid)), range(len(grid[0])), _CELL_TEXTS):
            edited = [list(row) for row in grid]
            edited[i][j] = text
            bodies.append([",".join(row) for row in edited])
    else:
        for i, row in enumerate(rows):
            bodies += [rows[:i] + rows[i + 1:], rows[:i + 1] + rows[i:],
                       rows[:i] + ["", row] + rows[i + 1:], rows[:i] + [row + ",1"] + rows[i + 1:]]
        bodies.append([])
    return [("\n".join([header, *body]) + end).encode() for body in bodies for end in ("\n", "")]


def _typed(value):
    """``value`` with the type of each part beside it; a float by its repr."""
    if isinstance(value, dict):
        return [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(v) for v in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _typed(dataclasses.astuple(value))
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("source", ["lines", "path"])
@pytest.mark.parametrize("edit", ["cells", "lines"])
@pytest.mark.parametrize("kind", sorted(_SMALL_FILES))
def test_small_readers_match_the_cell_by_cell_reference(tmp_path, monkeypatch, kind, edit,
                                                        source):
    reader, reference = _SMALL_FILES[kind][:2]
    if source == "path":  # parsed from its path, as a file past io._IN_MEMORY_BYTES is
        monkeypatch.setattr(io, "_IN_MEMORY_BYTES", -1)
    f = tmp_path / "small.csv"
    for text in _small_files(kind, edit):
        f.write_bytes(text)
        got, want = (_typed(_outcome(read, f)) for read in (reader, reference))
        assert got == want, text


# The per-scenario readers return a read-only mapping that builds each table
# from one row of a stacked array when it is asked for.
_MAPPING_READS = {
    "population": (lambda f: io.read_population_csv(f), "counts", PopulationPath,
                   "scenario,date,cohort_lo,cohort_hi,count_thousands",
                   lambda i, lo: [f"{i},{d},{lo},{lo + 4},{lo + 1}" for d in (2010, 2015)]),
    "cost_profiles": (lambda f: io.read_cost_profiles_csv(f, _COST_GRID), "values", CostProfile,
                      "profile_id,cohort_lo,cohort_hi,eur_per_capita",
                      lambda i, lo: [f"{i},{lo},{lo + 4},{lo + 1}"]),
    "ds_ratios": (lambda f: io.read_ds_ratios_csv(f, _COST_GRID), "values", DSRatioProfile,
                  "scenario,cohort_lo,cohort_hi,ratio",
                  lambda i, lo: [f"{i},{lo},{lo + 4},{lo + 1}"]),
}


@pytest.mark.parametrize("kind", sorted(_MAPPING_READS))
def test_per_scenario_mapping_builds_read_only_tables_on_access(tmp_path, kind):
    read, attr, cls, header, rows = _MAPPING_READS[kind]
    f = tmp_path / "tables.csv"
    ids = ("B", "A", "C")  # not sorted: the order is the file's
    f.write_text("\n".join([header, *(r for i in ids for lo in (0, 5, 10) for r in rows(i, lo))])
                 + "\n")
    tables = read(f)
    assert len(tables) == 3 and list(tables) == list(ids) and list(tables.keys()) == list(ids)
    assert "A" in tables and "Z" not in tables and None not in tables
    with pytest.raises(KeyError):
        tables["Z"]
    assert tables.stack.flags.writeable is False
    for key in ids:
        built = tables[key]
        assert type(built) is cls and built.grid == tables.grid
        values = getattr(built, attr)
        assert values.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            values[0] = -1.0
        assert not np.shares_memory(values, tables.stack)
        values.setflags(write=True)  # the table's own copy: the stack does not change
        values[...] = -1.0
        assert np.all(getattr(tables[key], attr) >= 0.0)
    assert getattr(tables["B"], attr).flat[0] == 1.0


def test_unknown_ids_of_the_mappings_give_the_resolver_message(data_dir):
    manifest = parse_manifest(data_dir / "manifest.txt")
    inputs, config = manifest.load_inputs(), manifest.scenario_config()
    for field, what, tables in (("population", "population scenario", inputs.populations),
                                ("cost_profile", "cost profile", inputs.cost_profiles),
                                ("ds_scenario", "D/S scenario", inputs.ds_profiles)):
        with pytest.raises(ValidationError) as exc:
            cri(dataclasses.replace(config, **{field: "Nope"}), inputs)
        assert str(exc.value) == f"unknown {what} 'Nope'; valid ids: {', '.join(sorted(tables))}"


def _two_population_files(tmp_path, data_dir, second_rows):
    """A copy of the bundled data whose population is split over two files,
    the second holding ``second_rows`` of the bundled file."""
    bundle = tmp_path / "data"
    shutil.copytree(data_dir, bundle)
    header, *rows = (bundle / "population.csv").read_text().splitlines()
    first = [r for r in rows if r.startswith(("PopMV,", "PopHV,"))]
    (bundle / "population.csv").write_text("\n".join([header, *first]) + "\n")
    (bundle / "population_b.csv").write_text(
        "\n".join([header, *(r for r in rows if second_rows(r))]) + "\n")
    manifest = bundle / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(
        "data.population = population.csv", "data.population = population.csv,population_b.csv"))
    return parse_manifest(manifest), bundle / "population_b.csv"


def test_two_population_files_read_as_one_mapping(tmp_path, data_dir):
    manifest, _ = _two_population_files(
        tmp_path, data_dir, lambda r: r.startswith(("PopLV,", "PopCFV,")))
    populations, _ = manifest.load_populations()
    single = io.read_population_csv(data_dir / "population.csv")
    assert list(populations) == ["PopMV", "PopHV", "PopLV", "PopCFV"]
    assert populations.grid == single.grid
    for name in single:
        assert np.array_equal(populations[name].counts, single[name].counts)
    want = cri(parse_manifest(data_dir / "manifest.txt").scenario_config(),
               parse_manifest(data_dir / "manifest.txt").load_inputs())
    assert cri(manifest.scenario_config(), manifest.load_inputs()) == want


def test_two_population_files_with_one_scenario_twice_are_rejected(tmp_path, data_dir):
    manifest, second = _two_population_files(
        tmp_path, data_dir, lambda r: r.startswith(("PopLV,", "PopHV,")))
    with pytest.raises(ValidationError) as exc:
        manifest.load_populations()
    assert str(exc.value) == f"{second}: duplicate population scenario 'PopHV'"


def test_two_population_files_on_different_grids_are_rejected(tmp_path, data_dir):
    manifest, second = _two_population_files(
        tmp_path, data_dir, lambda r: r.startswith("PopLV,") and ",2060," not in r)
    with pytest.raises(ValidationError) as exc:
        manifest.load_populations()
    assert str(exc.value) == f"{second}: population grids differ across files"
