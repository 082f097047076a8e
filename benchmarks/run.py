#!/usr/bin/env python3
"""The hcimpact benchmark: one command, three workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Workloads are ``sweep`` (the sensitivity grid), ``ingest`` (parsing and
loading a large seeded input set) and ``cli`` (each subcommand as a
subprocess). Each is a closed loop: one client in one process, one BLAS
thread, the next operation starting when the previous one has ended.
Every operation's output is checked; an operation that raises, exits
non-zero or fails its check counts as failed.

With ``--trace 0`` the end-to-end metrics are printed, their times
normalised to a fixed machine speed by a reference kernel timed around
every set-up and operation (``speed.py``); with ``--trace 1``
half the time runs untraced and half traced, and the per-layer metrics
are printed. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The run
environment and the seed are printed on the line before it and, with the
spans of a traced run, kept under ``.bench_work/``. See DESIGN.md.
"""

import os

# pinned before numpy is imported, here and in every child process
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gen  # noqa: E402
from oracle import Oracle, check_result  # noqa: E402
from speed import REF_PASS_S, Speed  # noqa: E402
from tracer import MODEL_FUNCTIONS, Stat, Tracer, data_rows  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUNDLED_MANIFEST = ROOT / "data" / "manifest.txt"
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
SAMPLE_CELLS = 24  # oracle-checked cells per sweep operation
PROBES = 5  # fresh interpreters per start-up probe
CHILD_TIMEOUT_S = 120
CLI_COMMANDS = ("project", "impact", "sensitivity", "report")
REPORT_INPUTS = (
    "impact/impact.csv",
    "impact/expenditure.csv",
    "sensitivity/sensitivity.csv",
    "project/population_PopSV-1.7.csv",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str]) -> tuple[int, str]:
    """Run a child process to completion; return its exit code and standard error.

    The wait is a blocking ``waitpid``: ``subprocess``'s own timeout
    polls with sleeps of up to 50 ms, which would round every measured
    wall time up to 50 ms steps. A timer kills a child that hangs.
    """
    with subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, stderr = proc.communicate()
        finally:
            killer.cancel()
    return proc.returncode, stderr


def run_checked(argv: list[str]) -> None:
    code, stderr = run_child(argv)
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {stderr.strip()[-300:]}")


def cpu_s() -> float:
    """User + system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def report_manifest_text(golden_cli: Path) -> str:
    """The ``report`` subcommand's manifest: it renders the golden result files."""
    files = ", ".join(str(golden_cli / rel) for rel in REPORT_INPUTS)
    return f"report.files = {files}\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------------ workloads

class Workload:
    """Set-up (timed, repeated), operations (timed) and their checks (untimed)."""

    item = "operation"
    ops_per_round = 1  # the measured loop ends on a round boundary
    setup_repeats = 5
    ref_passes = 6  # reference-kernel passes after each timed task (speed.py)

    def __init__(self, seed: int, work: Path, hc):
        self.seed, self.work, self.hc = seed, work, hc

    def setup(self) -> None:
        """Work a user pays before the first operation; timed and repeated."""

    def prepare(self) -> None:
        """Untimed preparation of the checks, after the last set-up."""

    def op(self, i: int):
        raise NotImplementedError

    def items(self, out) -> int:
        return 1

    def check(self, i: int, out) -> list[str]:
        return []

    def final_checks(self) -> tuple[int, list[str]]:
        """Extra checked operations after the measured loop: (count, problems)."""
        return 0, []

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Sweep(Workload):
    """4,800-cell sensitivity grid over the bundled data, rendered as CSV."""

    item = "grid cell"
    setup_repeats = 15
    ref_passes = 10

    def setup(self) -> None:
        m = self.hc.manifest.parse_manifest(BUNDLED_MANIFEST)
        self.inputs, self.base = m.load_inputs(), m.scenario_config()
        self.rr, self.rf = gen.sweep_axes(self.seed)

    def prepare(self) -> None:
        self.oracle = Oracle(BUNDLED_MANIFEST)
        golden = json.loads((GOLDEN / "sweep.json").read_text())
        self.golden_seed, self.golden_sha = golden["seed"], golden["sha256"]
        self.digest = None

    def grid(self, rr, rf):
        hc = self.hc
        rows = hc.impact.sensitivity_grid(
            self.base, self.inputs, rr, rf, gen.SWEEP_MODELS, gen.SWEEP_POPULATIONS
        )
        return rows, hc.io.impact_csv_text(rows)

    def op(self, i: int):
        return self.grid(self.rr, self.rf)

    def items(self, out) -> int:
        return len(out[0])

    def check(self, i: int, out) -> list[str]:
        rows, text = out
        coords = list(itertools.product(gen.SWEEP_MODELS, gen.SWEEP_POPULATIONS, self.rr, self.rf))
        if len(rows) != len(coords) or text.count("\n") != len(coords) + 1:
            return [f"grid has {len(rows)} rows and {text.count(chr(10))} CSV lines, "
                    f"expected {len(coords)} cells"]
        for k, (row, (m, p, rr, _)) in enumerate(zip(rows, coords)):
            if (row.model, row.pop_scenario, row.rr_selector) != (m, p, rr):
                return [f"row {k} is at ({row.model}, {row.pop_scenario}, {row.rr_selector}), "
                        f"expected ({m}, {p}, {rr})"]
        problems = []
        digest = sha256(text)
        if self.seed == self.golden_seed and digest != self.golden_sha:
            problems.append(f"grid CSV sha256 {digest} differs from the golden {self.golden_sha}")
        if self.digest is not None and digest != self.digest:
            problems.append("grid CSV differs between two operations of one run")
        self.digest = digest
        b = self.base
        for k in random.Random(self.seed * 1_000_003 + i).sample(range(len(rows)), SAMPLE_CELLS):
            m, p, rr, rf = coords[k]
            row, res = rows[k], rows[k].result
            ref = self.oracle.cell(m, p, b.cost_profile, b.ds_scenario, rr, rf, b.shock_date)
            problems += check_result(f"cell {k}", m, res.crimi, res.criui, res.cri_gdp_pct, row.rf, ref)
        return problems

    def final_checks(self) -> tuple[int, list[str]]:
        if self.seed == self.golden_seed:
            return 0, []
        _, text = self.grid(*gen.sweep_axes(self.golden_seed))
        if sha256(text) != self.golden_sha:
            return 1, [f"seed-{self.golden_seed} grid CSV differs from the golden copy"]
        return 1, []


class Ingest(Workload):
    """parse_manifest + load_inputs + one cri over a large seeded input set."""

    item = "CSV data row"
    ops_per_round = len(gen.INGEST_MODELS)  # each round uses every manifest once

    def setup(self) -> None:
        self.inputs_dir = self.work / "ingest"
        run_checked([sys.executable, str(BENCH / "gen.py"), "--seed", str(self.seed),
                     "--out", str(self.inputs_dir)])

    def prepare(self) -> None:
        self.manifests = [self.inputs_dir / f"manifest_{m}.txt" for m in gen.INGEST_MODELS]
        self.configs = [Oracle.read_manifest(p) for p in self.manifests]
        files = {v for k, v in self.configs[0].items() if k.startswith("data.")}
        self.rows = sum(data_rows(self.inputs_dir / f) for f in files)
        self.oracle = Oracle(self.manifests[0], populations=[c["scenario.population"] for c in self.configs])

    def op(self, i: int):
        hc = self.hc
        m = hc.manifest.parse_manifest(self.manifests[i % len(self.manifests)])
        inputs = m.load_inputs()
        return inputs, hc.impact.cri(m.scenario_config(), inputs)

    def items(self, out) -> int:
        return self.rows

    def check(self, i: int, out) -> list[str]:
        inputs, res = out
        problems = []
        for what, got in (("populations", inputs.populations), ("cost profiles", inputs.cost_profiles),
                          ("D/S profiles", inputs.ds_profiles)):
            if len(got) != gen.INGEST_SCENARIOS:
                problems.append(f"{len(got)} {what} loaded, expected {gen.INGEST_SCENARIOS}")
        env = inputs.rr_mortality
        for bound, want in (("lower", self.oracle.rr_lower), ("upper", self.oracle.rr_upper)):
            if not np.allclose(getattr(env, bound), want, rtol=1e-9, atol=0.0):
                problems.append(f"{bound} mortality-risk envelope differs from the oracle")
        c = self.configs[i % len(self.configs)]
        sel = lambda key: c[key] if c[key] in ("lower", "upper") else float(c[key])  # noqa: E731
        ref = self.oracle.cell(c["scenario.model"], c["scenario.population"], c["scenario.cost_profile"],
                               c["scenario.ds_scenario"], sel("scenario.rr_selection"),
                               sel("scenario.rf_selection"), int(c["scenario.shock_date"]))
        return problems + check_result(f"cri of manifest {i % len(self.configs)}", c["scenario.model"],
                                       res.crimi, res.criui, res.cri_gdp_pct, ref.rf, ref)


class Cli(Workload):
    """One subcommand per operation, in a fixed order, each into a fresh directory."""

    item = "subcommand"
    ops_per_round = len(CLI_COMMANDS)
    ref_passes = 4

    def __init__(self, seed: int, work: Path, hc, in_process: bool = False):
        super().__init__(seed, work, hc)
        self.in_process = in_process

    def setup(self) -> None:
        self.report_manifest = self.work / "report_manifest.txt"
        self.report_manifest.write_text(report_manifest_text(GOLDEN / "cli"))
        # a first interpreter compiles and caches the package's bytecode
        run_checked([sys.executable, "-c", "import hcimpact.cli"])

    def op(self, i: int):
        command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
        out = self.work / f"op{i}"
        manifest = self.report_manifest if command == "report" else BUNDLED_MANIFEST
        argv = [command, "--manifest", str(manifest), "--out", str(out)]
        if self.in_process:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                return command, out, self.hc.cli.main(argv), ""
        return (command, out, *run_child([sys.executable, "-m", "hcimpact.cli", *argv]))

    def check(self, i: int, out) -> list[str]:
        command, out_dir, code, stderr = out
        try:
            if code != 0:
                return [f"{command} exited {code}: {stderr.strip()[-300:]}"]
            problems = []
            for golden in sorted((GOLDEN / "cli" / command).iterdir()):
                produced = out_dir / golden.name
                if not produced.is_file() or produced.read_bytes() != golden.read_bytes():
                    problems.append(f"{command}: {golden.name} missing or not byte-identical")
            return problems
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def peak_rss_kib(self) -> int:
        who = resource.RUSAGE_SELF if self.in_process else resource.RUSAGE_CHILDREN
        return resource.getrusage(who).ru_maxrss


WORKLOADS = {"sweep": Sweep, "ingest": Ingest, "cli": Cli}


# ------------------------------------------------------------------ measuring

class Loop:
    """Closed-loop results: per-operation wall, CPU, speed factor, items and tracing, plus failures."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.factor: list[float] = []  # machine-speed factor around each operation (speed.py)
        self.items: list[int] = []
        self.traced: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record_failure(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def wall_p50(self, traced: bool) -> float:
        return statistics.median(w for w, t in zip(self.wall, self.traced) if t == traced)


def run_loop(wl: Workload, seconds: float, loop: Loop, speed: Speed | None = None,
             tracer: Tracer | None = None, setup_times: list[float] | None = None) -> None:
    """Run whole rounds of operations until ``seconds`` have passed.

    With ``speed``, the reference kernel is timed after every operation
    and set-up, for their speed factors. With a tracer, every second
    round runs traced, so traced and untraced operations share the
    machine's conditions. With ``setup_times``, the set-up is repeated
    between rounds, evenly over the run, until it has run
    ``wl.setup_repeats`` times, and its normalised times are appended: a
    median over the whole run is far steadier than one over its first
    instants.
    """
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        if setup_times is not None and len(setup_times) < wl.setup_repeats and \
                time.perf_counter() - start >= seconds * len(setup_times) / wl.setup_repeats:
            setup_times.append(timed_setup(wl, speed))
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        try:
            for _ in range(wl.ops_per_round):
                run_op(wl, loop, speed, traced)
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline and (tracer is None or rounds >= 2):
            return


def timed_setup(wl: Workload, speed: Speed | None) -> float:
    """Set-up wall time, normalised to the reference speed when ``speed`` is given."""
    t0 = time.perf_counter()
    wl.setup()
    wall = time.perf_counter() - t0
    return wall * speed.factor() if speed else wall


def run_op(wl: Workload, loop: Loop, speed: Speed | None, traced: bool) -> None:
    i = loop.attempted
    c0, t0 = cpu_s(), time.perf_counter()
    try:
        out = wl.op(i)
        problems = None
    except Exception as exc:  # a failing operation is counted, not fatal
        problems = [f"operation {i} raised {exc!r}"]
    t1, c1 = time.perf_counter(), cpu_s()
    loop.factor.append(speed.factor() if speed else 1.0)
    if problems is None:
        try:
            problems = wl.check(i, out)
        except Exception as exc:
            problems = [f"check of operation {i} raised {exc!r}"]
        loop.items.append(wl.items(out))
    else:
        loop.items.append(0)
    loop.wall.append(t1 - t0)
    loop.cpu.append(c1 - c0)
    loop.traced.append(traced)
    loop.attempted += 1
    if problems:
        loop.record_failure(problems)


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer no such
    percentile exists and the maximum is returned at percentile 100.
    """
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def probe_s(argv: list[str]) -> float:
    """Median wall time of a fresh interpreter running ``argv``."""
    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        run_checked([sys.executable, *argv])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def layer_metrics(tr: Tracer, ops: int, overhead: float, interpreter_s: float, import_s: float) -> dict:
    """Per-layer metrics of a traced run, per traced operation unless named otherwise."""
    st = tr.stats()
    stat = lambda name: st.get(name, Stat())  # noqa: E731
    cells = stat("impact.cri").calls  # a cell is one crisis-impact evaluation
    per_cell = lambda x: x / cells if cells else 0.0  # noqa: E731
    per_op = lambda x: x / ops  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    groups = tr.io_names
    read_self = sum(stat(f"io.{n}").self_s for n in groups["read"])
    write_self = sum(stat(f"io.{n}").self_s for n in groups["write"])
    model_calls = sum(stat(n).calls for n in MODEL_FUNCTIONS)
    dates = tr.counts["expenditure.dates_evaluated"]

    def cli_self(command):
        s = stat(f"cli.main.{command}")
        return ratio(s.self_s, s.calls)

    # (name, unit, targets it needs, value)
    defs = [
        ("expenditure.evaluate_model.calls_per_cell", "count", ["expenditure.evaluate_model", "impact.cri"],
         lambda: per_cell(stat("expenditure.evaluate_model").calls)),
        ("expenditure.dates_evaluated_per_cell", "count", [*MODEL_FUNCTIONS, "impact.cri"],
         lambda: per_cell(dates)),
        ("expenditure.useful_date_frac", "ratio", list(MODEL_FUNCTIONS),
         lambda: ratio(model_calls, dates)),
        *[(f"{n}.self_s", "s", [n], lambda n=n: per_op(stat(n).self_s)) for n in MODEL_FUNCTIONS],
        ("expenditure.ExpenditurePath.constructed", "count", ["expenditure.ExpenditurePath.__init__"],
         lambda: per_op(tr.counts["expenditure.ExpenditurePath.__init__"])),
        ("expenditure.CostProfile.constructed", "count", ["expenditure.CostProfile.__init__"],
         lambda: per_op(tr.counts["expenditure.CostProfile.__init__"])),
        ("impact.sensitivity_grid.self_s", "s", ["impact.sensitivity_grid"],
         lambda: per_op(stat("impact.sensitivity_grid").self_s)),
        ("impact.cri.calls", "count", ["impact.cri"], lambda: per_op(cells)),
        ("impact.cri.self_s", "s", ["impact.cri"], lambda: per_op(stat("impact.cri").self_s)),
        ("impact.resolve_rf.calls_per_cell", "count", ["impact.resolve_rf", "impact.cri"],
         lambda: per_cell(stat("impact.resolve_rf").calls)),
        ("relative_risk.apply_mortality_shock.calls", "count", ["relative_risk.apply_mortality_shock"],
         lambda: per_op(stat("relative_risk.apply_mortality_shock").calls)),
        ("relative_risk.apply_mortality_shock.self_s", "s", ["relative_risk.apply_mortality_shock"],
         lambda: per_op(stat("relative_risk.apply_mortality_shock").self_s)),
        ("relative_risk.build_rr_envelope.s", "s", ["relative_risk.build_rr_envelope"],
         lambda: per_op(stat("relative_risk.build_rr_envelope").total_s)),
        ("relative_risk.dilute_relative_risk.calls", "count", ["relative_risk.dilute_relative_risk"],
         lambda: per_op(stat("relative_risk.dilute_relative_risk").calls)),
        ("population.MortalityTable.constructed", "count", ["population.MortalityTable.__init__"],
         lambda: per_op(tr.counts["population.MortalityTable.__init__"])),
        ("population.project_population.s", "s", ["population.project_population"],
         lambda: per_op(stat("population.project_population").total_s)),
        ("grid.CohortGrid.date_index.calls_per_cell", "count", ["grid.CohortGrid.date_index", "impact.cri"],
         lambda: per_cell(tr.counts["grid.CohortGrid.date_index"])),
        ("io.read.self_s", "s", ["io.read"], lambda: per_op(read_self)),
        ("io.read.rows", "count", ["io.read"], lambda: per_op(tr.counts["io.read.rows"])),
        ("io.read.rows_per_s", "1/s", ["io.read"], lambda: ratio(tr.counts["io.read.rows"], read_self)),
        ("io.read_population_csv.self_s", "s", ["io.read_population_csv"],
         lambda: per_op(stat("io.read_population_csv").self_s)),
        ("io.write.self_s", "s", ["io.write"], lambda: per_op(write_self)),
        ("io.write.bytes", "B", ["io.write"], lambda: per_op(tr.counts["io.write.bytes"])),
        ("manifest.load_inputs.self_s", "s", ["manifest.RunManifest.load_inputs"],
         lambda: per_op(stat("manifest.RunManifest.load_inputs").self_s)),
        ("manifest.parse_manifest.s", "s", ["manifest.parse_manifest"],
         lambda: per_op(stat("manifest.parse_manifest").total_s)),
        ("report.render_result_file.s", "s", ["report.render_result_file"],
         lambda: per_op(stat("report.render_result_file").total_s)),
        ("report.render_table.self_s", "s", ["report.render_table"],
         lambda: per_op(stat("report.render_table").self_s)),
        *[(f"cli.main.{c}.self_s", "s", ["cli.main"], lambda c=c: cli_self(c)) for c in CLI_COMMANDS],
        ("cli.import_s", "s", [], lambda: import_s),
        ("cli.interpreter_s", "s", [], lambda: interpreter_s),
        ("trace.overhead_ratio", "ratio", [], lambda: overhead),
    ]
    missing = set(tr.missing)
    out = {}
    for name, unit, needs, value in defs:
        gone = [n for n in needs if n in missing]
        out[name] = {"missing": gone} if gone else {"value": float(value()), "unit": unit}
    return out


def end_to_end_metrics(wl: Workload, loop: Loop, setup_times: list[float]) -> dict:
    """End-to-end metrics; times are normalised to the reference speed (speed.py)."""
    wall = [w * f for w, f in zip(loop.wall, loop.factor)]
    cpu = [c * f for c, f in zip(loop.cpu, loop.factor)]
    tail_s, tail_pct = tail(wall)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                    "note": f"median of {len(setup_times)} set-ups"},
        "op_s_p50": {"value": statistics.median(wall), "unit": "s",
                     "note": f"n={len(wall)}, raw median {statistics.median(loop.wall):.4f} s"},
        "op_s_tail": {"value": tail_s, "unit": "s",
                      "note": f"p{tail_pct:.1f} of n={len(wall)}, "
                              f"{10 if len(wall) > 10 else 0} samples beyond"},
        "op_cpu_s_p50": {"value": statistics.median(cpu), "unit": "s",
                         "note": f"raw median {statistics.median(loop.cpu):.4f} s"},
        "items_per_s": {"value": sum(loop.items) / sum(wall), "unit": "1/s",
                        "note": f"{wl.item}s per second over all operations, "
                                f"raw {sum(loop.items) / sum(loop.wall):.1f}"},
        "peak_rss_mib": {"value": wl.peak_rss_kib() / 1024.0, "unit": "MiB"},
        "ok_frac": {"value": (loop.attempted - loop.failed) / loop.attempted, "unit": "ratio",
                    "note": f"failed_frac={loop.failed / loop.attempted}"},
    }


# ------------------------------------------------------------------- plumbing

def load_engine():
    """Import hcimpact from this checkout's src/, or exit 2 when it is not there."""
    if not (SRC / "hcimpact" / "__init__.py").is_file() or not BUNDLED_MANIFEST.is_file():
        print(f"error: no hcimpact sources under {SRC} or no bundled manifest", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hcimpact
    import hcimpact.cli
    import hcimpact.impact
    import hcimpact.io
    import hcimpact.manifest

    if Path(hcimpact.__file__).resolve().parent != (SRC / "hcimpact").resolve():
        print(f"error: imported hcimpact from {hcimpact.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return hcimpact


def environment(seed: int) -> dict:
    cpu_model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(BLAS_THREADS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="hcimpact benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    hc = load_engine()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload == "cli" and args.trace:
            wl = Cli(args.seed, work, hc, in_process=True)  # traced in process
        else:
            wl = WORKLOADS[args.workload](args.seed, work, hc)
        speed = None if args.trace else Speed(wl.ref_passes)
        setup_times = [timed_setup(wl, speed)]
        wl.prepare()
        if speed:
            speed.refresh()  # the next operation's 'before', after the untimed preparation

        loop = Loop()
        if args.trace:
            tr = Tracer()
            run_loop(wl, args.seconds, loop, tracer=tr)
            overhead = loop.wall_p50(True) / loop.wall_p50(False)
            interpreter_s = probe_s(["-c", "pass"])
            import_s = probe_s(["-c", "import hcimpact.cli"]) - interpreter_s
            metrics = layer_metrics(tr, sum(loop.traced), overhead, interpreter_s, import_s)
            tr.write_spans(WORK / "spans" / f"{args.workload}-seed{args.seed}.csv")
        else:
            run_loop(wl, args.seconds, loop, speed, setup_times=setup_times)
            metrics = end_to_end_metrics(wl, loop, setup_times)
        extra, problems = wl.final_checks()
        loop.attempted += extra
        if problems:
            loop.record_failure(problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in loop.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    width = max(map(len, metrics))
    print(f"workload {args.workload}, {'traced' if args.trace else 'untraced'}, "
          f"{loop.attempted} operations, {loop.failed} failed")
    for name, m in metrics.items():
        if "missing" in m:
            print(f"  {name:<{width}}  MISSING ({', '.join(m['missing'])} no longer exists)")
        else:
            note = f"  ({m['note']})" if "note" in m else ""
            print(f"  {name:<{width}}  {m['value']!r} {m['unit']}{note}")
    if speed:
        print(f"  times normalised to a {REF_PASS_S * 1e3:.0f} ms reference pass; measured passes: median "
              f"{statistics.median(speed.pass_s) * 1e3:.2f} ms over {len(speed.pass_s)} measurements")
    env = environment(args.seed)
    print("environment " + json.dumps(env))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items() if "value" in m},
    }
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    samples = {"wall_s": loop.wall, "cpu_s": loop.cpu, "speed_factor": loop.factor, "traced": loop.traced,
               "ref_pass_s": speed.pass_s if speed else []}
    record.write_text(json.dumps({"environment": env, "detail": metrics, "result": result,
                                  "samples": samples}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
