"""Span and counter tracing of hcimpact from outside the package.

The tracer replaces public functions and methods of the ``hcimpact``
modules with timing wrappers, at every module that binds them (for
example ``evaluate_model`` is bound in ``expenditure``, ``impact`` and
``cli``), and puts the originals back on ``uninstall``. Nothing inside
``src/`` is instrumented. Spans are kept in memory and written out by
``write_spans`` when the run ends. A target that no longer exists is
recorded in ``missing``, so a metric built on it is reported as missing
rather than as zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# (module, attribute) pairs timed as spans
SPANS = (
    ("expenditure", "evaluate_model"),
    ("expenditure", "expenditure_pd"),
    ("expenditure", "expenditure_ch"),
    ("expenditure", "expenditure_dc"),
    ("impact", "sensitivity_grid"),
    ("impact", "cri"),
    ("impact", "resolve_rf"),
    ("relative_risk", "apply_mortality_shock"),
    ("relative_risk", "build_rr_envelope"),
    ("relative_risk", "dilute_relative_risk"),
    ("population", "project_population"),
    ("manifest", "parse_manifest"),
    ("manifest", "RunManifest.load_inputs"),
    ("report", "render_result_file"),
    ("report", "render_table"),
    ("cli", "main"),
)
# (module, attribute) pairs only counted: too small or too frequent for a span
COUNTS = (
    ("grid", "CohortGrid.date_index"),
    ("expenditure", "ExpenditurePath.__init__"),
    ("expenditure", "CostProfile.__init__"),
    ("population", "MortalityTable.__init__"),
)
MODEL_FUNCTIONS = ("expenditure.expenditure_pd", "expenditure.expenditure_ch", "expenditure.expenditure_dc")


def io_groups(io_module) -> dict[str, list[str]]:
    """Public readers (``read_*``) and writers (``write_*``, ``*_csv_text``) of ``io``."""
    public = [n for n in getattr(io_module, "__all__", dir(io_module)) if callable(getattr(io_module, n, None))]
    return {
        "read": [n for n in public if n.startswith("read_")],
        "write": [n for n in public if n.startswith("write_") or n.endswith("_csv_text")],
    }


def data_rows(path) -> int:
    """Data rows of a CSV file: its non-empty lines after the header."""
    lines = [ln for ln in Path(path).read_bytes().splitlines() if ln.strip()]
    return max(len(lines) - 1, 0)


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self) -> None:
        # span: [name, parent index or -1, start ns, end ns]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.io_names: dict[str, list[str]] = {"read": [], "write": []}
        self._reading = False
        self._rows_cache: dict[tuple, int] = {}

    # ---------------------------------------------------------------- wrapping

    def _span(self, name, fn, name_of=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_of(args) if name_of else name, stack[-1] if stack else -1, clock(), 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace(self, package: str, modname: str, path: str, make) -> None:
        """Wrap ``modname.path`` wherever it is bound; record it missing if it is gone."""
        name = f"{modname}.{path}"
        module = sys.modules.get(f"{package}.{modname}")
        owner_name, _, attr = path.rpartition(".")
        owner = module
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = None if owner is None else getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = make(name, original)
        if owner_name:  # a method: the class is shared by every importer
            self._patch(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self, package: str = "hcimpact") -> None:
        self.missing = []
        for modname, path in SPANS:
            if (modname, path) == ("cli", "main"):
                self._replace(package, modname, path, lambda n, f: self._span(
                    n, f, name_of=lambda args: f"cli.main.{args[0][0] if args and args[0] else '?'}"))
            elif f"{modname}.{path}" in MODEL_FUNCTIONS:
                self._replace(package, modname, path,
                              lambda n, f: self._span(n, f, on_result=self._count_dates))
            else:
                self._replace(package, modname, path, self._span)
        for modname, path in COUNTS:
            self._replace(package, modname, path, self._counter)

        io_module = sys.modules.get(f"{package}.io")
        self.io_names = groups = io_groups(io_module) if io_module else {"read": [], "write": []}
        for group, names in groups.items():
            if not names:
                self.missing.append(f"io.{group}")
        for fn_name in groups["read"]:
            self._replace(package, "io", fn_name, self._reader)
        for fn_name in groups["write"]:
            self._replace(package, "io", fn_name, lambda n, f: self._span(
                n, f, on_result=self._count_bytes))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------ measurements

    def _count_dates(self, args, result) -> None:
        self.counts["expenditure.dates_evaluated"] += int(np.size(getattr(result, "values", result)))

    def _count_bytes(self, args, result) -> None:
        if isinstance(result, str):
            self.counts["io.write.bytes"] += len(result.encode())

    def _data_rows(self, path) -> int:
        """``data_rows``, cached per file version."""
        st = Path(path).stat()
        key = (str(path), st.st_size, st.st_mtime_ns)
        if key not in self._rows_cache:
            self._rows_cache[key] = data_rows(path)
        return self._rows_cache[key]

    def _reader(self, name, fn):
        timed = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._reading:  # a reader called by a reader: its rows count once
                return timed(*args, **kwargs)
            self._reading = True
            try:
                result = timed(*args, **kwargs)
            finally:
                self._reading = False
            if args:
                self.counts["io.read.rows"] += self._data_rows(args[0])
            return result

        return wrapper

    # ----------------------------------------------------------------- results

    def stats(self) -> dict[str, Stat]:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus the time its direct child
        spans cover; spans nest strictly because the run is one thread.
        """
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, Stat] = {}
        for (name, _, start, end), inner in zip(self.spans, child_ns):
            s = out.setdefault(name, Stat())
            s.calls += 1
            s.total_s += (end - start) * 1e-9
            s.self_s += (end - start - inner) * 1e-9
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            t0 = self.spans[0][2] if self.spans else 0
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t0},{end - t0}\n")
