"""Shared age-cohort / projection-date axis.

Every table in the engine (populations, mortality, costs, relative risks)
is indexed by the same grid: contiguous 5-year age cohorts starting at 0
with an open-ended last cohort, and projection dates at 5-year spacing.
Every such table stores its values through :func:`frozen_array`; a file of
many tables of one kind is read as :class:`Tables`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import ValidationError

COHORT_WIDTH = 5
DATE_STEP = 5


@dataclass(frozen=True)
class CohortGrid:
    """Fixed cohort and date axis shared by all engine tables.

    ``cohort_starts`` are the lower bounds of the 5-year cohorts,
    e.g. ``(0, 5, ..., 95)``; the last cohort is open-ended (95+).
    ``dates`` are calendar years at 5-year spacing, e.g. ``(2010, ..., 2060)``.
    """

    cohort_starts: tuple[int, ...]
    dates: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cohort_starts) < 1:
            raise ValidationError("grid needs at least one cohort")
        if self.cohort_starts[0] != 0:
            raise ValidationError("first cohort must start at age 0")
        for a, b in zip(self.cohort_starts, self.cohort_starts[1:]):
            if b - a != COHORT_WIDTH:
                raise ValidationError(
                    f"cohorts must be contiguous {COHORT_WIDTH}-year bins, got {a} then {b}"
                )
        if len(self.dates) < 1:
            raise ValidationError("grid needs at least one projection date")
        for a, b in zip(self.dates, self.dates[1:]):
            if b - a != DATE_STEP:
                raise ValidationError(
                    f"projection dates must step by {DATE_STEP} years, got {a} then {b}"
                )

    @property
    def n_cohorts(self) -> int:
        return len(self.cohort_starts)

    @property
    def n_dates(self) -> int:
        return len(self.dates)

    @property
    def base_date(self) -> int:
        return self.dates[0]

    def date_index(self, date: int) -> int:
        try:
            return self.dates.index(date)
        except ValueError:
            raise ValidationError(f"date {date} is not on the projection grid") from None

    def cohort_label(self, i: int) -> str:
        lo = self.cohort_starts[i]
        if i == self.n_cohorts - 1:
            return f"{lo}+"
        return f"{lo}-{lo + COHORT_WIDTH - 1}"


def frozen_array(
    values, shape: tuple[int, ...], what: str, lo: float = 0.0, hi: float = math.inf
) -> np.ndarray:
    """A write-protected float copy of ``values``: the one check of every table.

    Raises ``ValidationError`` naming ``what`` unless the copy has ``shape``
    and every entry is finite and in ``[lo, hi]``.
    """
    a = np.array(values, dtype=float)
    if a.shape != shape:
        raise ValidationError(f"{what}: shape {a.shape}, expected {shape}")
    if not np.all(np.isfinite(a) & (a >= lo) & (a <= hi)):
        bound = f">= {lo:g}" if hi == math.inf else f"in [{lo:g}, {hi:g}]"
        raise ValidationError(f"{what} must be finite and {bound}")
    a.setflags(write=False)
    return a


T = TypeVar("T")


class Tables(Mapping[str, T]):
    """Tables of one kind on one grid, by id: a read-only mapping.

    ``stack`` holds the tables along its first axis, in the order of
    ``ids``; it is copied, checked and write-protected once, by
    :func:`frozen_array`. Each table is built when it is asked for, as
    ``kind(id, grid, row)`` through its own checked constructor, so the
    per-table checks run only for the ids a run uses.
    """

    def __init__(self, kind: type[T], grid: CohortGrid, ids: Sequence[str], stack) -> None:
        self.kind, self.grid, self.ids = kind, grid, tuple(ids)
        self._index = {key: i for i, key in enumerate(self.ids)}
        shape = (len(self.ids), *np.shape(stack)[1:])
        self.stack = frozen_array(stack, shape, f"{kind.__name__} stack")

    def __getitem__(self, key: str) -> T:
        return self.kind(key, self.grid, self.stack[self._index[key]])

    def __contains__(self, key) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)
