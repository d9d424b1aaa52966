"""Dominance relations and the mutually nondominated solution set."""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

__all__ = [
    "FrontEntry",
    "FrontSet",
    "nondominated",
    "insert_filter",
    "is_stable",
    "write_front_csv",
    "front_csv_text",
    "read_csv",
    "read_images_csv",
]

SCHEMA_HEADER = "# fd-schema v1"


def nondominated(Y) -> np.ndarray:
    """Unique rows of Y that no other row dominates, in ``np.unique`` order.

    In lexicographic order every dominator of a row comes before it (Kung,
    Luccio & Preparata 1975) and every earlier row is no worse on f_1, so a
    row is dominated iff a row kept before it is no worse on f_2..f_m. For two
    objectives that is a running minimum of f_2.
    """
    Y = np.unique(np.atleast_2d(np.asarray(Y, dtype=float)), axis=0)
    if Y.shape[0] <= 1:
        return Y
    if Y.shape[1] == 2:
        keep = np.empty(Y.shape[0], dtype=bool)
        keep[0] = True
        keep[1:] = Y[1:, 1] < np.minimum.accumulate(Y[:-1, 1])
        return Y[keep]
    kept = np.empty_like(Y)
    k = 0
    for row in Y:
        if not np.all(kept[:k, 1:] <= row[1:], axis=1).any():
            kept[k] = row
            k += 1
    return kept[:k]


@dataclass
class FrontEntry:
    """A decision point with its image.

    ``provenance`` is "initial", "refinement" or "exploration(I)" with I the
    1-based objective subset that generated the point.
    """

    x: np.ndarray
    fx: np.ndarray
    provenance: str = "initial"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.fx = np.asarray(self.fx, dtype=float)


class FrontSet:
    """Ordered collection of mutually nondominated entries.

    A cached image matrix is kept in sync with the entry list so dominance
    filtering and spacing checks are vectorized linear scans.
    """

    def __init__(self, entries: Iterable[FrontEntry] = ()):
        self.entries: List[FrontEntry] = list(entries)
        self._ids = {id(e) for e in self.entries}
        self._image_cache: Optional[np.ndarray] = None

    @classmethod
    def _from_parts(cls, entries: List[FrontEntry], images: np.ndarray, ids: set) -> "FrontSet":
        """A set whose image stack and id set the caller already holds."""
        front = cls.__new__(cls)
        front.entries = entries
        front._ids = ids
        front._image_cache = images
        return front

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __contains__(self, entry: FrontEntry) -> bool:
        return id(entry) in self._ids

    def images(self) -> np.ndarray:
        # entries are never mutated after construction, so the stack is cached
        if self._image_cache is None:
            if not self.entries:
                return np.empty((0, 0))
            self._image_cache = np.stack([e.fx for e in self.entries])
        return self._image_cache

    def points(self) -> np.ndarray:
        if not self.entries:
            return np.empty((0, 0))
        return np.stack([e.x for e in self.entries])


def is_stable(front: FrontSet) -> bool:
    """True iff no entry's image dominates (<=, with one strict) another's."""
    if len(front) <= 1:
        return True
    F = np.unique(front.images(), axis=0)
    return len(nondominated(F)) == len(F)


def insert_filter(front: FrontSet, z: FrontEntry) -> FrontSet:
    """Insert z, removing entries it dominates.

    A candidate dominated by (or with image equal to) an existing entry is
    rejected and the front is returned unchanged, which keeps stability a hard
    invariant under floating point.
    """
    if not front.entries:
        return FrontSet([z])
    F = front.images()
    fz = z.fx
    # z dominated by or equal to an incumbent -> reject
    if np.all(F <= fz, axis=1).any():
        return front
    # drop entries dominated by z; the survivors' images and ids carry over
    removes = np.all(fz <= F, axis=1) & np.any(fz != F, axis=1)
    kept = list(itertools.compress(front.entries, ~removes))
    kept.append(z)
    ids = front._ids.difference(map(id, itertools.compress(front.entries, removes)))
    ids.add(id(z))
    return FrontSet._from_parts(kept, np.vstack([F[~removes], fz]), ids)


def write_front_csv(front: FrontSet, path, n: int, m: int) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(front_csv_text(front, n, m))


def front_csv_text(front: FrontSet, n: int, m: int) -> str:
    """The front CSV: schema line, x/f/provenance header, one row per entry."""
    buf = io.StringIO()
    buf.write(SCHEMA_HEADER + "\n")
    writer = csv.writer(buf)
    writer.writerow(
        [f"x_{i + 1}" for i in range(n)]
        + [f"f_{j + 1}" for j in range(m)]
        + ["provenance"]
    )
    for e in front.entries:
        writer.writerow(
            [repr(float(v)) for v in e.x]
            + [repr(float(v)) for v in e.fx]
            + [e.provenance]
        )
    return buf.getvalue()


def read_csv(path) -> tuple:
    """(header, rows) of a CSV, skipping a leading ``#`` schema line."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            fh.seek(0)
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def read_images_csv(path) -> np.ndarray:
    """Read only the f_1..f_m columns of a front CSV (external solver import)
    as a (rows, m) array; a header-only file gives shape (0, m)."""
    header, rows = read_csv(path)
    f_cols = [i for i, c in enumerate(header) if c.startswith("f_")]
    if not f_cols:
        raise ValueError(f"{path}: no f_* columns found")
    values = [[float(row[i]) for i in f_cols] for row in rows]
    return np.asarray(values, dtype=float).reshape(len(rows), len(f_cols))
