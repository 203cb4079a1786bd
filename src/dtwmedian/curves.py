"""Core domain types, dataset ingestion/serialization and synthetic data.

All curve coordinates are float64. Types are immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class ValidationError(ValueError):
    """Invalid arguments, malformed inputs or violated type invariants."""


class ParseError(ValidationError):
    """Malformed input file; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ResourceGuardError(RuntimeError):
    """A configured size/compute guard was exceeded."""


def _as_point_array(points, context="curve", ndim=2):
    # a new row-major read-only array, never the caller's, with -0.0 turned
    # into +0.0: equal points then have equal bytes, so hashing agrees with
    # equality, and the compiled kernels can read the points as rows. Its
    # last two axes are points and coordinates; ndim=3 checks a batch of
    # curves of one shape at once
    arr = np.add(np.asarray(points, dtype=np.float64), 0.0, order="C")
    if arr.ndim == 1 and ndim == 2:
        arr = arr.reshape(-1, 1)
    if arr.ndim != ndim or arr.shape[-2] < 1:
        raise ValidationError(f"{context}: points must be a non-empty sequence of points")
    if arr.shape[-1] < 1:
        raise ValidationError(f"{context}: point dimension must be >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{context}: coordinates must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Curve:
    """A polygonal curve: an ordered non-empty sequence of points in R^d.

    ``points`` is an (m, d) float64 array; ``m`` is the complexity. Points
    are rows; a 1-d input array is interpreted as d=1.
    """

    id: str
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "points", _as_point_array(self.points, context=f"curve {self.id!r}")
        )

    @classmethod
    def batch(cls, ids, block):
        """One curve per row of block (n, m, d), curve t under ids[t], equal
        to ``Curve(ids[t], block[t])``. The checks of one curve run once
        over the whole block, and each curve's points are a read-only row
        view of the checked copy."""
        block = _as_point_array(block, context="curve batch", ndim=3)
        ids = list(ids)
        if len(ids) != block.shape[0]:
            raise ValidationError(f"curve batch: {len(ids)} ids for {block.shape[0]} curves")
        curves = []
        for cid, points in zip(ids, block):
            curve = object.__new__(cls)
            object.__setattr__(curve, "id", cid)
            object.__setattr__(curve, "points", points)
            curves.append(curve)
        return curves

    @property
    def complexity(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.points.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return self.id == other.id and self.points.shape == other.points.shape and bool(
            np.all(self.points == other.points)
        )

    def __hash__(self):
        return hash((self.id, self.points.shape, self.points.tobytes()))


def distinct_curves(curves):
    """The curves with distinct point sequences, each first occurrence in
    input order, and for every input curve the index of its sequence among
    them (an intp array): curves[i] has the points of distinct[inverse[i]].

    Sequences are compared by shape and bytes, ids are ignored. An input
    without duplicates gives back its curves and inverse == arange(n).
    """
    first: dict[tuple, int] = {}
    distinct = []
    inverse = np.empty(len(curves), dtype=np.intp)
    for i, c in enumerate(curves):
        j = first.setdefault((c.points.shape, c.points.tobytes()), len(distinct))
        if j == len(distinct):
            distinct.append(c)
        inverse[i] = j
    return distinct, inverse


@dataclass(frozen=True)
class CurveSet:
    """An ordered set of curves sharing one ambient dimension, with unique ids."""

    curves: tuple[Curve, ...]

    def __post_init__(self):
        curves = tuple(self.curves)
        object.__setattr__(self, "curves", curves)
        seen = set()
        for c in curves:
            if c.id in seen:
                raise ValidationError(f"duplicate curve id {c.id!r}")
            seen.add(c.id)
        dims = {c.dimension for c in curves}
        if len(dims) > 1:
            offender = next(c for c in curves if c.dimension != curves[0].dimension)
            raise ValidationError(
                f"dimension mismatch: curve {offender.id!r} has d={offender.dimension}, "
                f"expected d={curves[0].dimension}"
            )

    def __len__(self):
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)

    def __getitem__(self, i):
        return self.curves[i]


@dataclass(frozen=True)
class WeightedCurveSet:
    """Curves with strictly positive weights (a weighted multiset; ids may repeat)."""

    entries: tuple[tuple[Curve, float], ...]

    def __post_init__(self):
        entries = tuple((c, float(w)) for c, w in self.entries)
        object.__setattr__(self, "entries", entries)
        for c, w in entries:
            if not (w > 0.0) or not np.isfinite(w):
                raise ValidationError(f"curve {c.id!r}: weight must be positive, got {w}")
        dims = {c.dimension for c, _ in entries}
        if len(dims) > 1:
            raise ValidationError("dimension mismatch among weighted entries")

    @property
    def curves(self):
        return tuple(c for c, _ in self.entries)

    @property
    def weights(self):
        return np.array([w for _, w in self.entries], dtype=np.float64)

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the end-to-end clustering pipeline.

    ``sample_constant`` is the absolute constant of the coreset sample-size
    formula; ``size_override`` bypasses the formula entirely.
    """

    k: int
    ell: int
    p: float = 1.0
    eps: float = 0.5
    delta: float = 0.1
    seed: int = 0
    size_override: int | None = None
    sample_constant: float = 0.05
    repetitions: int = 3

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be a positive integer")
        if self.ell < 1:
            raise ValidationError("ell must be a positive integer")
        if not 1.0 <= self.p < np.inf:
            raise ValidationError("p must be >= 1 and finite")
        if not (0.0 < self.eps <= 1.0):
            raise ValidationError("eps must lie in (0, 1]")
        if not (0.0 < self.delta < 1.0):
            raise ValidationError("delta must lie in (0, 1)")
        if self.size_override is not None and self.size_override < 1:
            raise ValidationError("size_override must be positive")
        if not self.sample_constant > 0:
            raise ValidationError("sample_constant must be positive")
        if self.repetitions < 1:
            raise ValidationError("repetitions must be positive")


def new_rng(seed):
    """Explicit seeded generator; every random choice in the package flows
    from one of these, there is no global generator."""
    return np.random.default_rng(seed)


def spawn_seeds(seed, n):
    """n reproducible child seeds derived from one parent seed."""
    return [int(s) for s in new_rng(seed).integers(0, 2**63 - 1, size=n)]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_curves(path, format="jsonl"):
    """Load a CurveSet from ``path``.

    Formats: ``jsonl`` (one {"id","points"[,"weight"]} object per line) or
    ``csv-long`` (header curve_id,seq,x0..x{d-1}; rows of one curve need not
    be contiguous, they are sorted by seq on load; curve order is order of
    first appearance).
    """
    if format == "jsonl":
        return CurveSet(tuple(c for c, _ in _read_jsonl(path)))
    if format == "csv-long":
        return _load_csv_long(path)
    raise ValidationError(f"unknown format {format!r}")


def load_weighted(path):
    """Load a WeightedCurveSet from jsonl; missing weights default to 1."""
    return WeightedCurveSet(tuple((c, 1.0 if w is None else w) for c, w in _read_jsonl(path)))


def _read_jsonl(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(obj, dict) or "points" not in obj:
                raise ParseError("expected an object with a 'points' key", line=lineno)
            cid = str(obj.get("id", len(out)))
            pts = obj["points"]
            if not isinstance(pts, list) or not pts:
                raise ParseError(f"curve {cid!r} has no points", line=lineno)
            try:
                curve = Curve(cid, pts)
            except ValidationError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            weight = obj.get("weight")
            if weight is not None:
                weight = float(weight)
                if not weight > 0:
                    raise ParseError(f"curve {cid!r}: weight must be positive", line=lineno)
            out.append((curve, weight))
    return out


def _load_csv_long(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("missing header row", line=1) from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != "curve_id" or header[1] != "seq":
            raise ParseError("header must be curve_id,seq,x0..x{d-1}", line=1)
        d = len(header) - 2
        rows: dict[str, list[tuple[int, list[float]]]] = {}
        order: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ParseError(f"expected {d + 2} columns, got {len(row)}", line=lineno)
            cid = row[0]
            try:
                seq = int(row[1])
                coords = [float(x) for x in row[2:]]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if cid not in rows:
                rows[cid] = []
                order.append(cid)
            rows[cid].append((seq, coords))
    curves = []
    for cid in order:
        pts = [coords for _, coords in sorted(rows[cid], key=lambda t: t[0])]
        curves.append(Curve(cid, pts))
    return CurveSet(tuple(curves))


def curve_record(c: Curve):
    """The JSON object of one curve, as every jsonl file and JSON document
    holds it."""
    return {"id": c.id, "points": c.points.tolist()}


def save_curves(curves: Iterable[Curve], path):
    """Write curves as jsonl (no weights)."""
    with open(path, "w", encoding="utf-8") as fh:
        for c in curves:
            fh.write(json.dumps(curve_record(c)) + "\n")


def save_weighted(wset: WeightedCurveSet, path):
    """Write a WeightedCurveSet as jsonl; round-trips bitwise through load_weighted."""
    with open(path, "w", encoding="utf-8") as fh:
        for c, w in wset:
            fh.write(json.dumps({**curve_record(c), "weight": w}) + "\n")


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def gen_synthetic(clusters, per_cluster, m, d, noise, seed):
    """Planted-cluster curve set: ``clusters`` random-walk templates, each
    replicated ``per_cluster`` times with i.i.d. per-coordinate Gaussian noise.

    Deterministic for a fixed argument tuple.
    """
    if clusters < 1 or per_cluster < 1 or m < 1 or d < 1:
        raise ValidationError("clusters, per_cluster, m and d must all be >= 1")
    if noise < 0:
        raise ValidationError("noise must be >= 0")
    rng = new_rng(seed)
    block = np.empty((clusters * per_cluster, m, d))
    ids = []
    for c in range(clusters):
        start = rng.normal(0.0, 8.0, size=d)
        steps = rng.normal(0.0, 1.0, size=(m, d))
        steps[0] = 0.0
        template = start + np.cumsum(steps, axis=0)
        for r in range(per_cluster):
            block[len(ids)] = template + rng.normal(0.0, 1.0, size=(m, d)) * noise
            ids.append(f"c{c}_r{r}")
    return CurveSet(tuple(Curve.batch(ids, block)))
