"""Core domain types, dataset ingestion/serialization and synthetic data.

All curve coordinates are float64. Types are immutable after construction
and safe to share across threads.

A ``CurveSet`` is the store every batched stage reads: the points of all
its curves in one read-only row-major buffer, with each curve's offset,
length and id in arrays, as the compiled kernels read them. Its curves are
selected by index (``take``): a selection gathers the offsets, lengths and
ids and shares the buffer, so a subset, or a multiset with repeats, costs
no copy of points. ``gen_synthetic`` builds a set straight from its block
of points, the loaders pack the parsed curves once, and a public function
given a sequence of ``Curve``s packs it once (``as_curve_set``). A set
builds a ``Curve`` only when one is asked for (``S[i]``, iteration), as a
view of its buffer. Ids are labels, not keys: a selection repeats the ids
of the curves it repeats, and two inputs may share an id and still be
different curves. Only ``load_curves`` rejects a file that repeats an id.
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


def _view(cid, points):
    """The curve cid over points that are already checked: a read-only
    row-major view of a set's buffer."""
    curve = object.__new__(Curve)
    object.__setattr__(curve, "id", cid)
    object.__setattr__(curve, "points", points)
    return curve


def _id_array(ids):
    """ids as a one-dimensional object array."""
    ids = list(ids)
    out = np.empty(len(ids), dtype=object)
    out[:] = ids
    return out


class CurveSet:
    """An ordered set of curves sharing one ambient dimension, packed.

    ``points`` is one read-only row-major (total, d) float64 buffer; curve i
    is the ``lengths[i]`` rows from row ``offsets[i]`` (intp arrays), under
    ``ids[i]`` (an object array). ``CurveSet(curves)`` packs a sequence of
    ``Curve``s; ``S[i]`` is curve i, its points a view of the buffer; and
    ``S.take(idx)``, or ``S[idx]`` for an index array or a slice, is a
    selection: the same buffer with the gathered offsets, lengths and ids.
    An id may repeat (see the module docstring).
    """

    __slots__ = ("points", "offsets", "lengths", "ids")

    def __new__(cls, curves=()):
        curves = tuple(curves)
        d = curves[0].dimension if curves else 0
        for c in curves:
            if c.dimension != d:
                raise ValidationError(
                    f"dimension mismatch: curve {c.id!r} has d={c.dimension}, expected d={d}"
                )
        lengths = np.fromiter((c.complexity for c in curves), dtype=np.intp, count=len(curves))
        points = np.concatenate([c.points for c in curves]) if curves else np.empty((0, 0))
        ids = _id_array(c.id for c in curves)
        return cls._of(points, np.cumsum(lengths) - lengths, lengths, ids)

    @classmethod
    def _of(cls, points, offsets, lengths, ids):
        """The set over a checked buffer, without packing; the arrays are
        made read-only."""
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, (points, offsets, lengths, ids)):
            value.setflags(write=False)
            object.__setattr__(out, name, value)
        return out

    @classmethod
    def _from_block(cls, ids, block):
        """One curve per row of block (n, m, d), curve t under ids[t], equal
        to ``Curve(ids[t], block[t])``: the checks of one curve run once over
        the whole block, and the set's buffer is the checked copy."""
        block = _as_point_array(block, context="curve batch", ndim=3)
        n, m, d = block.shape
        ids = _id_array(ids)
        if ids.size != n:
            raise ValidationError(f"curve batch: {ids.size} ids for {n} curves")
        lengths = np.full(n, m, dtype=np.intp)
        return cls._of(block.reshape(n * m, d), m * np.arange(n, dtype=np.intp), lengths, ids)

    def __setattr__(self, name, value):
        raise AttributeError(f"CurveSet is immutable: cannot set {name!r}")

    def __reduce__(self):  # pickle and copy rebuild the set without packing
        return CurveSet._of, (self.points, self.offsets, self.lengths, self.ids)

    @property
    def dimension(self):
        return self.points.shape[1]

    def take(self, idx):
        """The curves idx (an index array, repeats allowed), sharing this
        set's buffer."""
        idx = np.asarray(idx, dtype=np.intp)
        return CurveSet._of(self.points, self.offsets[idx], self.lengths[idx], self.ids[idx])

    def __len__(self):
        return self.lengths.size

    def __iter__(self):
        for cid, start, length in zip(self.ids, self.offsets.tolist(), self.lengths.tolist()):
            yield _view(cid, self.points[start : start + length])

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            start = self.offsets[i]
            return _view(self.ids[i], self.points[start : start + self.lengths[i]])
        return self.take(np.arange(len(self))[i])

    def __repr__(self):
        return f"CurveSet(n={len(self)}, d={self.dimension}, points={self.points.shape[0]})"


def as_curve_set(curves):
    """curves as a ``CurveSet``: a set is returned as it is, and a sequence
    of ``Curve``s is packed once. Every public function that takes curves
    calls it on them."""
    return curves if isinstance(curves, CurveSet) else CurveSet(curves)


def distinct_curves(curves):
    """The curves with distinct point sequences, as a selection of their
    first occurrences in input order, and for every input curve the index of
    its sequence among them (an intp array): curves[i] has the points of
    distinct[inverse[i]].

    Sequences are compared by their bytes, which fix their length, and ids
    are ignored; no ``Curve`` is built. An input without duplicates gives
    back all its curves, with inverse == arange(n).
    """
    curves = as_curve_set(curves)
    width = curves.points.itemsize * curves.dimension
    starts = curves.offsets * width
    raw = memoryview(curves.points.reshape(-1).view(np.uint8))
    first: dict[bytes, int] = {}
    inverse = [
        first.setdefault(bytes(raw[a:b]), len(first))
        for a, b in zip(starts.tolist(), (starts + curves.lengths * width).tolist())
    ]
    inverse = np.array(inverse, dtype=np.intp)
    return curves.take(np.unique(inverse, return_index=True)[1]), inverse


@dataclass(frozen=True, eq=False)
class WeightedCurveSet:
    """Curves with strictly positive finite weights: a weighted multiset, in
    which a curve and an id may repeat. ``curves`` is a ``CurveSet`` (a
    sequence of ``Curve``s is packed) and ``weights`` a read-only float64
    array; iterating yields (curve, weight) pairs."""

    curves: CurveSet
    weights: np.ndarray

    def __post_init__(self):
        curves = as_curve_set(self.curves)
        weights = np.array(self.weights, dtype=np.float64).reshape(-1)
        if weights.size != len(curves):
            raise ValidationError(f"{weights.size} weights for {len(curves)} curves")
        bad = np.flatnonzero(~((weights > 0.0) & (weights < np.inf)))
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"curve {curves.ids[i]!r}: weight must be positive, got {weights[i]}"
            )
        weights.setflags(write=False)
        object.__setattr__(self, "curves", curves)
        object.__setattr__(self, "weights", weights)

    def __len__(self):
        return len(self.curves)

    def __iter__(self):
        return zip(self.curves, self.weights.tolist())


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
    first appearance). Ids must be unique within the file.
    """
    if format == "jsonl":
        curves = CurveSet(c for c, _ in _read_jsonl(path))
    elif format == "csv-long":
        curves = _load_csv_long(path)
    else:
        raise ValidationError(f"unknown format {format!r}")
    seen = set()
    for cid in curves.ids:
        if cid in seen:
            raise ValidationError(f"duplicate curve id {cid!r}")
        seen.add(cid)
    return curves


def load_weighted(path):
    """Load a WeightedCurveSet from jsonl; missing weights default to 1."""
    entries = _read_jsonl(path)
    weights = [1.0 if w is None else w for _, w in entries]
    return WeightedCurveSet(CurveSet(c for c, _ in entries), weights)


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
    return CurveSet(curves)


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
    return CurveSet._from_block(ids, block)
