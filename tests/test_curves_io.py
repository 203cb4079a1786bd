import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwmedian.curves import (
    Curve,
    CurveSet,
    ParseError,
    PipelineConfig,
    ValidationError,
    WeightedCurveSet,
    distinct_curves,
    gen_synthetic,
    load_curves,
    load_weighted,
    save_weighted,
)
from dtwmedian.dtw import dtw_value


def test_load_jsonl_single_curve(tmp_path):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[[0.0],[1.0]]}\n')
    cs = load_curves(f, "jsonl")
    assert len(cs) == 1
    assert cs[0].id == "a"
    assert cs[0].dimension == 1
    assert cs[0].complexity == 2


def test_load_csv_long(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("curve_id,seq,x0\na,0,0.0\na,1,1.0\nb,0,5.0\n")
    cs = load_curves(f, "csv-long")
    assert [c.id for c in cs] == ["a", "b"]
    assert [c.complexity for c in cs] == [2, 1]


def test_load_csv_long_unsorted_rows_sorted_by_seq(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("curve_id,seq,x0\na,1,1.0\nb,0,5.0\na,0,0.0\n")
    cs = load_curves(f, "csv-long")
    assert np.allclose(cs[0].points.ravel(), [0.0, 1.0])


def test_dimension_mismatch_names_curve(tmp_path):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[[0.0]]}\n{"id":"b","points":[[0.0,1.0]]}\n')
    with pytest.raises(ValidationError, match="b"):
        load_curves(f, "jsonl")


def test_parse_error_carries_line_number(tmp_path):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[[0.0]]}\nnot json\n')
    with pytest.raises(ParseError, match="line 2"):
        load_curves(f, "jsonl")


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"id":"b","points":[[0,1],[2]]}', "points must be equal-length lists of numbers"),
        ('{"id":"b","points":[["x",1]]}', "points must be equal-length lists of numbers"),
        ('{"id":"b","points":[{"x":1}]}', "points must be equal-length lists of numbers"),
        ('{"id":"b","points":[[0,1]],"weight":"heavy"}', "weight must be a number"),
        ('{"id":"b","points":[[0,1]],"weight":[1]}', "weight must be a number"),
    ],
    ids=["ragged", "string", "object", "string-weight", "list-weight"],
)
def test_malformed_jsonl_raises_a_parse_error_with_its_line(tmp_path, record, message):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[[0.0,1.0]]}\n' + record + "\n")
    for load in (load_curves, load_weighted):
        with pytest.raises(ParseError, match=f"line 2: curve 'b': {message}"):
            load(f)


def test_a_repeated_seq_in_csv_long_is_rejected(tmp_path):
    # it loaded as the 3-point curve [1, 2, 3]
    f = tmp_path / "a.csv"
    f.write_text("curve_id,seq,x0\na,0,1.0\nb,0,5.0\na,0,2.0\na,1,3.0\n")
    with pytest.raises(ParseError, match="line 4: curve 'a' repeats seq 0 of line 2"):
        load_curves(f, "csv-long")


def test_empty_curve_rejected(tmp_path):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[]}\n')
    with pytest.raises(ParseError):
        load_curves(f, "jsonl")


def test_nonfinite_coordinates_rejected():
    with pytest.raises(ValidationError):
        Curve("a", [[float("nan")]])
    with pytest.raises(ValidationError):
        Curve("a", [[float("inf")]])


def test_duplicate_ids_rejected(tmp_path):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[[0.0]]}\n{"id":"a","points":[[1.0]]}\n')
    with pytest.raises(ValidationError, match="duplicate"):
        load_curves(f, "jsonl")
    f = tmp_path / "a.csv"
    f.write_text("curve_id,seq,x0\na,0,0.0\nb,0,1.0\n")
    assert list(load_curves(f, "csv-long").ids) == ["a", "b"]
    # a set may repeat an id, as a selection repeats its curves
    a = Curve("a", [[0.0]])
    assert list(CurveSet((a, Curve("a", [[1.0]]))).ids) == ["a", "a"]


coords = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.lists(coords, min_size=2, max_size=2), min_size=1, max_size=5),
            st.floats(min_value=1e-6, max_value=1e6),
        ),
        min_size=0,
        max_size=6,
    )
)
def test_save_weighted_roundtrip_is_identity(tmp_path_factory, entries):
    wset = WeightedCurveSet(
        [Curve(f"c{i}", pts) for i, (pts, _) in enumerate(entries)], [w for _, w in entries]
    )
    path = tmp_path_factory.mktemp("rt") / "w.jsonl"
    save_weighted(wset, path)
    loaded = load_weighted(path)
    assert len(loaded) == len(wset)
    for (c1, w1), (c2, w2) in zip(wset, loaded):
        assert c1.id == c2.id
        assert w1 == w2
        assert np.array_equal(c1.points, c2.points)  # bitwise round-trip


def test_zero_weight_rejected_before_write():
    with pytest.raises(ValidationError):
        WeightedCurveSet([Curve("a", [[0.0]])], [0.0])


def test_empty_weighted_set_roundtrip(tmp_path):
    path = tmp_path / "e.jsonl"
    save_weighted(WeightedCurveSet([], []), path)
    assert path.read_text() == ""
    assert len(load_weighted(path)) == 0


def test_load_weighted_keeps_duplicate_ids(tmp_path):
    f = tmp_path / "w.jsonl"
    f.write_text(
        '{"id":"a","points":[[0.0]],"weight":2.0}\n'
        '{"id":"a","points":[[0.0]],"weight":3.0}\n'
    )
    wset = load_weighted(f)
    assert len(wset) == 2
    assert list(wset.weights) == [2.0, 3.0]


def test_gen_synthetic_counts_and_determinism():
    a = gen_synthetic(2, 10, 4, 2, 0.3, 7)
    b = gen_synthetic(2, 10, 4, 2, 0.3, 7)
    assert len(a) == 20
    for ca, cb in zip(a, b):
        assert ca.id == cb.id
        assert np.array_equal(ca.points, cb.points)


def test_gen_synthetic_makes_the_draws_of_one_curve_at_a_time():
    """The curves, built as one batch, have the ids and bits of the loop
    that built one Curve per draw."""
    for args in ((3, 4, 5, 2, 0.5, 11), (1000, 1, 32, 2, 0.5, 1), (40, 13, 32, 2, 0.0, 2)):
        clusters, per_cluster, m, d, noise, seed = args
        rng = np.random.default_rng(seed)
        expected = []
        for c in range(clusters):
            start = rng.normal(0.0, 8.0, size=d)
            steps = rng.normal(0.0, 1.0, size=(m, d))
            steps[0] = 0.0
            template = start + np.cumsum(steps, axis=0)
            for r in range(per_cluster):
                pts = template + rng.normal(0.0, 1.0, size=(m, d)) * noise
                expected.append(Curve(f"c{c}_r{r}", pts))
        got = gen_synthetic(*args)
        assert [c.id for c in got] == [c.id for c in expected]
        assert all(a.points.tobytes() == b.points.tobytes() for a, b in zip(got, expected))


def test_gen_synthetic_zero_noise_replicas_equal_template():
    cs = gen_synthetic(2, 5, 6, 2, 0.0, 3)
    for c in range(2):
        group = [cv for cv in cs if cv.id.startswith(f"c{c}_")]
        for cv in group[1:]:
            assert np.array_equal(cv.points, group[0].points)
            assert dtw_value(cv, group[0], 2.0) == 0.0


def test_gen_synthetic_validation():
    with pytest.raises(ValidationError):
        gen_synthetic(0, 1, 1, 1, 0.0, 0)
    with pytest.raises(ValidationError):
        gen_synthetic(1, 1, 1, 1, -0.1, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0, ell=1),
        dict(k=1, ell=0),
        dict(k=1, ell=1, p=0.5),
        dict(k=1, ell=1, p=float("inf")),
        dict(k=1, ell=1, p=float("nan")),
        dict(k=1, ell=1, eps=0.0),
        dict(k=1, ell=1, eps=1.5),
        dict(k=1, ell=1, delta=1.0),
        dict(k=1, ell=1, repetitions=0),
        dict(k=1, ell=1, size_override=0),
        dict(k=1, ell=1, sample_constant=0.0),
    ],
)
def test_pipeline_config_validation(kwargs):
    with pytest.raises(ValidationError):
        PipelineConfig(**kwargs)


def test_jsonl_weight_key_ignored_by_load_curves(tmp_path):
    f = tmp_path / "a.jsonl"
    f.write_text('{"id":"a","points":[[0.0]],"weight":2.5}\n')
    cs = load_curves(f, "jsonl")
    assert len(cs) == 1


def test_points_are_immutable():
    c = Curve("a", [[0.0], [1.0]])
    with pytest.raises(ValueError):
        c.points[0, 0] = 5.0


def test_negative_zero_is_stored_as_zero():
    # equal curves hash equally, and distinct_curves groups them
    a = Curve("a", [[0.0, 1.0]])
    b = Curve("a", [[-0.0, 1.0]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    distinct, inverse = distinct_curves([a, Curve("c", [[2.0, 1.0]]), Curve("d", [[-0.0, 1.0]])])
    assert [c.id for c in distinct] == ["a", "c"]
    assert inverse.tolist() == [0, 1, 0]


def test_points_are_stored_row_major():
    x = np.arange(12.0).reshape(3, 4)
    for points in (x.T, np.asfortranarray(x), x[:, ::2]):
        c = Curve("a", points)
        assert c.points.flags.c_contiguous
        assert np.array_equal(c.points, points)


def test_curve_copies_the_callers_array():
    x = np.zeros((3, 2))
    c = Curve("a", x)
    assert x.flags.writeable
    x[0, 0] = 5.0
    assert c.points[0, 0] == 0.0


def test_a_batch_builds_the_curves_of_one_curve_construction():
    """A set built from a block of curves of one shape, as gen_synthetic
    builds its set, holds the curves of one Curve construction each: its
    curves and its selections are read-only row-major views of one checked
    copy of the block."""
    rng = np.random.default_rng(5)
    block = rng.normal(0.0, 2.0, (5, 4, 3))
    block[1, 2, 0] = -0.0
    block[3] = block[0]
    ids = [f"b{t}" for t in range(5)]
    for given in (block, np.asfortranarray(block), block.tolist()):
        batch = CurveSet._from_block(ids, given)
        assert len(batch) == 5 and batch.points.shape == (20, 3)
        for t, c in enumerate(batch):
            one = Curve(ids[t], block[t])
            assert c == one and hash(c) == hash(one) and batch[t] == one
            assert c.points.tobytes() == one.points.tobytes()
            assert c.points.flags.c_contiguous and not c.points.flags.writeable
            assert np.shares_memory(c.points, batch.points)
            with pytest.raises(ValueError):
                c.points[0, 0] = 5.0
        assert not np.signbit(batch[1].points[2, 0])
        assert Curve("x", batch[0].points) == Curve("x", batch[3].points)
        chosen = batch.take([4, 0, 4])
        assert list(chosen.ids) == ["b4", "b0", "b4"] and chosen.points is batch.points
        assert [c.points.tobytes() for c in chosen] == [
            batch[t].points.tobytes() for t in (4, 0, 4)
        ]
        assert [c.id for c in batch[1:4:2]] == ["b1", "b3"] and batch[-1].id == "b4"
        again = pickle.loads(pickle.dumps(chosen))
        assert list(again.ids) == list(chosen.ids)
        assert again.points.tobytes() == batch.points.tobytes()
    batch = CurveSet._from_block(ids, block)
    block[0, 0, 0] = 99.0
    assert batch[0].points[0, 0] != 99.0
    assert len(CurveSet._from_block([], np.zeros((0, 4, 3)))) == 0
    made = gen_synthetic(3, 2, 4, 2, 0.5, 1)
    assert made.points.shape == (24, 2) and not made.points.flags.writeable
    assert all(np.shares_memory(c.points, made.points) for c in made)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_batch_rejects_non_finite_coordinates(bad):
    block = np.zeros((3, 4, 2))
    block[2, 3, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        CurveSet._from_block(["a", "b", "c"], block)


def test_a_batch_needs_one_id_per_curve_and_three_axes():
    with pytest.raises(ValidationError):
        CurveSet._from_block(["a"], np.zeros((2, 3, 1)))
    for shape in ((2, 3), (2, 0, 1), (2, 3, 0)):
        with pytest.raises(ValidationError):
            CurveSet._from_block(["a", "b"], np.zeros(shape))
