"""Model files: round trips, validation, CLI exit codes and golden outputs."""
import contextlib
import decimal
import gc
import io
import json
import os
import random
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from kanrelu import (
    Activation,
    ConversionMode,
    Kan,
    KanLayer,
    Mlp,
    MlpLayer,
    ParseError,
    PiecewiseLinear,
    PolySegmentSpline,
    SplineKan,
    ValidationError,
    assert_equiv,
    dumps_model,
    grid_fingerprint_2d,
    kan_to_mlp,
    load,
    loads_model,
    mlp_to_kan,
    save,
)
from kanrelu import serialize
from kanrelu.cli import main
from kanrelu.splines import MonomialReluNetwork, bspline_to_monomial_relu
from kanrelu.serialize import (
    _CanonicalEncoder,
    _encode_canonical,
    _fmt_number,
    dumps_canonical,
    model_to_dict,
    save_canonical,
)

from conftest import random_kan, random_pl, random_spline

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
ALL_FIXTURES = sorted(FIXTURES.glob("*.json"))


def run_cli(argv):
    buffer = io.StringIO()
    errors = io.StringIO()
    with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(errors):
        code = main([str(a) for a in argv])
    return code, buffer.getvalue(), errors.getvalue()


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", ALL_FIXTURES, ids=lambda p: p.stem)
    def test_fixture_round_trips_byte_stable(self, fixture, tmp_path):
        model = load(fixture)
        first = tmp_path / "first.json"
        save(model, first, sparse="sparse" in fixture.stem)
        second = tmp_path / "second.json"
        save(load(first), second, sparse="sparse" in fixture.stem)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_model_equals_saved_model(self, tmp_path):
        rng = random.Random(23)
        for _ in range(10):
            kan = random_kan(rng)
            path = tmp_path / "model.json"
            save(kan, path)
            assert load(path) == kan

    def test_converted_mlp_round_trips_with_tags(self, tmp_path):
        rng = random.Random(29)
        mlp = kan_to_mlp(random_kan(rng), ConversionMode.EXACT)
        path = tmp_path / "mlp.json"
        save(mlp, path)
        again = load(path)
        assert again == mlp
        assert again.layers[0].weight_tags == mlp.layers[0].weight_tags
        assert again.layers[0].source_params == mlp.layers[0].source_params

    def test_bytes_load_as_their_text(self):
        text = (FIXTURES / "three_segment_mlp.json").read_text()
        assert loads_model(text.encode()) == loads_model(text)

    def test_unknown_model_type_rejected(self):
        with pytest.raises(ValidationError, match="cannot serialize model of type object"):
            model_to_dict(object())

    def test_sparse_export_preserves_tags_and_values(self, tmp_path):
        rng = random.Random(31)
        mlp = kan_to_mlp(random_kan(rng), ConversionMode.PAPER)
        path = tmp_path / "sparse.json"
        save(mlp, path, sparse=True)
        again = load(path)
        assert again.layers[0].weight == mlp.layers[0].weight
        assert again.layers[0].weight_tags == mlp.layers[0].weight_tags
        doc = json.loads(path.read_text())
        triplets = doc["payload"]["layers"][0]["weight_sparse"]["triplets"]
        assert all(len(t) == 4 and t[3] in ("structural", "free") for t in triplets)

    def test_sparse_untagged_layer_keeps_only_nonzeros(self, tmp_path):
        # every entry used to be written, zeros included, tagged free
        mlp = Mlp((
            MlpLayer(((1.0, 0.0, -0.0), (0.0, 0.0, 0.0), (0.0, -2.5, 0.0)), (0.0, 1.0, -0.0), Activation.RELU),
            MlpLayer(((0.0, 3.0, 0.0),), (0.5,), Activation.IDENTITY),
        ))
        sparse, dense = tmp_path / "sparse.json", tmp_path / "dense.json"
        save(mlp, sparse, sparse=True)
        save(mlp, dense)
        layers = json.loads(sparse.read_text())["payload"]["layers"]
        assert [layer["weight_sparse"]["triplets"] for layer in layers] == [
            [[0, 0, 1, "free"], [2, 1, -2.5, "free"]],
            [[0, 1, 3, "free"]],
        ]
        again = load(sparse)
        assert again == mlp and again.layers[0].weight_tags is None
        assert repr(again) == repr(load(dense))

    def test_seventeen_digit_numbers_survive(self, tmp_path):
        from kanrelu import Kan, KanLayer, PiecewiseLinear

        value = 0.1 + 0.2  # 0.30000000000000004
        kan = Kan((KanLayer(((PiecewiseLinear((), (value,), 1e-17),),)),))
        path = tmp_path / "precise.json"
        save(kan, path)
        again = load(path)
        assert again.layers[0].activations[0][0].slopes[0] == value
        assert again.layers[0].activations[0][0].intercept == 1e-17

    def test_negative_zero_saves_byte_stable(self, tmp_path):
        # converting an activation with first slope 0 produces -0.0 weights
        from kanrelu import Kan, KanLayer, PiecewiseLinear

        relu_like = Kan((KanLayer(((PiecewiseLinear((0.0,), (0.0, 1.0), 0.0),),)),))
        mlp = kan_to_mlp(relu_like, ConversionMode.EXACT)
        assert any(v == 0.0 and str(v) == "-0.0" for row in mlp.layers[-1].weight for v in row)
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save(mlp, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()


def _encode_reference(obj, indent, out):
    """Reference encoder: one recursive call per value, nothing cached."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_number(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(key))}: ")
            _encode_reference(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _encode_reference(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise ValidationError(f"cannot serialize value of type {type(obj).__name__}")


def _dumps_reference(obj):
    out = []
    _encode_reference(obj, 0, out)
    out.append("\n")
    return "".join(out)


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
    st.sampled_from(["structural", "free"]),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=24,
)


@st.composite
def _documents(draw):
    """A document holding one shared sub-object at several depths, repeats included."""
    shared = draw(st.one_of(
        st.lists(_VALUES, min_size=1, max_size=3),
        st.dictionaries(st.text(max_size=4), _VALUES, min_size=1, max_size=3),
    ))
    return {
        "top": shared,
        "nested": [shared, {"deeper": [shared, shared]}, draw(_VALUES)],
        "again": [shared, draw(_VALUES), shared],
        "other": draw(_VALUES),
        "empty": [[], {}, ()],
    }


# scalars of every type a record column may hold, with ints beyond 2**53
# beside equal floats, 1 beside 1.0 and -0.0 beside 0.0 and 0
_COLUMN_SCALARS = {
    "int": st.integers(-(10**20), 10**20),
    "float": st.floats(allow_nan=False, allow_infinity=False),
    "str": st.sampled_from(["structural", "free", "", 'q"%s\\']),
    "bool": st.booleans(),
    "none": st.none(),
    "repeated_float": st.sampled_from([0.5, -0.0, 0.0, 1.0, 2.0**53, 2.0**60]),
    "mixed": st.sampled_from([1, 1.0, 2**53 + 1, 2.0**53, 2**60, 2.0**60, -0.0, 0, 0.0, True, None, "1"]),
}


@st.composite
def _records(draw, max_rows=12):
    """A list of rows; every row of one width and each column of one kind,
    or (less often) with ragged or empty rows."""
    shape = draw(st.sampled_from(["record", "record", "record", "ragged", "empty"]))
    if shape == "empty":
        return [[] for _ in range(draw(st.integers(1, 3)))]
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_SCALARS)), min_size=1, max_size=5))
    rows = draw(st.lists(st.tuples(*(_COLUMN_SCALARS[k] for k in kinds)).map(list), min_size=1, max_size=max_rows))
    if shape == "ragged":
        rows.append(draw(st.lists(_SCALARS, max_size=len(kinds) + 2).filter(lambda r: len(r) != len(kinds))))
        rows = draw(st.permutations(rows))
    return rows


@st.composite
def _record_documents(draw):
    """Record lists at the top and inside a dict and a tuple that each recur
    at two depths, so their texts are captured around the record lists."""
    records = draw(_records())
    holder = {"triplets": records, "n": draw(_SCALARS)}
    row = (draw(_records()), draw(_SCALARS))
    return {
        "records": records,
        "holders": [holder, row, holder, row, holder],
        "deeper": {"again": [holder, row, [holder, row, holder]], "row": row},
        "tail": [row, holder],
    }


@st.composite
def _partly_kept_lists(draw):
    """Lists of dicts and tuples at one depth, where the items met twice
    before a list have kept text and the others do not."""
    pool = draw(st.lists(st.one_of(
        st.dictionaries(st.text(max_size=3), _SCALARS, min_size=1, max_size=3),
        st.lists(_SCALARS, min_size=1, max_size=3).map(tuple),
    ), min_size=1, max_size=6))
    pick = st.sampled_from(range(len(pool)))
    return [
        [pool[i] for i in draw(st.lists(pick, min_size=1, max_size=12))] + [draw(_VALUES)]
        for _ in range(draw(st.integers(2, 5)))
    ]


class TestCanonicalEncoder:
    @given(_documents())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_encoder(self, doc):
        assert dumps_canonical(doc) == _dumps_reference(doc)

    @given(_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_plain_values(self, value):
        assert dumps_canonical(value) == _dumps_reference(value)

    @given(_record_documents(), st.sampled_from([2, 3, _CanonicalEncoder.FLUSH_PIECES]))
    @settings(max_examples=200, deadline=None)
    def test_record_lists_match_reference(self, doc, flush_pieces):
        chunks = []
        with mock.patch.object(_CanonicalEncoder, "FLUSH_PIECES", flush_pieces):
            _encode_canonical(doc, chunks.append)
        assert "".join(chunks) == _dumps_reference(doc)

    def test_record_list_longer_than_a_chunk(self):
        # three chunks of rows, with repeated weights, written between flushes
        rows = [[r, r % 3, [0.25, -0.0, 1.0 / 3.0][r % 3], ["structural", "free"][r % 2]] for r in range(11)]
        chunks = []
        with mock.patch.object(_CanonicalEncoder, "FLUSH_PIECES", 4):
            _encode_canonical({"triplets": rows}, chunks.append)
        assert len(chunks) >= 3
        assert "".join(chunks) == _dumps_reference({"triplets": rows})

    @pytest.mark.parametrize("rows", [
        [[2**53 + 1, 2.0**53], [2.0**53, 2**53 + 1]],
        [[1, 1.0], [1.0, 1], [True, -0.0]],
        [[-0.0], [0.0], [-0.0], [0]],
        [[2.0**60], [2**60], [2.0**60]],
    ], ids=["beyond_2_53", "one", "signed_zero", "2_60"])
    def test_equal_ints_and_floats_keep_their_texts(self, rows):
        assert dumps_canonical(rows) == _dumps_reference(rows)

    @given(_partly_kept_lists(), st.sampled_from([2, _CanonicalEncoder.FLUSH_PIECES]))
    @settings(max_examples=150, deadline=None)
    def test_partly_kept_lists_match_reference(self, doc, flush_pieces):
        chunks = []
        with mock.patch.object(_CanonicalEncoder, "FLUSH_PIECES", flush_pieces):
            _encode_canonical(doc, chunks.append)
        assert "".join(chunks) == _dumps_reference(doc)

    @pytest.mark.parametrize("bad", [[1.0, float("inf")], {"a": [float("nan")]}, [2, -float("inf")]])
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_canonical(bad)

    def test_encoding_leaves_no_cyclic_garbage(self):
        # a reference cycle would keep every output piece alive until a collection;
        # the document takes each list path: record rows (repeated weights too),
        # items mostly without and mostly with kept text, and plain scalars
        act = {"a": "free"}
        doc = {
            "rows": [[float(i), -0.0, 1, ("free", None, True)[i % 3]] for i in range(50)],
            "shared": [[act] * 3, [act] * 6 + [{"b": 1}], [2.5, "x"]],
        }
        gc.collect()
        gc.disable()
        try:
            dumps_canonical(doc)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_converted_kan_shares_activation_dicts(self):
        rng = random.Random(37)
        kan = mlp_to_kan(kan_to_mlp(random_kan(rng, input_dim=3), ConversionMode.EXACT))
        doc = model_to_dict(kan)
        acts = [a for layer in doc["payload"]["layers"] for row in layer["activations"] for a in row]
        distinct = {id(a) for layer in kan.layers for row in layer.activations for a in row}
        assert len({id(a) for a in acts}) == len(distinct) < len(acts)
        assert dumps_canonical(doc) == _dumps_reference(doc)


@st.composite
def _models(draw):
    """A PL KAN, a converted MLP (dense or sparse), a spline KAN or a monomial
    network, and the sparse flag."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["kan", "exact", "paper", "spline", "monomial"]))
    if kind == "kan":
        return random_kan(rng), False
    if kind == "monomial":
        return bspline_to_monomial_relu(random_spline(rng)), False
    if kind == "spline":
        widths = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
        return SplineKan(tuple(
            KanLayer(tuple(tuple(random_spline(rng) for _ in range(n_in)) for _ in range(n_out)))
            for n_in, n_out in zip(widths, widths[1:])
        )), False
    return kan_to_mlp(random_kan(rng), kind), draw(st.booleans())


def _kan_of_widths(rng, widths, segments):
    return Kan(tuple(
        KanLayer(tuple(tuple(random_pl(rng, segments=segments) for _ in range(n_in)) for _ in range(n_out)))
        for n_in, n_out in zip(widths, widths[1:])
    ))


def _dense_mlp(rng, widths):
    """An MLP of random weights, so no two rows repeat."""
    return Mlp(tuple(
        MlpLayer(
            tuple(tuple(rng.uniform(-2.0, 2.0) for _ in range(n_in)) for _ in range(n_out)),
            tuple(rng.uniform(-2.0, 2.0) for _ in range(n_out)),
            Activation.IDENTITY if i == len(widths) - 2 else Activation.RELU,
        )
        for i, (n_in, n_out) in enumerate(zip(widths, widths[1:]))
    ))


class TestStreamingSave:
    @given(_models(), st.sampled_from([3, 64, _CanonicalEncoder.FLUSH_PIECES]))
    @settings(max_examples=120, deadline=None)
    def test_saved_bytes_equal_dumps_model(self, case, flush_pieces):
        model, sparse = case
        text = dumps_model(model, sparse=sparse)
        assert text == _dumps_reference(model_to_dict(model, sparse=sparse))
        with tempfile.TemporaryDirectory() as d, \
                mock.patch.object(_CanonicalEncoder, "FLUSH_PIECES", flush_pieces):
            path = Path(d) / "model.json"
            save(model, path, sparse=sparse)
            assert path.read_bytes() == text.encode("utf-8")

    @given(_documents())
    @settings(max_examples=100, deadline=None)
    def test_small_flushes_match_reference(self, doc):
        chunks = []
        with mock.patch.object(_CanonicalEncoder, "FLUSH_PIECES", 2):
            _encode_canonical(doc, chunks.append)
        assert "".join(chunks) == _dumps_reference(doc)

    def test_repeats_on_both_sides_of_flushes(self, tmp_path):
        row, act = (0.5, -0.0, 1.0), {"slopes": [1.0, 2.0], "breakpoints": []}
        pair = [row, act]
        doc = {"items": [row, [2.0], act, row, pair, act, pair, row, act] * 30, "tail": [pair, act, row]}
        chunks = []
        with mock.patch.object(_CanonicalEncoder, "FLUSH_PIECES", 8):
            _encode_canonical(doc, chunks.append)
            save_canonical(doc, tmp_path / "doc.json")
        assert len(chunks) > 20
        assert "".join(chunks) == _dumps_reference(doc) == dumps_canonical(doc)
        assert (tmp_path / "doc.json").read_text(encoding="utf-8") == _dumps_reference(doc)

    def test_failed_save_leaves_existing_file(self, tmp_path):
        rng = random.Random(41)
        path = tmp_path / "model.json"
        save(random_kan(rng), path)
        before = path.read_bytes()
        doc = model_to_dict(kan_to_mlp(random_kan(rng, input_dim=3), ConversionMode.EXACT))
        # the last value is written after earlier chunks reached the file
        doc["metadata"] = {"note": object()}
        with mock.patch.object(_CanonicalEncoder, "FLUSH_PIECES", 4), \
                pytest.raises(ValidationError, match="cannot serialize"):
            save_canonical(doc, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_written_in_place(self, tmp_path):
        # a target that is not a regular file must not be replaced by one
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        try:
            code, _, err = run_cli(["convert", FIXTURES / "three_segment_kan.json", pipe, "--to", "mlp"])
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert (code, err) == (0, "")
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert received == [(FIXTURES / "three_segment_mlp.json").read_bytes()]
        assert list(tmp_path.iterdir()) == [pipe]

    def test_save_peak_memory_is_a_fraction_of_the_file(self, tmp_path):
        kan = mlp_to_kan(kan_to_mlp(_kan_of_widths(random.Random(5), (6, 6, 6, 6), 8), ConversionMode.EXACT))
        path = tmp_path / "kan.json"
        tracemalloc.start()
        try:
            save(kan, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4


class TestSharedRows:
    def test_signed_zero_rows_load_apart(self):
        rows = [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1, -0.0]]
        doc = {"kind": "mlp", "version": "1", "metadata": {}, "payload": {"layers": [
            {"weight": rows, "bias": [0.5, 0.0, -0.0, 1.0, 2.0, 3.0], "activation": "relu"},
            {"weight": [[1.0, -1.0, 0.0, -0.0, 2.0, 1.0]], "bias": [0.0], "activation": "identity"},
        ]}}
        loaded = loads_model(json.dumps(doc))  # json.dumps writes -0.0 as "-0.0"
        by_row = Mlp((
            MlpLayer(tuple(tuple(float(v) for v in row) for row in rows),
                     (0.5, 0.0, -0.0, 1.0, 2.0, 3.0), Activation.RELU),
            MlpLayer(((1.0, -1.0, 0.0, -0.0, 2.0, 1.0),), (0.0,), Activation.IDENTITY),
        ))
        assert repr(loaded) == repr(by_row)
        weight = loaded.layers[0].weight
        assert weight[0] is weight[2] and weight[1] is weight[3] and weight[0] is not weight[1]
        assert weight[4] is weight[5]  # the integer 1 reads as 1.0
        assert repr(mlp_to_kan(loaded)) == repr(mlp_to_kan(by_row))

    def test_dense_row_met_again_is_not_converted_again(self):
        # each row used to become a float tuple before its bytes were looked up
        rows = [[0.5, -1.0], [2, 0.0], [0.5, -1.0], [2.0, 0.0], [0.5, -1]] * 20
        doc = {"kind": "mlp", "version": "1", "metadata": {}, "payload": {"layers": [
            {"weight": rows, "bias": [0.0] * len(rows), "activation": "identity"},
        ]}}
        with mock.patch("kanrelu.serialize._floats", side_effect=serialize._floats) as floats:
            weight = loads_model(json.dumps(doc)).layers[0].weight
        assert all(".weight[" not in call.args[1] for call in floats.call_args_list)
        assert weight[:2] == ((0.5, -1.0), (2.0, 0.0))
        assert len({id(row) for row in weight}) == 2
        assert all(type(v) is float for row in weight for v in row)

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_loaded_exact_mlp_shares_rows(self, sparse, tmp_path):
        kan = _kan_of_widths(random.Random(43), (8, 8, 8, 8), 8)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        path = tmp_path / "mlp.json"
        save(mlp, path, sparse=sparse)
        loaded = load(path)
        assert loaded == mlp
        for model in (mlp, loaded):
            for layer, source in zip(model.layers[:-1], kan.layers):
                assert len({id(row) for row in layer.weight}) <= 2 * source.n_in

    def test_sparse_layer_is_built_one_row_at_a_time(self, tmp_path):
        # the weights and tags used to be filled into two dense rows x cols
        # lists of references before equal rows were shared
        act = PiecewiseLinear(tuple((i + 1) / 10 for i in range(10)), tuple((-1.0) ** i for i in range(11)), 0.25)
        mlp = kan_to_mlp(Kan((KanLayer(((act,) * 300,)),)), ConversionMode.EXACT)
        rows, cols = mlp.widths[1], mlp.widths[0]
        assert (rows, cols) == (3600, 300)
        path = tmp_path / "sparse.json"
        save(mlp, path, sparse=True)
        gc.collect()
        tracemalloc.start()
        try:
            loaded = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == mlp
        assert peak < rows * cols * 8  # less than one dense list of references

    def test_converted_16_3_8_shares_rows(self):
        kan = _kan_of_widths(random.Random(47), (16, 16, 16, 16), 8)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        assert mlp.widths == (16, 1824, 1824, 1824, 16)
        for layer, source in zip(mlp.layers[:-1], kan.layers):
            assert len({id(row) for row in layer.weight}) <= 2 * source.n_in


# JSON texts of scalars, with the spellings json.loads accepts beyond the
# canonical writer's: NaN, infinities, -0, exponents, escapes, and strings
# that hold brackets, braces or quotes
_SCALAR_TEXTS = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "-0", "0", "-0.0", "0.0", "1E-2", "1e400", "true",
                     "false", "null", '"]"', '"["', '"{"', '"a]b"', '"\\u005d"', '"\\"]"', '"\\\\"', '"free"']),
    st.integers(-(10**20), 10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.text(alphabet='ab[]{},:\\"\n é', max_size=5).map(json.dumps),
)
_GAPS = ["", " ", "\n", "\n    ", "\t", "\r\n  "]


@st.composite
def _json_texts(draw):
    """A model-shaped JSON text: weight and tag matrices with repeated rows,
    some respaced, rows that hold a list or an object, repeated keys, and
    whitespace either one fixed gap everywhere or drawn gap by gap."""
    fixed = draw(st.sampled_from([None, "", " ", "\n  "]))

    def gap():
        return fixed if fixed is not None else draw(st.sampled_from(_GAPS))

    def array(items):
        if not items:
            return "[" + gap() + "]"
        return "[" + gap() + (gap() + "," + gap()).join(items) + gap() + "]"

    def obj(pairs):
        pairs = draw(st.permutations(pairs))
        body = (gap() + "," + gap()).join(f"{json.dumps(k)}{gap()}:{gap()}{v}" for k, v in pairs)
        return "{" + gap() + body + gap() + "}"

    def scalars(max_size=4):
        return array(draw(st.lists(_SCALAR_TEXTS, max_size=max_size)))

    def row():
        shape = draw(st.sampled_from(["scalars", "scalars", "scalars", "list", "object"]))
        if shape == "list":
            return array([scalars(2), draw(_SCALAR_TEXTS)])
        if shape == "object":
            return array([obj([("k", draw(_SCALAR_TEXTS))])])
        return scalars()

    def matrix():
        if draw(st.integers(0, 9)) == 0:
            return draw(_SCALAR_TEXTS)  # a matrix that is no list
        distinct = [row() for _ in range(draw(st.integers(1, 3)))]
        picks = draw(st.lists(st.tuples(st.integers(0, len(distinct) - 1), st.booleans()), max_size=8))
        return array([distinct[i].replace("[", "[ ", 1) if respaced else distinct[i] for i, respaced in picks])

    def layer():
        pairs = [("weight", matrix()), ("weight_tags", matrix()), ("bias", scalars()), ("activation", '"relu"')]
        if draw(st.booleans()):
            pairs.append(("weight", matrix()))  # a repeated key keeps its last value
        if draw(st.booleans()):
            pairs.append(("weight_sparse", obj([("shape", "[2, 2]"), ("triplets", matrix())])))
        return obj(pairs)

    payload = obj([
        ("layers", array([layer() for _ in range(draw(st.integers(0, 2)))])),
        ("blocks", array([layer() for _ in range(draw(st.integers(0, 1)))])),
        ("readout", layer()),
    ])
    document = obj([("kind", '"mlp"'), ("version", '"1"'), ("payload", payload), ("metadata", "{}")])
    top = draw(st.sampled_from(["document", "document", "document", "matrix"]))
    return gap() + (document if top == "document" else matrix()) + gap()


def _object_ids(value):
    """The id of each dict met walking ``value``, a shared list walked each time."""
    if isinstance(value, dict):
        yield id(value)
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _object_ids(item)


def _outcome(text, reader=True):
    """The repr of the model ``loads_model`` reads from ``text``, or its
    error's type and message; with ``reader`` false, json.loads decodes."""
    with contextlib.ExitStack() as stack:
        if not reader:
            stack.enter_context(mock.patch.object(serialize, "_read_document", side_effect=ValueError))
        try:
            return repr(loads_model(text))
        except (ParseError, ValidationError) as e:
            return type(e).__name__, str(e)


class TestRowReader:
    @given(_json_texts())
    @settings(max_examples=300, deadline=None)
    def test_reads_what_json_loads_reads(self, text):
        doc = serialize._read_document(text)
        assert repr(doc) == repr(json.loads(text))
        # equal rows may share one list, but no object is shared
        objects = list(_object_ids(doc))
        assert len(objects) == len(set(objects))

    @given(_json_texts(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_text_gives_what_json_loads_gives(self, text, data):
        at = data.draw(st.integers(0, len(text)))
        damage = data.draw(st.sampled_from(["cut", "drop", "insert", "replace"]))
        char = data.draw(st.sampled_from(list('[]{},:;"0 -eE\\')))
        if damage == "cut":
            text = text[:at]
        elif damage == "drop":
            text = text[:at] + text[at + 1:]
        elif damage == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + char + text[at + 1:]
        assert _outcome(text) == _outcome(text, reader=False)

    def test_truncated_file_errors_keep_their_messages(self):
        text = (FIXTURES / "three_segment_mlp.json").read_text()
        for end in range(len(text)):
            outcome = _outcome(text[:end])
            assert outcome == _outcome(text[:end], reader=False)
            if end < len(text.rstrip()):
                assert outcome[1].startswith("invalid JSON at line ")

    @pytest.mark.parametrize("edit, message", [
        (lambda t: t + "x", "Extra data"),
        (lambda t: t + "{}", "Extra data"),
        (lambda t: t.replace(":", ";", 1), "Expecting ':' delimiter"),
        (lambda t: t.replace("],", "];", 1), "Expecting ',' delimiter"),
        (lambda t: "\ufeff" + t, "Unexpected UTF-8 BOM"),
        (lambda t: re.sub(r"\[\s*1\b", lambda m: m.group() + "0" * 5000, t, count=1), "invalid JSON: "),
        (lambda t: t.replace('"weight": [', '"weight": [' + "[" * 100_000 + "]" * 100_000 + ",", 1),
         "invalid JSON: nesting too deep"),
    ], ids=["trailing_text", "trailing_object", "colon", "comma", "bom", "digit_limit", "nested_row"])
    def test_malformed_file_keeps_its_message(self, edit, message):
        text = edit((FIXTURES / "three_segment_mlp.json").read_text())
        assert text != (FIXTURES / "three_segment_mlp.json").read_text()
        outcome = _outcome(text)
        assert outcome == _outcome(text, reader=False)
        if message != "invalid JSON: " or sys.version_info >= (3, 11):  # 3.10 has no digit limit
            assert outcome[0] == "ParseError" and message in outcome[1]

    @pytest.mark.parametrize("chunk", [16, 64, serialize._CHUNK])
    @pytest.mark.parametrize("edit, message", [
        (lambda t: re.sub(r'("structural"\s*\])(\s*\])', r"\1,\2", t, count=1), "Expecting value"),
        (lambda t: t.replace('"structural"\n            ],', '"structural"\n            ];', 1), "Expecting ','"),
    ], ids=["trailing_comma", "semicolon"])
    def test_malformed_triplets_keep_their_message(self, tmp_path, edit, message, chunk):
        text = edit((FIXTURES / "three_segment_mlp_sparse.json").read_text())
        assert text != (FIXTURES / "three_segment_mlp_sparse.json").read_text()
        path = tmp_path / "sparse.json"
        path.write_text(text)
        with mock.patch.object(serialize, "_CHUNK", chunk):
            with pytest.raises(ParseError, match=message) as raised:
                load(path)
        assert ("ParseError", str(raised.value)) == _outcome(text) == _outcome(text, reader=False)

    def test_each_distinct_row_is_one_tuple(self):
        kan = _kan_of_widths(random.Random(11), (4, 4, 4, 4), 6)
        text = dumps_model(kan_to_mlp(kan, ConversionMode.EXACT))
        with mock.patch.object(serialize, "_scan", side_effect=serialize._scan) as scan, \
                mock.patch.object(serialize.struct, "pack", side_effect=serialize.struct.pack) as pack:
            loaded = loads_model(text)
        distinct = 0
        for layer in loaded.layers:
            for matrix in (layer.weight, layer.weight_tags):
                by_text = {}
                for row in matrix:
                    assert by_text.setdefault(repr(row), row) is row
                distinct += len(by_text)
        assert distinct < sum(layer.n_out for layer in loaded.layers)
        # each run of one weight row is keyed by its bytes once
        runs = sum(1 + sum(a is not b for a, b in zip(layer.weight, layer.weight[1:])) for layer in loaded.layers)
        assert pack.call_count == runs < sum(layer.n_out for layer in loaded.layers)
        # one scan per distinct row, and one per key and per other value
        assert scan.call_count <= distinct + 12 * len(loaded.layers) + 8

    def test_well_formed_files_are_not_decoded_again(self):
        texts = [dumps_model(kan_to_mlp(_kan_of_widths(random.Random(5), (3, 3, 3), 4), ConversionMode.EXACT))]
        texts += [dumps_model(_dense_mlp(random.Random(6), widths)) for widths in ((2, 300, 1), (60, 200, 2))]
        texts += [(FIXTURES / name).read_text() for name in ("three_segment_mlp.json", "square_flip_monomial.json")]
        expected = [_outcome(text, reader=False) for text in texts]
        with mock.patch.object(serialize, "_loads_json", side_effect=AssertionError("decoded again")):
            assert [repr(loads_model(text)) for text in texts] == expected

    @pytest.mark.parametrize("chunk", [None, 64], ids=["text", "file_chunk_64"])
    @pytest.mark.parametrize("widths", [(2, 300, 1), (60, 200, 2)], ids=["narrow_rows", "wide_rows"])
    def test_rows_that_do_not_repeat_stop_the_lookup(self, widths, chunk):
        text = dumps_model(_dense_mlp(random.Random(8), widths))
        source = text if chunk is None else io.StringIO(text)
        window = chunk or serialize._CHUNK
        with mock.patch.object(serialize, "_CHUNK", window), \
                mock.patch.object(serialize, "_scan", side_effect=serialize._scan) as scan, \
                mock.patch.object(serialize, "hash", create=True, side_effect=hash) as key_hash:
            doc = serialize._read_document(source)
        assert repr(doc) == repr(json.loads(text))
        # the first 2 * n_in + 1 rows are looked up, and the next layer's rows
        n_in, n_out = widths[0], widths[1]
        assert key_hash.call_count == 2 * n_in + 1 + widths[2]
        # the rest go in batches: a batch, a value cut by the window's end and
        # its scan again per window, beside the rows looked up and the biases
        row_scans = sum(1 for call in scan.call_args_list if call.args[0][call.args[1]] == "[")
        windows = len(text) // window + 1
        assert row_scans <= key_hash.call_count + len(widths) - 1 + (windows if chunk is None else 3 * windows)
        if chunk is None and n_in == 2:
            assert row_scans < n_out / 10

    def test_rows_that_stop_repeating_are_read_in_batches(self):
        # the texts the properties draw reach the batches of a matrix's rows,
        # rows apart by "]," and by spaces before the comma
        read_batch, runs = serialize._Reader.read_batch, []

        def record(reader, i, items):
            end = read_batch(reader, i, items)
            runs.append(reader.text[i:end])
            return end

        def reaches(pattern):
            def batched(text):
                runs.clear()
                with mock.patch.object(serialize._Reader, "read_batch", record), \
                        mock.patch.dict(serialize._LAYER, {"weight_sparse": {}}):  # no triplet batches
                    serialize._read_document(text)
                return any(re.search(pattern, run) for run in runs)
            return batched

        draws = settings(max_examples=500, database=None, phases=[Phase.generate])
        for pattern in (r"\],", r"\][ \t\r\n]+,"):
            find(_json_texts(), reaches(pattern), settings=draws)

    def test_rows_whose_hashes_collide_stay_apart(self, tmp_path):
        text = dumps_model(kan_to_mlp(_kan_of_widths(random.Random(4), (3, 3, 3), 4), ConversionMode.EXACT))
        expected = _outcome(text, reader=False)
        path = tmp_path / "mlp.json"
        path.write_text(text)
        with mock.patch.object(serialize, "hash", create=True, return_value=0):
            assert _outcome(text) == expected
            assert repr(load(path)) == expected

    def test_rows_that_do_not_repeat_cost_no_memory(self):
        text = dumps_model(_dense_mlp(random.Random(9), (120, 120, 120, 1)))
        peaks = []
        for reader in (False, True):
            gc.collect()
            tracemalloc.start()
            try:
                _outcome(text, reader)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.05 * peaks[0]

    def test_load_peak_memory_is_a_fraction_of_the_text(self):
        kan = _kan_of_widths(random.Random(7), (4, 4, 4, 4), 6)
        text = dumps_model(kan_to_mlp(kan, ConversionMode.EXACT))
        tracemalloc.start()
        try:
            loads_model(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(text) / 2

    @given(_json_texts(), st.integers(1, 9))
    @settings(max_examples=300, deadline=None)
    def test_file_read_in_chunks_reads_what_json_loads_reads(self, text, chunk):
        with mock.patch.object(serialize, "_CHUNK", chunk):
            doc = serialize._read_document(io.StringIO(text))
        assert repr(doc) == repr(json.loads(text))
        objects = list(_object_ids(doc))
        assert len(objects) == len(set(objects))

    @given(_json_texts(), st.integers(1, 9), st.data())
    @settings(max_examples=300, deadline=None)
    def test_damaged_file_read_in_chunks_fails_as_the_text_does(self, text, chunk, data):
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(list('[]{},:"0 e\\'))) + text[at + 1:]
        outcomes = []
        for source in (text, io.StringIO(text)):
            try:
                with mock.patch.object(serialize, "_CHUNK", chunk):
                    outcomes.append(repr(serialize._read_document(source)))
            except serialize._READ_ERRORS:
                outcomes.append("error")
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("chunk", [1, 7, 64, serialize._CHUNK])
    def test_load_of_truncated_file_keeps_its_message(self, tmp_path, chunk):
        text = (FIXTURES / "three_segment_mlp.json").read_text()
        path = tmp_path / "cut.json"
        with mock.patch.object(serialize, "_CHUNK", chunk), \
                mock.patch.object(serialize, "_read_document", side_effect=serialize._read_document) as read:
            for end in range(0, len(text) + 1, 3 if chunk < 64 else 1):
                path.write_text(text[:end])
                read.reset_mock()
                try:
                    outcome = repr(load(path))
                except (ParseError, ValidationError) as e:
                    outcome = type(e).__name__, str(e)
                # the reader runs once: a file it cannot read goes whole to json.loads
                assert read.call_count == 1
                assert outcome == _outcome(text[:end])

    def test_decoding_leaves_no_cyclic_garbage(self, tmp_path):
        # a reference cycle would keep the row table and every row alive until
        # a collection; the document takes each list path: the layout lists,
        # repeated weight and tag rows, weight rows that stop repeating, and
        # sparse triplets
        rng = random.Random(13)
        mlp = kan_to_mlp(_kan_of_widths(rng, (2, 3, 2), 4), ConversionMode.EXACT)
        doc = model_to_dict(mlp)
        layers = doc["payload"]["layers"]
        layers[0]["weight"] = [[rng.uniform(-2.0, 2.0) for _ in row] for row in layers[0]["weight"]]
        layers[-1] = model_to_dict(mlp, sparse=True)["payload"]["layers"][-1]
        text = dumps_canonical(doc)
        path = tmp_path / "mlp.json"
        path.write_text(text)
        with mock.patch.object(serialize, "_CHUNK", 64):
            gc.collect()
            gc.disable()
            try:
                loads_model(text)
                assert gc.collect() == 0
                load(path)
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_load_reads_the_file_once_in_chunks(self, tmp_path):
        kan = _kan_of_widths(random.Random(7), (4, 4, 4, 4), 6)
        text = dumps_model(kan_to_mlp(kan, ConversionMode.EXACT))
        path = tmp_path / "mlp.json"
        path.write_text(text)
        with mock.patch.object(serialize, "_scan", side_effect=serialize._scan) as scan:
            expected = repr(loads_model(text))
        text_scans = scan.call_count
        with mock.patch.object(serialize, "_loads_json", side_effect=AssertionError("decoded again")), \
                mock.patch.object(Path, "read_text", side_effect=AssertionError("read whole")):
            tracemalloc.start()
            try:
                loaded = load(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            with mock.patch.object(serialize, "_scan", side_effect=serialize._scan) as scan:
                load(path)
        assert repr(loaded) == expected
        # rows read in an earlier window are not parsed again; a value cut by a window's end is
        assert scan.call_count <= text_scans + len(text) // serialize._CHUNK + 1
        # the text is never held whole: the peak is the loaded model and a window or two
        assert peak < len(text) / 3

    @pytest.mark.parametrize("chunk", [64, serialize._CHUNK])
    @pytest.mark.parametrize("widths", [(2, 300, 1), (60, 200, 2)], ids=["narrow_rows", "wide_rows"])
    def test_load_of_rows_that_do_not_repeat(self, tmp_path, widths, chunk):
        text = dumps_model(_dense_mlp(random.Random(8), widths))
        path = tmp_path / "mlp.json"
        path.write_text(text)
        with mock.patch.object(serialize, "_CHUNK", chunk), \
                mock.patch.object(serialize, "_loads_json", side_effect=AssertionError("decoded again")):
            assert repr(load(path)) == repr(loads_model(text))

    def test_load_reads_long_triplet_lists_in_batches(self, tmp_path):
        mlp = kan_to_mlp(_kan_of_widths(random.Random(3), (4, 4, 4, 4), 6), ConversionMode.EXACT)
        path = tmp_path / "sparse.json"
        save(mlp, path, sparse=True)
        text = path.read_text()
        triplets = sum(len(layer["weight_sparse"]["triplets"]) for layer in json.loads(text)["payload"]["layers"])
        with mock.patch.object(serialize, "_CHUNK", 4096), \
                mock.patch.object(serialize, "_loads_json", side_effect=AssertionError("decoded again")), \
                mock.patch.object(serialize, "_scan", side_effect=serialize._scan) as scan:
            assert repr(load(path)) == repr(loads_model(text))
        # a few scans per window (a batch, and the triplet the window cuts), not one per triplet
        assert scan.call_count < triplets / 4
        with mock.patch.object(serialize, "_scan", side_effect=serialize._scan) as scan:
            loads_model(text)
        assert scan.call_count < triplets / 4  # a whole text is read in batches too

    def test_load_reads_line_ends_and_utf8_as_before(self, tmp_path):
        text = (FIXTURES / "three_segment_mlp.json").read_text()
        path = tmp_path / "crlf.json"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        with mock.patch.object(serialize, "_CHUNK", 5):
            assert repr(load(path)) == repr(loads_model(text))
            # a bad byte far past the first chunk is reported where it is in the file
            bad = text.encode()
            at = bad.index(b"relu")
            path.write_bytes(bad[:at] + b"\xff" + bad[at + 1:])
            with pytest.raises(ParseError, match=f"not valid UTF-8 at byte {at}$"):
                load(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_load_from_pipe_is_read_whole(self, tmp_path):
        text = (FIXTURES / "three_segment_mlp.json").read_text()
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        for sent in (text, text[:300]):
            outcome = []

            def read():
                try:
                    outcome.append(repr(load(pipe)))
                except ParseError as e:
                    outcome.append(("ParseError", str(e)))

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            pipe.write_text(sent)
            reader.join(timeout=30)
            # a second open of the pipe, to word an error, would wait for a writer for ever
            assert not reader.is_alive()
            assert outcome == [_outcome(sent)]


def _edited(fixture, keys, value):
    """The JSON text of a fixture with the field at path ``keys`` set to ``value``."""
    doc = json.loads((FIXTURES / fixture).read_text())
    container = doc
    for key in keys[:-1]:
        container = container[key]
    container[keys[-1]] = value
    return json.dumps(doc)


def _assert_rejected(error, text, message, tmp_path):
    """``loads_model`` raises ``error`` with exactly ``message``, and eval exits 1 printing it."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        loads_model(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["eval", path, "--input", "1"])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _kan_doc(grid):
    """A one-layer KAN document whose activation grid is ``grid``."""
    return {"kind": "kan", "version": "1", "metadata": {}, "payload": {"layers": [
        {"n_in": len(grid[0]), "n_out": len(grid), "activations": grid},
    ]}}


def _pl_doc(breakpoints, slopes, intercept):
    return {"breakpoints": breakpoints, "slopes": slopes, "intercept": intercept}


class TestSharedActivations:
    def test_bit_equal_cells_share_one_object(self):
        relu = _pl_doc([0.0], [0.0, 1.0], 0.0)
        grid = [
            [relu, _pl_doc([0], [0, 1], 0), _pl_doc([0.0], [0.0, 1.0], -0.0), _pl_doc([-0.0], [0.0, 1.0], 0.0)],
            [_pl_doc([0.0], [-0.0, 1.0], 0.0), dict(relu), _pl_doc([-0.0], [0.0, 1.0], 0.0), _pl_doc([], [1.0], 0.5)],
        ]
        loaded = loads_model(json.dumps(_kan_doc(grid)))  # json.dumps writes -0.0 as "-0.0"
        cells = loaded.layers[0].activations
        # the integers read as floats, so they match the first cell
        assert cells[0][0] is cells[0][1] is cells[1][1]
        assert cells[0][3] is cells[1][2]
        signed = [cells[0][0], cells[0][2], cells[0][3], cells[1][0], cells[1][3]]
        assert len({id(act) for act in signed}) == len(signed)
        by_cell = Kan((KanLayer(tuple(
            tuple(PiecewiseLinear(tuple(map(float, c["breakpoints"])), tuple(map(float, c["slopes"])),
                                  float(c["intercept"])) for c in row)
            for row in grid
        )),))
        assert repr(loaded) == repr(by_cell)
        assert dumps_model(loaded) == dumps_model(by_cell)

    def test_spline_cells_share_by_bits_degree_and_shape(self):
        def spline(breakpoints, pieces, degree):
            return {"breakpoints": breakpoints, "pieces": pieces, "degree": degree}

        grid = [[
            spline([], [[1.0, 2.0]], 1), spline([], [[1.0, 2.0]], 1), spline([], [[1.0, 2.0]], 2),
            spline([], [[1.0, -0.0]], 1), spline([0.5], [[1.0], [1.0]], 1), spline([], [[1.0, 2.0]], 1),
        ]]
        doc = _kan_doc(grid)
        doc["kind"] = "bspline_kan"
        loaded = loads_model(json.dumps(doc))
        cells = loaded.layers[0].activations[0]
        assert cells[0] is cells[1] is cells[5]
        assert len({id(act) for act in cells}) == 4
        by_cell = SplineKan((KanLayer((tuple(
            PolySegmentSpline(tuple(c["breakpoints"]), tuple(map(tuple, c["pieces"])), c["degree"]) for c in grid[0]
        ),)),))
        assert repr(loaded) == repr(by_cell)
        assert dumps_model(loaded) == dumps_model(by_cell)

    def test_a_bad_cell_is_never_shared(self):
        good = _pl_doc([1.0], [2.0, 3.0], 0.0)
        # the same floats split otherwise: three slopes for one breakpoint too few
        for bad, error, message in [
            (_pl_doc([1.0, 2.0], [3.0], 0.0), ValidationError, "slopes length"),
            (_pl_doc([1.0], [2.0, 3.0], True), ParseError, r"activations\[0\]\[1\]\.intercept"),
            (_pl_doc([1.0], [2.0, True], 0.0), ParseError, r"activations\[0\]\[1\]\.slopes\[1\]"),
        ]:
            with pytest.raises(error, match=message):
                loads_model(json.dumps(_kan_doc([[good, bad, good], [good, good, good]])))
        # the first bad cell in grid order is the one named
        doc = _kan_doc([[good, good], [_pl_doc([1.0], [2.0, "3"], 0.0), _pl_doc([1.0], [True, 3.0], 0.0)]])
        with pytest.raises(ParseError, match=r"activations\[1\]\[0\]\.slopes\[1\]"):
            loads_model(json.dumps(doc))

    def test_round_tripped_kan_loads_one_object_per_distinct_activation(self, tmp_path):
        back = mlp_to_kan(kan_to_mlp(_kan_of_widths(random.Random(17), (3, 3, 3), 4), ConversionMode.EXACT))
        path = tmp_path / "back.json"
        save(back, path)
        loaded = load(path)
        assert loaded == back

        def bits(act):  # float.hex tells -0.0 from 0.0
            return len(act.breakpoints), tuple(map(float.hex, (*act.breakpoints, *act.slopes, act.intercept)))

        cells = [act for layer in loaded.layers for row in layer.activations for act in row]
        assert len({id(act) for act in cells}) == len(set(map(bits, cells))) < len(cells) // 4
        again = tmp_path / "again.json"
        save(loaded, again)
        assert again.read_bytes() == path.read_bytes()


def _bit_key(item):
    """A loaded row or cell as a key that tells apart items not equal bit for
    bit (``float.hex`` tells -0.0 from 0.0); a tag row is its own key."""
    if isinstance(item, PiecewiseLinear):
        return len(item.breakpoints), tuple(map(float.hex, (*item.breakpoints, *item.slopes, item.intercept)))
    if isinstance(item, PolySegmentSpline):
        return item.degree_bound, tuple(map(float.hex, item.breakpoints)), tuple(
            tuple(map(float.hex, c)) for c in item.piece_coeffs)
    return tuple(float.hex(v) if type(v) is float else v for v in item)


def _shared_groups(model):
    """The lists of items a load shares within: each weight and tag matrix, and all cells of a KAN file."""
    if isinstance(model, Mlp):
        return [m for layer in model.layers for m in (layer.weight, layer.weight_tags) if m is not None]
    if isinstance(model, MonomialReluNetwork):
        return [*(block.weight for block in model.blocks), model.readout_weight]
    return [[act for layer in model.layers for row in layer.activations for act in row]]


class TestSharedLoads:
    @given(_models())
    @settings(max_examples=200, deadline=None)
    def test_items_are_one_object_exactly_when_bit_equal(self, case):
        model, sparse = case
        text = dumps_model(model, sparse=sparse)
        loaded = loads_model(text)
        for group in _shared_groups(loaded):
            by_bits = {}
            for item in group:
                assert by_bits.setdefault(_bit_key(item), item) is item
            assert len({id(item) for item in group}) == len(by_bits)
        assert dumps_model(loaded, sparse=sparse) == text


class TestValidationOnLoad:
    def test_mlp_with_relu_output_rejected(self):
        text = dumps_model(load(FIXTURES / "abs_mlp.json"))
        doc = json.loads(text)
        doc["payload"]["layers"][-1]["activation"] = "relu"
        with pytest.raises(ValidationError, match="identity"):
            loads_model(json.dumps(doc))

    def test_malformed_json_reports_location(self):
        with pytest.raises(ParseError, match="line"):
            loads_model("{not json")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParseError, match="kind"):
            loads_model('{"kind": "tree", "version": "1", "payload": {}, "metadata": {}}')

    def test_missing_field_named(self):
        doc = json.loads(dumps_model(load(FIXTURES / "three_segment_kan.json")))
        del doc["payload"]["layers"][0]["activations"][0][0]["slopes"]
        with pytest.raises(ParseError, match="slopes"):
            loads_model(json.dumps(doc))

    def test_decreasing_breakpoints_rejected(self):
        doc = json.loads(dumps_model(load(FIXTURES / "three_segment_kan.json")))
        doc["payload"]["layers"][0]["activations"][0][0]["breakpoints"] = [1.0, -1.0]
        with pytest.raises(ValidationError, match="increasing"):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("weight", [[[1, 2], [3]], [[1, 2], [3, 4, 5]]], ids=["short", "long"])
    def test_ragged_monomial_readout_rejected(self, weight, tmp_path):
        doc = {"kind": "monomial_relu", "version": "1", "metadata": {},
               "payload": {"blocks": [], "readout": {"weight": weight, "bias": [0, 0]}}}
        with pytest.raises(ValidationError, match="rectangular"):
            loads_model(json.dumps(doc))
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["eval", path, "--input", "1,1"])
        assert (code, out) == (1, "")

    @pytest.mark.parametrize("change", [
        {"weight_tags": (("foo",),)},
        {"bias_tags": ("foo",)},
        {"source_params": 2.5},
        {"source_params": True},
        {"source_params": -1},
    ], ids=["weight_tag", "bias_tag", "float_source_params", "bool_source_params",
            "negative_source_params"])
    def test_layer_a_file_cannot_hold_is_not_built(self, change):
        # each of these used to build and save, then fail to load
        with pytest.raises(ValidationError):
            MlpLayer(((1.0,),), (0.0,), Activation.IDENTITY, **change)

    @pytest.mark.parametrize("tag", ["foo", ["structural"], None], ids=["foo", "list", "null"])
    @pytest.mark.parametrize("field", ["weight_tags", "bias_tags"])
    def test_bad_tag_in_file_rejected(self, field, tag, tmp_path):
        doc = json.loads((FIXTURES / "three_segment_mlp.json").read_text())
        tags = doc["payload"]["layers"][0][field]
        (tags[0] if field == "weight_tags" else tags)[0] = tag
        with pytest.raises(ValidationError, match=f"{field} must be 'structural' or 'free'"):
            loads_model(json.dumps(doc))
        path = tmp_path / "bad_tag.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["eval", path, "--input", "1"])
        assert (code, out) == (1, "")
        assert field in err

    @pytest.mark.parametrize("fixture, keys, field", [
        ("three_segment_kan.json", ("activations", 0, 0, "intercept"), "activations[0][0].intercept"),
        ("three_segment_kan.json", ("activations", 0, 0, "slopes", 1), "activations[0][0].slopes[1]"),
        ("three_segment_mlp_sparse.json", ("weight_sparse", "triplets", 1, 2), "weight_sparse.triplets[1]"),
    ], ids=["need", "floats", "sparse_triplet"])
    def test_integer_beyond_float_range_rejected(self, fixture, keys, field, tmp_path):
        # each used to end in an OverflowError traceback
        doc = json.loads((FIXTURES / fixture).read_text())
        container = doc["payload"]["layers"][0]
        for key in keys[:-1]:
            container = container[key]
        container[keys[-1]] = 10**400
        with pytest.raises(ParseError, match=rf"{re.escape(field)}: number too large for a float"):
            loads_model(json.dumps(doc))
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["eval", path, "--input", "1"])
        assert (code, out) == (1, "")
        assert field in err

    @pytest.mark.parametrize("row, message", [
        ([1.0, True], "weight[1][1]: expected a number"),
        ([1.0, "2"], "weight[1][1]: expected a number"),
        ([None, 2.0], "weight[1][0]: expected a number"),
        ([1.0, 10**400], "weight[1][1]: number too large for a float"),
        ({"a": 1.0}, "weight[1]: expected a list of numbers"),
        (2.0, "weight[1]: expected a list of numbers"),
    ], ids=["bool", "string", "null", "overflow", "object", "number"])
    def test_bad_dense_weight_row_named(self, row, message):
        doc = json.loads((FIXTURES / "three_segment_mlp.json").read_text())
        weight = doc["payload"]["layers"][0]["weight"]
        weight[1] = row
        with pytest.raises(ParseError, match=re.escape(f"payload.layers[0].{message}")):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("value", ["2", True, None], ids=["string", "bool", "null"])
    def test_sparse_triplet_value_must_be_a_number(self, value):
        doc = json.loads((FIXTURES / "three_segment_mlp_sparse.json").read_text())
        doc["payload"]["layers"][0]["weight_sparse"]["triplets"][1][2] = value
        message = "payload.layers[0].weight_sparse.triplets[1]: expected a number"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            loads_model(json.dumps(doc))

    def test_integer_beyond_digit_limit_rejected(self, tmp_path):
        # Python 3.11+ refuses to parse an integer of more than 4,300 digits
        text = (FIXTURES / "three_segment_kan.json").read_text()
        text = re.sub(r'"intercept": 0\b', '"intercept": 1' + "0" * 5000, text, count=1)
        with pytest.raises(ParseError):
            loads_model(text)
        path = tmp_path / "huge.json"
        path.write_text(text)
        code, out, err = run_cli(["eval", path, "--input", "1"])
        assert (code, out) == (1, "")
        assert "Traceback" not in err

    def test_deeply_nested_file_rejected(self, tmp_path):
        # json.loads raised RecursionError, which ended eval in a traceback
        text = "[" * 100_000 + "]" * 100_000
        with pytest.raises(ParseError, match="^invalid JSON: nesting too deep$"):
            loads_model(text)
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli(["eval", path, "--input", "1"])
        assert (code, out, err) == (1, "", "error: invalid JSON: nesting too deep\n")

    def test_file_that_is_not_utf8_rejected(self, tmp_path):
        # used to end in a UnicodeDecodeError traceback
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + (FIXTURES / "three_segment_kan.json").read_text().encode("utf-16-le"))
        with pytest.raises(ParseError, match="UTF-8"):
            load(path)
        code, out, err = run_cli(["eval", path, "--input", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "UTF-8" in err

    def test_duplicate_sparse_triplet_rejected(self, tmp_path):
        # the last of two triplets for one entry used to win silently
        doc = json.loads((FIXTURES / "three_segment_mlp_sparse.json").read_text())
        triplets = doc["payload"]["layers"][0]["weight_sparse"]["triplets"]
        triplets.append(triplets[0][:2] + [99.0, triplets[0][3]])
        index = len(triplets) - 1
        field = f"payload.layers[0].weight_sparse.triplets[{index}]"
        with pytest.raises(ParseError, match=rf"{re.escape(field)}: duplicate entry for row 0, column 0"):
            loads_model(json.dumps(doc))
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["eval", path, "--input", "1"])
        assert (code, out) == (1, "")
        assert field in err

    @pytest.mark.parametrize("keys, message", [
        (("triplets", 0, 0), "triplets[0]: row must be an integer, got True"),
        (("triplets", 0, 1), "triplets[0]: column must be an integer, got True"),
        (("shape", 1), "shape: expected two positive integers"),
    ], ids=["row", "column", "shape"])
    def test_sparse_bool_index_rejected(self, keys, message):
        # true used to load as 1: a triplet's row or column, or a layer's width
        doc = json.loads((FIXTURES / "three_segment_mlp_sparse.json").read_text())
        container = doc["payload"]["layers"][0]["weight_sparse"]
        for key in keys[:-1]:
            container = container[key]
        container[keys[-1]] = True
        with pytest.raises(ParseError, match=re.escape(f"payload.layers[0].weight_sparse.{message}")):
            loads_model(json.dumps(doc))

    @pytest.mark.parametrize("keys, value, message", [
        (("payload", "layers", 0, "weight_sparse", "triplets", 0), [0, 0, 1.0],
         "payload.layers[0].weight_sparse.triplets[0]: expected [row, col, value, tag]"),
        (("payload", "layers", 0, "weight_sparse", "triplets", 0), "0, 0, 1, free",
         "payload.layers[0].weight_sparse.triplets[0]: expected [row, col, value, tag]"),
        (("payload", "layers", 0, "weight_sparse", "triplets", 0, 0), 4,
         "payload.layers[0].weight_sparse.triplets[0]: index out of range"),
        (("payload", "layers", 0, "weight_sparse", "triplets", 0, 1), -1,
         "payload.layers[0].weight_sparse.triplets[0]: index out of range"),
        (("payload", "layers", 0, "weight_sparse", "triplets", 0, 3), "fixed",
         "payload.layers[0].weight_sparse.triplets[0]: bad tag 'fixed'"),
        (("payload", "layers", 0, "activation"), "tanh",
         "payload.layers[0].activation: expected 'relu' or 'identity'"),
        (("version",), "2", "document.version: unsupported version '2'"),
        (("metadata",), {"note": 1}, "document.metadata: expected a string-to-string map"),
        (("metadata",), ["note"], "document.metadata: expected a string-to-string map"),
        (("payload", "layers", 0), 5, "payload.layers[0]: expected an object"),
        (("payload", "layers", 0, "source_params"), 2.5, "payload.layers[0].source_params: expected an integer"),
        (("payload", "layers", 0, "source_params"), True, "payload.layers[0].source_params: expected an integer"),
        (("payload",), [], "document.payload: expected dict"),
        (("payload", "layers", 0, "bias_tags"), "free", "payload.layers[0].bias_tags: expected a list"),
    ], ids=["short_triplet", "string_triplet", "row_out_of_range", "negative_column", "triplet_tag",
            "activation", "version", "metadata_value", "metadata_list", "layer_not_object",
            "float_source_params", "bool_source_params", "payload_list", "bias_tags_string"])
    def test_bad_field_named(self, keys, value, message, tmp_path):
        _assert_rejected(ParseError, _edited("three_segment_mlp_sparse.json", keys, value), message, tmp_path)

    @pytest.mark.parametrize("fixture, keys, value, message", [
        ("three_segment_kan.json", ("payload", "layers", 0, "activations", 0, 0, "intercept"), float("nan"),
         "intercept must be finite"),
        ("three_segment_mlp.json", ("payload", "layers", 0, "weight_tags", 0), ["structural"] * 2,
         "weight_tags must match weight shape"),
        ("three_segment_mlp.json", ("payload", "layers", 0, "bias_tags"), ["structural"] * 5,
         "bias_tags must match bias length"),
        ("square_flip_spline_kan.json", ("payload", "layers", 0, "activations", 0, 0, "pieces"), [[0, 1]] * 2,
         "piece count must be breakpoint count + 1"),
        ("square_flip_spline_kan.json", ("payload", "layers", 0, "activations", 0, 0, "pieces", 0), [],
         "each piece needs at least one coefficient"),
        ("square_flip_monomial.json", ("payload", "blocks", 0, "degree"), 9, "degree must be between 0 and 5"),
        ("square_flip_monomial.json", ("payload", "readout", "weight", 0), [0, 0, 1, 0, 0, 1, 0, 0, -2, 0],
         "readout width must match the last block's output"),
    ], ids=["nan_intercept", "long_weight_tags_row", "long_bias_tags", "extra_piece", "empty_piece",
            "monomial_degree", "long_readout_row"])
    def test_invalid_model_named(self, fixture, keys, value, message, tmp_path):
        _assert_rejected(ValidationError, _edited(fixture, keys, value), message, tmp_path)

    @pytest.mark.parametrize("kind", ["kan", "bspline_kan"])
    def test_grid_row_must_be_a_list(self, kind, tmp_path):
        doc = {"kind": kind, "version": "1", "metadata": {},
               "payload": {"layers": [{"n_in": 1, "n_out": 1, "activations": [5]}]}}
        with pytest.raises(ParseError, match="grid must be n_out rows of n_in entries"):
            loads_model(json.dumps(doc))
        path = tmp_path / "bad_grid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["eval", path, "--input", "1"])
        assert (code, out) == (1, "")
        assert "activations" in err


class TestCliExitCodes:
    def test_convert_then_verify_succeeds(self, tmp_path):
        out = tmp_path / "converted.json"
        code, _, _ = run_cli(["convert", "--to", "mlp", "--mode", "exact",
                              FIXTURES / "three_segment_kan.json", out])
        assert code == 0
        code, _, _ = run_cli(["verify", FIXTURES / "three_segment_kan.json", out,
                              "--tol", "1e-8"])
        assert code == 0

    def test_convert_to_kan_writes_the_reverse_embedding(self, tmp_path):
        mlp = FIXTURES / "three_segment_mlp.json"
        kan = tmp_path / "kan.json"
        assert run_cli(["convert", mlp, kan, "--to", "kan"]) == (0, "", "")
        assert kan.read_bytes() == dumps_model(mlp_to_kan(load(mlp))).encode()
        for x, printed in (("-1.5", "-1.5\n"), ("0.25", "1.5\n"), ("2", "3.5\n")):
            assert run_cli(["eval", mlp, "--input", x]) == (0, printed, "")
            assert run_cli(["eval", kan, "--input", x]) == (0, printed, "")

    def test_outputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the reader looks rows up by hash, layers group equal rows in dicts and
        # the sampled verify collects its probe breakpoints in sets
        script = (
            "from kanrelu.cli import main\n"
            "for argv in ("
            f"['convert', {str(FIXTURES / 'pyramid_kan.json')!r}, 'mlp.json', '--to', 'mlp', '--mode', 'exact'],"
            "['convert', 'mlp.json', 'kan.json', '--to', 'kan'],"
            f"['verify', {str(FIXTURES / 'pyramid_kan.json')!r}, 'mlp.json', '--samples', '300', '--json'],"
            f"['regions', {str(FIXTURES / 'three_segment_mlp.json')!r}, '--out', 'regions.json'],"
            f"['fingerprint', {str(FIXTURES / 'pyramid_kan.json')!r}, '--box', '0', '1', '0', '1', '--res', '8',"
            " '--out', 'fingerprint.csv']):\n"
            "    print(argv[0], main(argv))\n"
        )
        source = str(Path(serialize.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            work = tmp_path / seed
            work.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH")))))
            run = subprocess.run([sys.executable, "-c", script], cwd=work, env=env,
                                 capture_output=True, text=True, timeout=300, check=True)
            files = {path.name: path.read_bytes() for path in sorted(work.iterdir())}
            outputs.append((run.stdout, run.stderr, files))
        assert sorted(outputs[0][2]) == ["fingerprint.csv", "kan.json", "mlp.json", "regions.json"]
        assert "convert 0\nconvert 0\n" in outputs[0][0]
        assert outputs[0] == outputs[1]

    def test_verify_exact_1d_of_different_output_dimensions_exits_two(self, tmp_path):
        relu = PiecewiseLinear((0.0,), (0.0, 1.0), 0.0)
        save(Kan((KanLayer(((relu,), (relu,))),)), tmp_path / "two_outputs.json")
        code, out, err = run_cli(["verify", FIXTURES / "three_segment_kan.json", tmp_path / "two_outputs.json",
                                  "--exact-1d"])
        assert (code, out, err) == (2, "", "error: networks have different output dimensions\n")

    def test_verify_box_with_a_kink_outside_samples_only_the_box(self, tmp_path):
        # the paper form is valid on [0, 5]; the probe at -1 - 1e-6 made this exit 1
        paper = tmp_path / "paper.json"
        code, _, _ = run_cli(["convert", FIXTURES / "three_segment_kan.json", paper,
                              "--to", "mlp", "--mode", "paper"])
        assert code == 0
        code, out, _ = run_cli(["verify", FIXTURES / "three_segment_kan.json", paper, "--box", "0", "5"])
        assert code == 0
        assert "max_abs_error: 0.0" in out

    def test_verify_failure_exits_one(self, tmp_path):
        code, _, _ = run_cli(["verify", FIXTURES / "three_segment_kan.json",
                              FIXTURES / "abs_mlp.json", "--tol", "1e-8"])
        assert code == 1

    def test_verify_exact_far_kink_pair_exits_one(self):
        # one unit out from a kink at -1e17 rounds back onto it, so the left
        # pieces, which differ by 1e18 at -3e17, were never compared
        code, out, _ = run_cli(["verify", FIXTURES / "far_kink_kan.json",
                                FIXTURES / "far_kink_other_kan.json", "--exact-1d"])
        assert code == 1
        assert "passed: False" in out

    def test_params_on_truncated_file_exits_one(self, tmp_path):
        mlp = tmp_path / "pyramid_mlp.json"
        assert run_cli(["convert", FIXTURES / "pyramid_kan.json", mlp, "--to", "mlp", "--mode", "exact"])[0] == 0
        mlp.write_text(mlp.read_text()[:500])
        code, out, err = run_cli(["params", mlp])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON at line ")

    def test_usage_error_exits_two(self):
        code, _, _ = run_cli(["convert", "--to", "sideways", "a", "b"])
        assert code == 2

    def test_regions_on_two_input_model_exits_two(self, tmp_path):
        code, _, err = run_cli(["regions", FIXTURES / "pyramid_kan.json",
                                "--out", tmp_path / "c.json"])
        assert code == 2
        assert "dimension" in err

    def test_convert_kind_mismatch_exits_two(self, tmp_path):
        code, _, _ = run_cli(["convert", "--to", "mlp",
                              FIXTURES / "abs_mlp.json", tmp_path / "x.json"])
        assert code == 2

    def test_invalid_model_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, _ = run_cli(["eval", bad, "--input", "1"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["convert", FIXTURES / "three_segment_kan.json", "{dir}", "--to", "mlp"],
        ["eval", "{dir}", "--input", "1"],
        ["fingerprint", FIXTURES / "pyramid_kan.json", "--box", "-1", "1", "-1", "1", "--out", "{dir}"],
        ["regions", FIXTURES / "three_segment_kan.json", "--out", "{dir}"],
    ], ids=["convert_output", "eval_model", "fingerprint_out", "regions_out"])
    def test_directory_path_exits_one(self, argv, tmp_path):
        # each used to end in an IsADirectoryError traceback
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli([str(tmp_path) if a == "{dir}" else a for a in argv])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "directory" in err.lower()
        assert sorted(tmp_path.iterdir()) == before

    def test_eval_wrong_arity_exits_two(self):
        code, _, _ = run_cli(["eval", FIXTURES / "three_segment_kan.json",
                              "--input", "1,2"])
        assert code == 2

    def test_eval_unparsable_input_exits_two(self):
        code, out, err = run_cli(["eval", FIXTURES / "three_segment_kan.json", "--input", "1,x"])
        assert (code, out, err) == (2, "", "could not parse --input '1,x'\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("model", ALL_FIXTURES, ids=lambda path: path.stem)
    def test_eval_non_finite_input_exits_two(self, model, value):
        # a PL KAN exited 1, an MLP printed 0 for nan and a spline KAN printed nan
        point = ",".join([value] + ["0"] * (load(model).input_dim - 1))
        code, out, err = run_cli(["eval", model, f"--input={point}"])
        assert (code, out) == (2, "")
        assert err == f"eval --input coordinates must be finite, got {point!r}\n"

    @pytest.mark.parametrize("value, message", [
        ("nan", "eval --input coordinates must be finite, got 'nan'\n"),
        ("1,x", "could not parse --input '1,x'\n"),
    ], ids=["nan", "unparsable"])
    def test_eval_bad_input_exits_two_before_loading(self, value, message, tmp_path):
        # a missing model file used to exit 1 first
        code, out, err = run_cli(["eval", tmp_path / "missing.json", f"--input={value}"])
        assert (code, out, err) == (2, "", message)

    def test_eval_json_writes_non_finite_output_as_null(self):
        # a finite input whose output overflows; --json used to exit 1
        argv = ["eval", FIXTURES / "three_segment_kan.json", "--input", "1.7e308"]
        code, out, err = run_cli(argv)
        assert (code, out, err) == (0, "nan\n", "")
        code, out, err = run_cli([*argv, "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"output": [None]}

    def test_monomial_power_beyond_float_range(self):
        # acc**power used to end in an OverflowError traceback; relu(x)**2 is inf
        # at x = -1e308, and the read-out's inf - 2 * inf is NaN at x = 1e308
        model = FIXTURES / "square_flip_monomial.json"
        for x, printed in (("-1e308", "inf\n"), ("1e308", "nan\n")):
            assert run_cli(["eval", model, f"--input={x}"]) == (0, printed, "")
            code, out, err = run_cli(["eval", model, f"--input={x}", "--json"])
            assert (code, err) == (0, "")
            assert json.loads(out) == {"output": [None]}
        code, out, err = run_cli(["verify", model, FIXTURES / "square_flip_spline_kan.json",
                                  "--box", "0", "1e200"])
        assert code == 1 and "Traceback" not in err, err
        assert "passed: False" in out

    @pytest.mark.parametrize("argv", [
        ["convert", FIXTURES / "overflow_slope_kan.json", "{tmp}/mlp.json", "--to", "mlp", "--mode", "exact"],
        ["convert", FIXTURES / "overflow_slope_kan.json", "{tmp}/mlp.json", "--to", "mlp", "--mode", "paper"],
        ["embed-check", FIXTURES / "overflow_slope_kan.json"],
    ], ids=["convert_exact", "convert_paper", "embed_check"])
    def test_overflowing_conversion_names_the_activation(self, argv, tmp_path):
        # both used to report "weight row must be finite, got inf"
        code, out, err = run_cli([str(a).format(tmp=tmp_path) for a in argv])
        assert (code, out) == (1, "")
        assert err == "error: KAN layer 0: activation q=0, p=0: the slope change at breakpoint 0.0 overflows to inf\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["convert", FIXTURES / "overflow_fold_kan.json", "{tmp}/mlp.json", "--to", "mlp", "--mode", "exact"],
        ["convert", FIXTURES / "overflow_fold_kan.json", "{tmp}/mlp.json", "--to", "mlp", "--mode", "paper"],
        ["embed-check", FIXTURES / "overflow_fold_kan.json"],
    ], ids=["convert_exact", "convert_paper", "embed_check"])
    def test_overflowing_folded_bias_names_the_layer(self, argv, tmp_path):
        # each used to report "bias must be finite, got inf"
        code, out, err = run_cli([str(a).format(tmp=tmp_path) for a in argv])
        assert (code, out) == (1, "")
        assert err == "error: KAN layer 1: input p=0: the folded bias of the unit at breakpoint -1e+308 overflows to inf\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tol", ["nan", "-1e-8", "-inf"])
    @pytest.mark.parametrize("exact", [[], ["--exact-1d"]], ids=["sampled", "exact_1d"])
    def test_verify_invalid_tol_exits_two(self, tol, exact):
        # each used to print "passed: False" with no reason
        code, out, err = run_cli(["verify", FIXTURES / "three_segment_kan.json",
                                  FIXTURES / "three_segment_mlp.json", f"--tol={tol}", *exact])
        assert (code, out) == (2, "")
        assert "--tol" in err

    @pytest.mark.parametrize("exact", [[], ["--exact-1d"]], ids=["sampled", "exact_1d"])
    def test_verify_nan_tol_exits_two_before_loading(self, tmp_path, exact):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(["verify", missing, missing, "--tol", "nan", *exact])
        assert (code, out) == (2, "")
        assert err == "verify --tol must be >= 0, got nan\n"

    def test_verify_negative_seed_exits_two_before_loading(self, tmp_path):
        # seed -1 used to sample the points of seed 0
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(["verify", missing, missing, "--seed", "-1"])
        assert (code, out) == (2, "")
        assert err == "verify --seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("box, message", [
        (["-" + "9" * 309, "9" * 309], "(-inf, inf)"),
        (["0", "inf"], "(0.0, inf)"),
        (["-" + "9" * 308, "9" * 308], "(-1e+308, 1e+308)"),
        (["nan", "1"], "(nan, 1.0)"),
        (["1", "0"], "(1.0, 0.0)"),
    ], ids=["infinite", "inf_hi", "overflowing_extent", "nan", "reversed"])
    def test_verify_box_that_cannot_be_sampled_exits_two(self, box, message, tmp_path):
        # relu(x) against -6 relu(x) used to pass on the first box: every
        # sample point was -inf + u * inf, NaN, which the ReLU maps to 0
        def net(w1, w2):
            return Mlp((
                MlpLayer(((w1,),), (0.0,), Activation.RELU),
                MlpLayer(((w2,),), (0.0,), Activation.IDENTITY),
            ))

        save(net(1.0, 1.0), tmp_path / "m1.json")
        save(net(2.0, -3.0), tmp_path / "m2.json")
        with pytest.raises(ValidationError, match=re.escape(message)):
            assert_equiv(net(1.0, 1.0), net(2.0, -3.0), box=tuple(map(float, box)))
        code, out, err = run_cli(["verify", tmp_path / "m1.json", tmp_path / "m2.json",
                                  "--box", *box, "--tol", "1e-4"])
        assert (code, out) == (2, "")
        assert err.startswith("verify --box:") and message in err

    @pytest.mark.parametrize("box, res, message", [
        (["0", "inf", "0", "1"], "8", "(0.0, inf, 0.0, 1.0)"),
        (["0", "1", "-" + "9" * 308, "9" * 308], "8", "(0.0, 1.0, -1e+308, 1e+308)"),
        (["0", "1", "nan", "1"], "8", "(0.0, 1.0, nan, 1.0)"),
        (["1", "0", "0", "1"], "8", "(1.0, 0.0, 0.0, 1.0)"),
        (["0", "1", "0", "1"], "4", "at least 8"),
        (["0", "5e-324", "0", "1"], "8", "(0.0, 5e-324, 0.0, 1.0)"),
        (["0", "1", "0", "1"], str(10**400), "resolution is too large to convert to a float"),
    ], ids=["inf", "overflowing_extent", "nan", "reversed", "res_4", "subnormal_extent", "res_beyond_float"])
    def test_fingerprint_bad_box_or_resolution_exits_two(self, box, res, message, tmp_path):
        # the first ended in a ValueError traceback, the subnormal extent in a
        # ZeroDivisionError traceback, the resolution beyond the float range
        # in an OverflowError traceback, the others exited 1
        mlp = kan_to_mlp(load(FIXTURES / "pyramid_kan.json"), ConversionMode.EXACT)
        save(mlp, tmp_path / "mlp.json")
        with pytest.raises(ValidationError, match=re.escape(message)):
            grid_fingerprint_2d(mlp, [float(v) for v in box], int(res))
        code, out, err = run_cli(["fingerprint", tmp_path / "mlp.json", "--box", *box,
                                  "--res", res, "--out", tmp_path / "f.csv"])
        assert (code, out) == (2, "")
        assert err.startswith("fingerprint --box/--res:") and message in err
        assert not (tmp_path / "f.csv").exists()

    def test_fingerprint_with_overflowing_output_exits_one(self, tmp_path):
        # relu(1e200 * x0) * 1e200 is +inf for x0 > 0, so its gradient is
        # inf or NaN; this ended in a ValueError traceback
        big = Mlp((
            MlpLayer(((1e200, 0.0),), (0.0,), Activation.RELU),
            MlpLayer(((1e200,),), (0.0,), Activation.IDENTITY),
        ))
        with pytest.raises(ValidationError, match="non-finite gradient in grid cell"):
            grid_fingerprint_2d(big, (-1.0, 1.0, -1.0, 1.0), 8)
        save(big, tmp_path / "big.json")
        code, out, err = run_cli(["fingerprint", tmp_path / "big.json", "--box", "-1", "1",
                                  "-1", "1", "--res", "8", "--out", tmp_path / "f.csv"])
        assert (code, out) == (1, "")
        assert err.startswith("error: non-finite gradient in grid cell")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("argv, model", [
        (["bounds"], "kan"),
        (["bounds"], "mlp"),
        (["params", "--paper-formula"], "mlp"),
    ], ids=["bounds_kan", "bounds_mlp", "paper_formula_mlp"])
    def test_non_scalar_output_exits_two(self, argv, model, tmp_path):
        # each exited 1, although a wrong output dimension is a usage error
        kan = random_kan(random.Random(5), input_dim=1, output_dim=2, max_width=2,
                         max_depth=2, max_segments=3)
        save(kan, tmp_path / "kan.json")
        save(kan_to_mlp(kan, ConversionMode.EXACT), tmp_path / "mlp.json")
        code, out, err = run_cli([*argv, tmp_path / f"{model}.json"])
        assert (code, out) == (2, "")
        assert "scalar-output" in err and "output dimension 2" in err

    def test_bounds_past_the_int_digit_limit(self, tmp_path):
        # a bound of more than 4,300 digits ended in a ValueError traceback,
        # as text and with --json; here 8**6960 has 6,286 digits
        act = PiecewiseLinear(tuple(map(float, range(-3, 4))), tuple(float(s % 3) for s in range(8)), 0.5)
        widths = (48, 48, 48, 48, 1)
        save(Kan(tuple(KanLayer(((act,) * n_in,) * n_out) for n_in, n_out in zip(widths, widths[1:]))),
             tmp_path / "kan.json")
        code, out, err = run_cli(["bounds", tmp_path / "kan.json", "--json"])
        assert (code, err) == (0, "")
        report = json.loads(out, parse_int=decimal.Decimal)  # json.loads would apply the digit limit
        assert report["region_upper_bound"] == report["ratio_bound"] == 8**6960
        code, out, err = run_cli(["bounds", tmp_path / "kan.json"])
        assert (code, err) == (0, "")
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        assert int(decimal.Decimal(lines["region_upper_bound"])) == 8**6960
        # a list of such integers, and a negative one, are written too
        doc = json.loads(dumps_canonical({"n": -(10**5000), "list": [10**5000, 1]}), parse_int=decimal.Decimal)
        assert (doc["n"], doc["list"]) == (-(10**5000), [10**5000, 1])

    def test_free_count_beyond_total_exits_one(self, tmp_path):
        doc = json.loads((FIXTURES / "three_segment_mlp.json").read_text())
        doc["payload"]["layers"][0]["source_params"] = 10**6
        path = tmp_path / "inflated.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["params", path])
        assert (code, out) == (1, "")
        assert "cannot exceed" in err

    def test_fingerprint_on_one_input_model_exits_two(self, tmp_path):
        code, _, _ = run_cli(["fingerprint", FIXTURES / "three_segment_kan.json",
                              "--box", "-1", "1", "-1", "1",
                              "--out", tmp_path / "g.csv"])
        assert code == 2

    def test_verify_zero_samples_exits_two(self):
        code, out, err = run_cli(["verify", FIXTURES / "three_segment_kan.json",
                                  FIXTURES / "three_segment_mlp.json", "--samples", "0"])
        assert code == 2
        assert out == "" and "--samples" in err

    def test_verify_json_reports_infinite_errors_as_null(self, tmp_path):
        # different cut counts: the exact-1d report carries infinite errors
        relu = Kan((KanLayer(((PiecewiseLinear((0.0,), (0.0, 1.0), 0.0),),)),))
        kinked = Kan((KanLayer(((PiecewiseLinear((-1.0, 1.0), (1.0, 2.0, 0.5), 0.0),),)),))
        save(relu, tmp_path / "a.json")
        save(kinked, tmp_path / "b.json")
        code, out, err = run_cli(["verify", tmp_path / "a.json", tmp_path / "b.json",
                                  "--exact-1d", "--json"])
        assert code == 1, err
        report = json.loads(out)
        assert report["max_abs_error"] is None and report["max_rel_error"] is None
        assert report["passed"] is False

    def test_overflowing_slope_change_is_reported_once_compiled(self, tmp_path):
        # finite slopes whose change is inf: NaN at the breakpoint, inf past it,
        # also once the network compiles its layer into a kernel after
        # KERNEL_AFTER points
        kan = Kan((KanLayer(((PiecewiseLinear((0.0,), (-1e308, 1e308)),),)),))
        save(kan, tmp_path / "k.json")
        code, out, err = run_cli(["verify", tmp_path / "k.json", tmp_path / "k.json",
                                  "--box", "-1", "1"])
        assert code == 1 and "Traceback" not in err, err
        assert "passed: False" in out

    def test_overflowed_network_is_not_certified(self, tmp_path):
        # big(x) = relu(1e200 * x) * 1e200 is +inf for every x > 0
        def net(w1, w2):
            return Mlp((
                MlpLayer(((w1,),), (0.0,), Activation.RELU),
                MlpLayer(((w2,),), (0.0,), Activation.IDENTITY),
            ))

        save(net(1e200, 1e200), tmp_path / "big.json")
        save(net(1.0, 0.0), tmp_path / "zero.json")
        for pair in (("big", "zero"), ("zero", "big")):
            paths = [tmp_path / f"{name}.json" for name in pair]
            for extra in ([], ["--exact-1d"]):
                code, out, err = run_cli(["verify", *paths, *extra, "--json"])
                assert code == 1, err
                assert json.loads(out)["passed"] is False
        # the complex has an inf slope, which a model document cannot hold
        code, out, err = run_cli(["regions", tmp_path / "big.json", "--out", tmp_path / "c.json"])
        assert (code, out) == (1, "")
        assert "non-finite" in err
        assert not (tmp_path / "c.json").exists()

    def test_verify_sixteen_input_kan_against_its_mlp(self, tmp_path):
        # Halton bases used to stop at 12 primes, so verify raised above 12 inputs
        kan = random_kan(random.Random(31), input_dim=16, output_dim=2, max_width=3,
                         max_depth=2, max_segments=3)
        save(kan, tmp_path / "kan.json")
        save(kan_to_mlp(kan, ConversionMode.EXACT), tmp_path / "mlp.json")
        code, out, err = run_cli(["verify", tmp_path / "kan.json", tmp_path / "mlp.json",
                                  "--samples", "200", "--tol", "1e-8", "--json"])
        assert code == 0, err
        report = json.loads(out)
        assert report["passed"] and len(report["worst_point"]) == 16

    # a command that needs a kan or mlp model exits 2 on any other kind
    OTHER_KIND_CASES = [
        pytest.param(argv, code, message, id=argv[0]) for argv, code, message in [
            (["convert", "--to", "mlp", "{model}", "{tmp}/x.json"], 2, "convert --to mlp takes kan models only"),
            (["params", "{model}"], 2, "params takes kan and mlp models only"),
            (["bounds", "{model}"], 2, "bounds takes kan and mlp models only"),
            (["embed-check", "{model}"], 2, "embed-check takes kan models only"),
            (["regions", "{model}", "--out", "{tmp}/c.json"], 2, "regions takes kan and mlp models only"),
            (["verify", "{model}", "{other}", "--exact-1d"], 2, "verify --exact-1d takes kan and mlp models only"),
            (["eval", "{model}", "--input", "0.5"], 0, ""),
        ]
    ]

    @pytest.mark.parametrize("argv, code, message", OTHER_KIND_CASES)
    def test_spline_kan_file(self, argv, code, message, tmp_path):
        self.check_other_kind("square_flip_spline_kan", "square_flip_monomial", argv, code, message, tmp_path)

    @pytest.mark.parametrize("argv, code, message", OTHER_KIND_CASES)
    def test_monomial_file(self, argv, code, message, tmp_path):
        self.check_other_kind("square_flip_monomial", "square_flip_spline_kan", argv, code, message, tmp_path)

    @staticmethod
    def check_other_kind(name, other, argv, code, message, tmp_path):
        model = FIXTURES / f"{name}.json"
        got, out, err = run_cli([a.format(model=model, other=FIXTURES / f"{other}.json", tmp=tmp_path)
                                 for a in argv])
        assert got == code, err
        assert message in err and "Traceback" not in err
        if code:
            assert out == ""
        else:
            assert float(out) == load(model).evaluate((0.5,))[0]

    def test_seed_changes_sample_set_but_not_verdict(self):
        a = FIXTURES / "three_segment_kan.json"
        b = FIXTURES / "three_segment_mlp.json"
        code0, out0, _ = run_cli(["verify", a, b, "--samples", "32", "--json", "--seed", "0"])
        code1, out1, _ = run_cli(["verify", a, b, "--samples", "32", "--json", "--seed", "9"])
        assert code0 == code1 == 0
        assert json.loads(out0)["passed"] and json.loads(out1)["passed"]


class TestCliGoldens:
    CASES = {
        "eval_three_segment.txt": ["eval", FIXTURES / "three_segment_kan.json", "--input", "2"],
        "eval_three_segment.json": ["eval", FIXTURES / "three_segment_kan.json",
                                     "--input", "2", "--json"],
        "params_three_segment.json": ["params", FIXTURES / "three_segment_kan.json",
                                       "--paper-formula", "--json"],
        "params_converted_mlp.json": ["params", FIXTURES / "three_segment_mlp.json", "--json"],
        "bounds_three_segment.json": ["bounds", FIXTURES / "three_segment_kan.json", "--json"],
        "verify_sampled.json": ["verify", FIXTURES / "three_segment_kan.json",
                                 FIXTURES / "three_segment_mlp.json",
                                 "--samples", "64", "--tol", "1e-8", "--json"],
        "verify_exact.json": ["verify", FIXTURES / "three_segment_kan.json",
                               FIXTURES / "three_segment_mlp.json",
                               "--exact-1d", "--tol", "1e-9", "--json"],
        "embed_check_three_segment.json": ["embed-check", FIXTURES / "three_segment_kan.json",
                                            "--json"],
    }

    @pytest.mark.parametrize("name", sorted(CASES), ids=lambda n: n.split(".")[0])
    def test_stdout_matches_golden(self, name):
        code, out, _ = run_cli(self.CASES[name])
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")

    def test_regions_output_matches_golden(self, tmp_path):
        out_file = tmp_path / "complex.json"
        code, _, _ = run_cli(["regions", FIXTURES / "three_segment_kan.json",
                              "--out", out_file])
        assert code == 0
        assert out_file.read_text() == (GOLDEN / "regions_three_segment.json").read_text()

    def test_fingerprint_output_matches_golden(self, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run_cli(["fingerprint", FIXTURES / "pyramid_kan.json",
                              "--box", "-1", "1", "-1", "1", "--res", "16",
                              "--out", out_file])
        assert code == 0
        assert out_file.read_text() == (GOLDEN / "fingerprint_pyramid.csv").read_text()

    def test_json_fields_match_module_reports(self):
        # the CLI is a thin wrapper: JSON keys mirror the report dataclasses
        code, out, _ = run_cli(["verify", FIXTURES / "three_segment_kan.json",
                                FIXTURES / "three_segment_mlp.json", "--json"])
        assert code == 0
        assert list(json.loads(out)) == [
            "max_abs_error", "max_rel_error", "worst_point", "samples", "passed", "mode",
        ]
        code, out, _ = run_cli(["params", FIXTURES / "three_segment_kan.json", "--json"])
        assert list(json.loads(out)) == [
            "total_entries", "nonzero_entries", "free_entries", "per_layer", "closed_form",
        ]
