"""Model files: round trips, validation, CLI exit codes and golden outputs."""
import contextlib
import gc
import io
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
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
    ValidationError,
    dumps_model,
    kan_to_mlp,
    load,
    loads_model,
    mlp_to_kan,
    save,
)
from kanrelu.cli import main
from kanrelu.serialize import _fmt_number, dumps_canonical, model_to_dict

from conftest import random_kan

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


class TestCanonicalEncoder:
    @given(_documents())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_encoder(self, doc):
        assert dumps_canonical(doc) == _dumps_reference(doc)

    @given(_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_plain_values(self, value):
        assert dumps_canonical(value) == _dumps_reference(value)

    @pytest.mark.parametrize("bad", [[1.0, float("inf")], {"a": [float("nan")]}, [2, -float("inf")]])
    def test_non_finite_numbers_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            dumps_canonical(bad)

    def test_encoding_leaves_no_cyclic_garbage(self):
        # a reference cycle would keep every output piece alive until a collection
        doc = {"rows": [[float(i), -0.0, 1] for i in range(50)], "shared": [{"a": "free"}] * 3}
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

    def test_verify_failure_exits_one(self, tmp_path):
        code, _, _ = run_cli(["verify", FIXTURES / "three_segment_kan.json",
                              FIXTURES / "abs_mlp.json", "--tol", "1e-8"])
        assert code == 1

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

    def test_eval_wrong_arity_exits_two(self):
        code, _, _ = run_cli(["eval", FIXTURES / "three_segment_kan.json",
                              "--input", "1,2"])
        assert code == 2

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
