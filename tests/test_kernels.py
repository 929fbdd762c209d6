"""Sparse evaluation kernels against the dense loops they replace, bit for bit.

The reference loops below are the dense versions of ``MlpLayer.apply``,
``regions._apply_affine`` and ``SplineKan.evaluate``: they visit every entry
in ascending index order.  The kernels skip zero weights, sum each distinct
row of a layer once and skip constant-zero activations, which must not
change a single output bit, including on infinite and NaN inputs.
"""
import math
import random
import struct
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from kanrelu import (
    Activation,
    ConversionMode,
    Mlp,
    MlpLayer,
    PolySegmentSpline,
    bspline_from_knots,
    bspline_to_monomial_relu,
    exact_regions_1d,
    kan_to_mlp,
    monomial_relu_to_spline_kan,
    save,
)
from kanrelu import regions
from kanrelu.splines import SplineKan

from conftest import random_kan

INF = math.inf
NAN = math.nan


def bits(values):
    return tuple(struct.pack("<d", v) for v in values)


def dense_apply(layer, x):
    v = tuple(float(t) for t in x)
    out = []
    for q in range(layer.n_out):
        row = layer.weight[q]
        acc = 0.0
        for p in range(layer.n_in):
            acc += row[p] * v[p]
        acc += layer.bias[q]
        if layer.activation is Activation.RELU:
            acc = acc if acc > 0.0 else 0.0
        out.append(acc)
    return tuple(out)


def dense_apply_affine(forms, layer):
    weight, bias = layer.weight, layer.bias
    new_forms = []
    for interval_forms in forms:
        out = []
        for q in range(len(weight)):
            acc_a = acc_b = 0.0
            for p, (a, b) in enumerate(interval_forms):
                acc_a += weight[q][p] * a
                acc_b += weight[q][p] * b
            out.append((acc_a, acc_b + bias[q]))
        new_forms.append(out)
    return new_forms


def full_grid_evaluate(kan, x):
    v = tuple(float(t) for t in x)
    for grid in kan.layers:
        out = []
        for row in grid:
            acc = 0.0
            for p, act in enumerate(row):
                acc += act.evaluate(v[p])
            out.append(acc)
        v = tuple(out)
    return v


_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_INPUTS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from([0.0, -0.0, INF, -INF, NAN]),
    st.floats(),
)


@st.composite
def _layers(draw):
    n_in = draw(st.integers(1, 6))
    n_out = draw(st.integers(1, 6))
    zero_rows = draw(st.sets(st.integers(0, n_out - 1)))
    zero_cols = draw(st.sets(st.integers(0, n_in - 1)))
    weight = [
        [
            draw(st.sampled_from([0.0, -0.0])) if q in zero_rows or p in zero_cols else draw(_WEIGHTS)
            for p in range(n_in)
        ]
        for q in range(n_out)
    ]
    # copied rows share one sum in the grouped view; a copy may flip the
    # sign of its zeros, and every row draws its own bias
    rows = st.integers(0, n_out - 1)
    for q, src, flip_zeros in draw(st.lists(st.tuples(rows, rows, st.booleans()), max_size=n_out)):
        weight[q] = [-w if flip_zeros and w == 0.0 else w for w in weight[src]]
    bias = tuple(draw(_WEIGHTS) for _ in range(n_out))
    activation = draw(st.sampled_from([Activation.RELU, Activation.IDENTITY]))
    layer = MlpLayer(weight, bias, activation)
    x = tuple(draw(_INPUTS) for _ in range(n_in))
    return layer, x


class TestMlpLayerApply:
    @given(_layers())
    @settings(max_examples=400, deadline=None)
    def test_matches_dense_loop_bit_for_bit(self, case):
        layer, x = case
        assert bits(layer.apply(x)) == bits(dense_apply(layer, x))

    def test_zero_weight_times_inf_is_nan(self):
        layer = MlpLayer(((0.0, 1.0), (-0.0, 0.0)), (0.0, 0.0), Activation.IDENTITY)
        out = layer.apply((INF, 2.0))
        assert math.isnan(out[0]) and math.isnan(out[1])
        relu = MlpLayer(((0.0, 1.0),), (0.0,), Activation.RELU)
        assert bits(relu.apply((NAN, 2.0))) == bits((0.0,))
        assert bits(relu.apply((1.0, 2.0))) == bits((2.0,))

    def test_nonzero_rows_skip_both_zeros(self):
        layer = MlpLayer(((0.0, -0.0, 2.0), (-1.0, 0.0, 0.5)), (0.0, 0.0), Activation.RELU)
        assert layer.nonzero_rows == ((((2, 2.0),), ((0, -1.0), (2, 0.5))), (0, 1))

    def test_rows_equal_up_to_signed_zeros_share_one_sum(self):
        weight = (
            (1.5, 0.0, -2.0),
            (0.0, 0.0, 0.0),
            (1.5, -0.0, -2.0),
            (-0.0, -0.0, 0.0),
            (1.5, 0.0, 2.0),
            (1.5, 0.0, -2.0),
            (0.0, 1.5, -2.0),
        )
        layer = MlpLayer(weight, (0.0, 1.0, -3.0, -0.0, 0.25, 1e-300, 0.0), Activation.IDENTITY)
        distinct, index = layer.nonzero_rows
        assert distinct == (
            ((0, 1.5), (2, -2.0)), (), ((0, 1.5), (2, 2.0)), ((1, 1.5), (2, -2.0))
        )
        assert index == (0, 1, 0, 1, 2, 0, 3)
        for x in [(0.1, 0.2, 0.3), (-0.0, 1e308, -1e308), (1e-320, -0.0, 0.0), (INF, 0.0, 1.0)]:
            assert bits(layer.apply(x)) == bits(dense_apply(layer, x))

    def test_row_view_is_built_on_first_use_only(self, tmp_path):
        kan = random_kan(random.Random(5), input_dim=2, output_dim=1, max_width=3)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        save(mlp, tmp_path / "mlp.json")
        assert all("nonzero_rows" not in vars(layer) for layer in mlp.layers)
        before = (repr(mlp), hash(mlp))
        mlp.evaluate((0.5, -0.25))
        assert all("nonzero_rows" in vars(layer) for layer in mlp.layers)
        assert (repr(mlp), hash(mlp)) == before
        assert mlp == kan_to_mlp(kan, ConversionMode.EXACT)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(ConversionMode)))
    @settings(max_examples=40, deadline=None)
    def test_converted_network_matches_dense_chain(self, seed, mode):
        rng = random.Random(seed)
        kan = random_kan(rng, max_width=3, max_depth=3, max_segments=4)
        mlp = kan_to_mlp(kan, mode)
        for _ in range(5):
            x = tuple(rng.uniform(-4.0, 4.0) for _ in range(mlp.input_dim))
            v = x
            for layer in mlp.layers:
                v = dense_apply(layer, v)
            assert bits(mlp.evaluate(x)) == bits(v)


@st.composite
def _layers_and_forms(draw):
    layer, _ = draw(_layers())
    form = st.tuples(_INPUTS, _INPUTS)
    intervals = st.lists(st.lists(form, min_size=layer.n_in, max_size=layer.n_in), min_size=1, max_size=3)
    return layer, draw(intervals)


def _form_bits(forms):
    return [bits(v for form in interval_forms for v in form) for interval_forms in forms]


class TestApplyAffine:
    @given(_layers_and_forms())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_loop_bit_for_bit(self, case):
        layer, forms = case
        assert _form_bits(regions._apply_affine(forms, layer)) == _form_bits(dense_apply_affine(forms, layer))


def _dense_regions(net, normalize):
    with mock.patch.object(regions, "_apply_affine", dense_apply_affine):
        return exact_regions_1d(net, normalize=normalize)


class TestExactRegions1D:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(ConversionMode)), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_converted_network_matches_dense_affine(self, seed, mode, normalize):
        kan = random_kan(random.Random(seed), input_dim=1, max_width=3, max_depth=3, max_segments=5)
        mlp = kan_to_mlp(kan, mode)
        sparse = exact_regions_1d(mlp, normalize=normalize)
        dense = _dense_regions(mlp, normalize)
        assert sparse == dense
        assert repr(sparse) == repr(dense)

    def test_overflowed_forms_take_the_dense_loop(self):
        # slopes overflow to inf in the second layer; the third layer's zero
        # weight then turns them into nan, exactly as the dense loop does
        big = MlpLayer(((1e300,),), (0.0,), Activation.RELU)
        zero = MlpLayer(((0.0,), (1.0,)), (0.0, 0.0), Activation.RELU)
        out = MlpLayer(((1.0, 1.0),), (0.0,), Activation.IDENTITY)
        mlp = Mlp((big, big, zero, out))
        forms = [[(INF, 0.0)]]
        assert repr(regions._apply_affine(forms, zero)) == repr(dense_apply_affine(forms, zero))
        assert math.isnan(regions._apply_affine(forms, zero)[0][0][0])
        assert repr(exact_regions_1d(mlp, normalize=False)) == repr(_dense_regions(mlp, False))


_ZERO_SPLINES = (
    PolySegmentSpline((), ((0.0,),), 0),
    PolySegmentSpline((), ((-0.0, 0.0),), 1),
    PolySegmentSpline((0.5,), ((0.0,), (-0.0, 0.0, 0.0)), 2),
)


@st.composite
def _spline_kans(draw):
    def spline():
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return draw(st.sampled_from(_ZERO_SPLINES))
        if kind == 1:
            return PolySegmentSpline((0.0,), ((0.0,), (0.0, 1.0)), 1)
        coeffs = tuple(draw(_WEIGHTS) for _ in range(draw(st.integers(1, 4))))
        return PolySegmentSpline((), (coeffs,), len(coeffs) - 1)

    widths = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 4)))]
    layers = tuple(
        tuple(tuple(spline() for _ in range(n_in)) for _ in range(n_out))
        for n_in, n_out in zip(widths, widths[1:])
    )
    x = tuple(draw(_INPUTS) for _ in range(widths[0]))
    return SplineKan(layers), x


class TestSplineKanEvaluate:
    @given(_spline_kans())
    @settings(max_examples=300, deadline=None)
    def test_matches_full_grid_loop_bit_for_bit(self, case):
        kan, x = case
        assert bits(kan.evaluate(x)) == bits(full_grid_evaluate(kan, x))

    def test_zero_activation_at_inf_is_nan(self):
        kan = SplineKan((((_ZERO_SPLINES[0], PolySegmentSpline((), ((1.0,),), 0)),),))
        assert math.isnan(kan.evaluate((INF, 0.0))[0])
        assert kan.live_columns == (((1,),),)

    def test_lowered_bspline_matches_full_grid_loop(self):
        rng = random.Random(3)
        knots = [-3.0 + 0.3 * i for i in range(20)]
        spline = bspline_from_knots(knots, [rng.uniform(-1.0, 1.0) for _ in range(16)], 3)
        kan = monomial_relu_to_spline_kan(bspline_to_monomial_relu(spline))
        live = sum(len(row) for grid in kan.live_columns for row in grid)
        total = sum(len(row) for grid in kan.layers for row in grid)
        assert live < total // 10
        for x in [-4.0, -0.0, 0.0, 0.31, 2.5, 1e200, INF, -INF, NAN]:
            assert bits(kan.evaluate((x,))) == bits(full_grid_evaluate(kan, (x,)))
