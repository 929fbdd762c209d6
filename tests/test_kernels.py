"""Sparse evaluation kernels against the dense loops they replace, bit for bit.

The reference loops below are the dense versions of ``MlpLayer.apply``,
the MLP steps of ``regions.exact_regions_1d`` and ``KanLayer.apply``: they
visit every entry in ascending index order, and the reference extractor
carries one form per unit.  The kernels skip zero weights, sum each
distinct row of a layer once, take a negated row's sum as ``0.0 - s``,
skip inactive units and constant-zero activations, which must not change
a single output bit, including on infinite and NaN inputs.  The compiled
kernels, the generated straight-line functions a network switches to after
``KERNEL_AFTER`` finite evaluations, one per layer, are checked against
the same loops, alone and as the chain that passes row sums between MLP
kernels, and so is their tiering.
"""
import copy
import dataclasses
import gc
import math
import pickle
import random
import struct
import sys
import threading
import weakref
from bisect import bisect_right
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanrelu import (
    Activation,
    ConversionMode,
    DomainError,
    Kan,
    KanLayer,
    Mlp,
    MlpLayer,
    PiecewiseLinear,
    PolySegmentSpline,
    ShapeError,
    SplineKan,
    ValidationError,
    bspline_from_knots,
    bspline_to_monomial_relu,
    count_params_kan,
    count_params_mlp,
    exact_regions_1d,
    kan_to_mlp,
    mlp_to_kan,
    monomial_relu_to_spline_kan,
    save,
)
from kanrelu import core, regions
from kanrelu.regions import Complex1D, Piece

from conftest import DECIMALS, decimal_kans, decimal_pls, random_kan, random_pl

INF = math.inf
NAN = math.nan


_NAN_BITS = struct.pack("<d", NAN)


def bits(values):
    """Each value's bytes, with every NaN as one pattern.

    CPython does not fix the sign of a NaN: on 3.11 adding two NaNs can
    return either operand's NaN, depending on whether the ``+`` has been
    specialized yet.  NaN positions, ``±0.0``, ``±inf`` and every other bit
    are still compared.
    """
    return tuple(_NAN_BITS if v != v else struct.pack("<d", v) for v in values)


def dense_apply(layer, x):
    v = tuple(float(t) for t in x)
    out = []
    for row, bias in zip(layer.weight, layer.bias):
        acc = 0.0
        for w, t in zip(row, v):
            acc += w * t
        acc += bias
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
    for layer in kan.layers:
        out = []
        for row in layer.activations:
            acc = 0.0
            for p, act in enumerate(row):
                acc += act(v[p])
            out.append(acc)
        v = tuple(out)
    return v


def outcome(f, *args):
    """The bits ``f`` returns, or the DomainError it raises."""
    try:
        return bits(f(*args))
    except DomainError as e:
        return repr(e)


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
def _layers(draw, weights=_WEIGHTS, inputs=_INPUTS):
    n_in = draw(st.integers(1, 6))
    n_out = draw(st.integers(1, 6))
    zero_rows = draw(st.sets(st.integers(0, n_out - 1)))
    zero_cols = draw(st.sets(st.integers(0, n_in - 1)))
    weight = [
        [
            draw(st.sampled_from([0.0, -0.0])) if q in zero_rows or p in zero_cols else draw(weights)
            for p in range(n_in)
        ]
        for q in range(n_out)
    ]
    # copied rows share one sum in the grouped view; a copy may negate
    # every weight of its source or flip the sign of its zeros, and every
    # row draws its own bias
    rows = st.integers(0, n_out - 1)
    copies = st.lists(st.tuples(rows, rows, st.booleans(), st.booleans()), max_size=n_out)
    for q, src, negate, flip_zeros in draw(copies):
        weight[q] = [-w if negate or (flip_zeros and w == 0.0) else w for w in weight[src]]
    bias = tuple(draw(weights) for _ in range(n_out))
    activation = draw(st.sampled_from([Activation.RELU, Activation.IDENTITY]))
    layer = MlpLayer(weight, bias, activation)
    x = tuple(draw(inputs) for _ in range(n_in))
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
        assert layer.summation_rows(True) == ((((2, 2.0),), ((0, -1.0), (2, 0.5))), 0, ((0, 0.0), (1, 0.0)))

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
        rows, pairs, index_bias = layer.summation_rows(True)
        assert rows == (
            ((0, 1.5), (2, -2.0)), (), ((0, 1.5), (2, 2.0)), ((1, 1.5), (2, -2.0))
        )
        assert pairs == 0
        assert index_bias == tuple(zip((0, 1, 0, 1, 2, 0, 3), layer.bias))
        for x in [(0.1, 0.2, 0.3), (-0.0, 1e308, -1e308), (1e-320, -0.0, 0.0), (INF, 0.0, 1.0)]:
            assert bits(layer.apply(x)) == bits(dense_apply(layer, x))
        for x in [(0.1, 0.2, 0.3), (-0.0, 1e308, -1e308), (1e-320, -0.0, 0.0)]:
            check_kernel(layer, x)

    def test_negated_rows_share_one_sum(self):
        # sums that are exactly zero, overflow to ±inf or are subnormal
        tiny = 5e-324
        weight = (
            (1.0, -1.0, 0.0),
            (-1.0, 1.0, -0.0),
            (1e308, 1e308, 0.0),
            (-1e308, -1e308, 0.0),
            (0.0, tiny, -tiny),
            (-0.0, -tiny, tiny),
            (0.0, 0.0, 0.0),
            (-0.0, -0.0, -0.0),
            (-2.0, 0.0, 3.0),
        )
        bias = (-0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -0.0, 0.0, -0.0)
        rows, pairs, index_bias = MlpLayer(weight, bias, Activation.IDENTITY).summation_rows(True)
        assert rows == (
            ((0, 1.0), (1, -1.0)), ((0, 1e308), (1, 1e308)), ((1, tiny), (2, -tiny)), (), ((0, -2.0), (2, 3.0))
        )
        assert pairs == 3
        assert [j for j, _ in index_bias] == [0, 5, 1, 6, 2, 7, 3, 3, 4]
        inputs = [
            (0.5, 0.5, 1.0), (1.0, 1.0, -1.0), (-1.0, -1.0, 0.25), (0.0, 3.0, 1.0), (-0.0, 0.5, 1.0), (1.0, 3.0, -2.0)
        ]
        for activation in Activation:
            layer = MlpLayer(weight, bias, activation)
            for x in inputs:
                assert bits(layer.apply(x)) == bits(dense_apply(layer, x))
                check_kernel(layer, x)
            forms = [list(zip(x, reversed(x))) for x in inputs]
            assert _form_bits(apply_affine(forms, layer)) == _form_bits(dense_apply_affine(forms, layer))
        layer = MlpLayer(weight, bias, Activation.IDENTITY)
        out = layer.apply((0.5, 0.5, 1.0))
        assert bits(out[:2]) == bits((0.0, 0.0))
        assert layer.apply((1.0, 1.0, -1.0))[2:4] == (INF, -INF)
        assert bits(layer.apply((0.0, 3.0, 1.0))[4:6]) == bits((2 * tiny, -2 * tiny))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_conversion_sums_half_the_distinct_hidden_rows(self, seed):
        kan = random_kan(random.Random(seed), max_width=3, max_depth=3, max_segments=4)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        for layer in mlp.layers[:-1]:
            rows, pairs, _ = layer.summation_rows(True)
            distinct = {tuple((p, w) for p, w in enumerate(row) if w != 0.0) for row in layer.weight}
            assert 2 * len(rows) == 2 * pairs == len(distinct)

    def test_row_view_is_built_on_first_use_only(self, tmp_path):
        kan = random_kan(random.Random(5), input_dim=2, output_dim=1, max_width=3)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        back = mlp_to_kan(mlp)
        count_params_kan(kan), count_params_mlp(mlp), count_params_kan(back)
        for name, model in (("kan", kan), ("mlp", mlp), ("back", back)):
            save(model, tmp_path / f"{name}.json")
        caches = {Mlp: ("_grouped_rows",), Kan: ("live_columns",)}

        def built(model):
            return [name in vars(layer) for layer in model.layers for name in caches[type(model)]]

        models = (kan, mlp, back)
        assert not any(chain.from_iterable(map(built, models)))
        before = [(repr(m), hash(m)) for m in models]
        for model in models:
            model.evaluate((0.5, -0.25))
        assert all(chain.from_iterable(map(built, models)))
        assert [(repr(m), hash(m)) for m in models] == before
        assert mlp == kan_to_mlp(kan, ConversionMode.EXACT)
        assert back == mlp_to_kan(kan_to_mlp(kan, ConversionMode.EXACT))

    def test_overflowing_input_sum_takes_the_ungrouped_rows(self):
        # every input is finite, but their sum is not
        layer = MlpLayer(
            ((1e-10, 0.0, 2.0), (1e-10, -0.0, 2.0), (0.0, 0.0, 0.0), (0.5, 0.5, 0.0)),
            (0.0, -1.0, -0.0, 0.5),
            Activation.IDENTITY,
        )
        for x in [(1e308, 1e308, 0.5), (-1e308, -1e308, 0.5), (1e308, 1e308, -0.0)]:
            with mock.patch.object(
                MlpLayer, "summation_rows", autospec=True, side_effect=MlpLayer.summation_rows
            ) as rows:
                out = layer.apply(x)
            rows.assert_called_once_with(layer, False)
            assert bits(out) == bits(dense_apply(layer, x))

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


def _unit_forms(sums, active, units):
    """Each unit's form on one interval, as the per-unit extractor has it."""
    return [(sums[j][0], sums[j][1] + bias) if on else (0.0, 0.0) for (j, bias), on in zip(units, active)]


def apply_affine(forms, layer, active=None):
    """``regions._apply_affine`` on per-unit ``forms`` whose unit ``i`` is
    active where ``active[k][i]`` (everywhere by default), as per-unit forms.

    Each input unit reads its own form with the bias -0.0, which adds
    nothing, so the step sees ``forms`` as they are.
    """
    units = [(i, -0.0) for i in range(len(forms[0]))]
    active = active or [[True] * len(units)] * len(forms)
    sums, out_units = regions._apply_affine(forms, active, units, layer)
    return [_unit_forms(s, [True] * len(out_units), out_units) for s in sums]


def reference_forms_1d(mlp):
    """The per-unit extractor: the cuts and each interval's unit forms of a
    1-input ``mlp``, before any pieces merge, and each layer's finite
    decision.

    Every interval carries one form per unit, every layer sums them with
    the dense loop, and a ReLU cuts each unit's form at its own zero and
    sets an inactive form to ``(0.0, 0.0)``.  A layer's decision is whether
    every form it reads is finite, the test that chose between the grouped
    and the ungrouped rows.
    """
    cuts, forms, decisions = [], [[(1.0, 0.0)]], []
    for layer in mlp.layers:
        decisions.append(all(map(math.isfinite, chain.from_iterable(chain.from_iterable(forms)))))
        forms = dense_apply_affine(forms, layer)
        if layer.activation is not Activation.RELU:
            continue
        candidates = []
        for i, interval_forms in enumerate(forms):
            lo = -INF if i == 0 else cuts[i - 1]
            hi = INF if i == len(cuts) else cuts[i]
            for a, b in interval_forms:
                if a != 0.0 and lo < (root := (0.0 - b) / a) < hi:
                    candidates.append(root)
        if candidates:
            new_cuts = regions._merge_cuts(cuts, candidates)
            forms = [list(forms[bisect_right(cuts, regions._midpoint(new_cuts, i))]) for i in range(len(new_cuts) + 1)]
            cuts = new_cuts
        forms = [
            [(a, b) if a * m + b >= 0.0 else (0.0, 0.0) for a, b in interval_forms]
            for interval_forms, m in zip(forms, [regions._midpoint(cuts, i) for i in range(len(forms))])
        ]
    return cuts, forms, decisions


def reference_regions_1d(mlp, normalize=True):
    """The per-unit extractor's complex, keeping every piece unless ``normalize``."""
    cuts, forms, _ = reference_forms_1d(mlp)
    if normalize:
        cuts, forms = regions._normalize(cuts, forms)
    return Complex1D(tuple(cuts), tuple(Piece(tuple(a for a, _ in f), tuple(b for _, b in f)) for f in forms))


def _regions(net, normalize):
    """``exact_regions_1d``, keeping every piece unless ``normalize``."""
    merge = regions._normalize if normalize else lambda cuts, forms: (cuts, forms)
    with mock.patch.object(regions, "_normalize", merge):
        return exact_regions_1d(net)


def regions_outcome(f, *args):
    """``repr`` of the complex ``f`` returns, or the ``ValidationError`` it raises."""
    try:
        return repr(f(*args))
    except ValidationError as e:
        return repr(e)


def check_regions(mlp, normalize=True):
    """``exact_regions_1d`` of ``mlp`` against the per-unit extractor: the
    same ``repr`` or the same error, with the rows of each layer chosen by
    the same finite decision.  Returns the outcome."""
    with mock.patch.object(
        MlpLayer, "summation_rows", autospec=True, side_effect=MlpLayer.summation_rows
    ) as rows:
        got = regions_outcome(_regions, mlp, normalize)
    assert got == regions_outcome(reference_regions_1d, mlp, normalize)
    assert [c.args[1] for c in rows.call_args_list] == reference_forms_1d(mlp)[2]
    return got


@st.composite
def _layers_and_forms(draw):
    """A layer, per-unit input forms on up to three intervals and each
    unit's activity flag there."""
    layer, _ = draw(_layers())
    form = st.tuples(_INPUTS, _INPUTS)
    intervals = draw(st.lists(st.lists(form, min_size=layer.n_in, max_size=layer.n_in), min_size=1, max_size=3))
    active = [[draw(st.booleans()) for _ in range(layer.n_in)] for _ in intervals]
    return layer, intervals, active


def _form_bits(forms):
    return [bits(v for form in interval_forms for v in form) for interval_forms in forms]


class TestApplyAffine:
    @given(_layers_and_forms())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_loop_bit_for_bit(self, case):
        # an inactive unit is (0.0, 0.0) to the dense loop, and is skipped
        layer, forms, active = case
        inputs = [[form if on else (0.0, 0.0) for form, on in zip(f, flags)] for f, flags in zip(forms, active)]
        assert _form_bits(apply_affine(forms, layer, active)) == _form_bits(dense_apply_affine(inputs, layer))


# Weights of random 1-input MLPs: signed zeros, units, 3-decimal values,
# and entries whose products and sums pass max/2 and overflow to inf,
# after which a zero weight or a cancelling sum makes NaN; a sum of 5e307,
# within max/2, overflows with a bias of 1.5e308
_MLP_WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 5e307, -5e307, 1.5e308, -1.5e308]),
    DECIMALS,
)


@st.composite
def _random_mlps(draw):
    """A 1-input MLP whose rows may repeat or negate an earlier row of their layer."""
    widths = [1] + [draw(st.integers(1, 5)) for _ in range(draw(st.integers(1, 3)))] + [1]
    layers = []
    for k, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        weight = []
        for _ in range(n_out):
            copy = draw(st.none() | st.tuples(st.integers(0, 10**6), st.booleans()))
            if copy and weight:
                row = weight[copy[0] % len(weight)]
                weight.append([-w for w in row] if copy[1] else row)
            else:
                weight.append([draw(_MLP_WEIGHTS) for _ in range(n_in)])
        bias = [draw(_MLP_WEIGHTS) for _ in range(n_out)]
        last = k == len(widths) - 2
        layers.append(MlpLayer(weight, bias, Activation.IDENTITY if last else Activation.RELU))
    return Mlp(tuple(layers))


class TestExactRegions1D:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(ConversionMode)), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_converted_network_matches_dense_affine(self, seed, mode, normalize):
        kan = random_kan(random.Random(seed), input_dim=1, max_width=3, max_depth=3, max_segments=5)
        mlp = kan_to_mlp(kan, mode)
        got = _regions(mlp, normalize)
        assert got == reference_regions_1d(mlp, normalize)
        assert check_regions(mlp, normalize) == repr(got)

    @given(_random_mlps(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_network_matches_per_unit_extractor(self, mlp, normalize):
        check_regions(mlp, normalize)

    @given(_INPUTS, _WEIGHTS | st.sampled_from([5e-324, 1e308, -1e308]))
    @settings(max_examples=500)
    def test_a_unit_crosses_zero_where_its_sum_crosses_minus_its_bias(self, b, bias):
        # the ReLU step's threshold for sum intercept b and unit bias bias
        assert bits([(0.0 - bias) - b]) == bits([0.0 - (b + bias)])

    def test_overflowed_forms_take_the_dense_loop(self):
        # slopes overflow to inf in the second layer; the third layer's zero
        # weight then turns them into nan, exactly as the dense loop does
        big = MlpLayer(((1e300,),), (0.0,), Activation.RELU)
        zero = MlpLayer(((0.0,), (1.0,)), (0.0, 0.0), Activation.RELU)
        out = MlpLayer(((1.0, 1.0),), (0.0,), Activation.IDENTITY)
        mlp = Mlp((big, big, zero, out))
        for forms in ([[(INF, 0.0)]], [[(0.0, -INF)], [(NAN, 1.0)], [(-INF, INF)]]):
            got = apply_affine(forms, zero)
            assert repr(got) == repr(dense_apply_affine(forms, zero))
            assert math.isnan(got[0][0][0] + got[0][0][1])
        assert check_regions(mlp, normalize=False) == repr(reference_regions_1d(mlp, normalize=False))


class TestFiniteDecision:
    """The grouped rows need every unit's form to be finite.  Row sums and
    biases within max/2 show it; past that, the active units' forms decide,
    as the per-unit extractor decides from every form."""

    def _decide(self, mlp):
        """Each layer's decision, checked against the per-unit extractor,
        and how many unit forms were built to make them: those beyond the
        output's, one per interval."""
        with mock.patch.object(regions, "_unit_forms", side_effect=regions._unit_forms) as unit_forms:
            check_regions(mlp, normalize=False)
        _, forms, decisions = reference_forms_1d(mlp)
        return decisions, unit_forms.call_count - len(forms)

    def test_sums_within_half_decide_without_unit_forms(self):
        first = MlpLayer(((1.0,), (-1.0,), (1.0,)), (0.0, 0.5, -0.5), Activation.RELU)
        out = MlpLayer(((1.0, -0.0, 2.0),), (0.25,), Activation.IDENTITY)
        decisions, calls = self._decide(Mlp((first, out)))
        assert (decisions, calls) == ([True, True], 0)

    @pytest.mark.parametrize(
        "first",
        [
            # a slope of 1e308 passes max/2
            MlpLayer(((1e308,), (-1.0,)), (0.0, 0.5), Activation.RELU),
            # a bias of 1.5e308 passes max/2, its unit's form (1.0, 1.5e308) does not overflow
            MlpLayer(((1.0,), (-1.0,)), (1.5e308, 0.0), Activation.RELU),
            # a bias of -1e308 passes max/2, and the second layer adds its
            # unit to a constant one of 0.75e308
            MlpLayer(((1.0,), (-0.0,)), (-1e308, 0.75e308), Activation.RELU),
        ],
    )
    def test_sums_past_half_with_finite_forms_take_the_grouped_rows(self, first):
        second = MlpLayer(((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)), (0.0, 0.0, 0.0), Activation.RELU)
        out = MlpLayer(((1.0, 0.0, 1.0),), (0.0,), Activation.IDENTITY)
        decisions, calls = self._decide(Mlp((first, second, out)))
        assert decisions == [True, True, True] and calls > 0

    def test_only_an_inactive_unit_past_the_range_takes_the_grouped_rows(self):
        # the second layer's second unit is (0.0, -1e308 - 1e308) = (0.0, -inf),
        # inactive everywhere, so the output reads it as (0.0, 0.0)
        first = MlpLayer(((1.0,), (0.0,)), (0.0, 1e308), Activation.RELU)
        second = MlpLayer(((1.0, 0.0), (0.0, -1.0)), (0.0, -1e308), Activation.RELU)
        out = MlpLayer(((1.0, 0.0),), (0.0,), Activation.IDENTITY)
        decisions, calls = self._decide(Mlp((first, second, out)))
        assert decisions == [True, True, True] and calls > 0
        # the same unit made active, (0.0, 1e308 + 1e308) = (0.0, inf), takes the
        # ungrouped rows, and its zero weight then makes NaN
        second = MlpLayer(((1.0, 0.0), (0.0, 1.0)), (0.0, 1e308), Activation.RELU)
        mlp = Mlp((first, second, out))
        assert self._decide(mlp)[0] == [True, True, False]
        assert all(math.isnan(piece.intercepts[0]) for piece in _regions(mlp, normalize=False).pieces)

    def test_a_sum_within_half_can_overflow_with_its_bias(self):
        # the second unit's sum, (0.0, 5e307), is within max/2, but its bias
        # of 1.5e308 is not, and (0.0, 5e307 + 1.5e308) is (0.0, inf)
        first = MlpLayer(((1.0,), (0.0,)), (0.0, 5e307), Activation.RELU)
        second = MlpLayer(((1.0, 0.0), (0.0, 1.0)), (0.0, 1.5e308), Activation.RELU)
        out = MlpLayer(((1.0, 0.0),), (0.0,), Activation.IDENTITY)
        assert self._decide(Mlp((first, second, out)))[0] == [True, True, False]


_ZERO_SPLINES = (
    PolySegmentSpline((), ((0.0,),), 0),
    PolySegmentSpline((), ((-0.0, 0.0),), 1),
    PolySegmentSpline((0.5,), ((0.0,), (-0.0, 0.0, 0.0)), 2),
)
_ZERO_PLS = (
    PiecewiseLinear((), (0.0,), 0.0),
    PiecewiseLinear((), (-0.0,), -0.0),
    PiecewiseLinear((0.5,), (0.0, -0.0), -0.0),
    # zero slopes and intercept, but 1e308 - (-1e308) is inf and 0.0 * inf is NaN
    PiecewiseLinear((-1e308, 0.0), (-0.0, 0.0, 0.0), 0.0),
)
_RELUS = {
    PolySegmentSpline: PolySegmentSpline((0.0,), ((0.0,), (0.0, 1.0)), 1),
    PiecewiseLinear: PiecewiseLinear((0.0,), (0.0, 1.0), 0.0),
}


@st.composite
def _kans(draw):
    """A PL or spline KAN with zero, ReLU and random activations, and an input."""
    spline = draw(st.booleans())

    def activation():
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return draw(st.sampled_from(_ZERO_SPLINES if spline else _ZERO_PLS))
        if kind == 1:
            return _RELUS[PolySegmentSpline if spline else PiecewiseLinear]
        if spline:
            coeffs = tuple(draw(_WEIGHTS) for _ in range(draw(st.integers(1, 4))))
            return PolySegmentSpline((), (coeffs,), len(coeffs) - 1)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        breakpoints = sorted(draw(st.sets(finite, max_size=3)))
        slopes = tuple(draw(_WEIGHTS) for _ in range(len(breakpoints) + 1))
        return PiecewiseLinear(tuple(breakpoints), slopes, draw(_WEIGHTS))

    widths = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 4)))]
    layers = tuple(
        KanLayer(tuple(tuple(activation() for _ in range(n_in)) for _ in range(n_out)))
        for n_in, n_out in zip(widths, widths[1:])
    )
    x = tuple(draw(_INPUTS) for _ in range(widths[0]))
    return (SplineKan if spline else Kan)(layers), x


class TestAsVector:
    def test_tuple_of_floats_is_not_copied(self):
        x = (0.5, -0.0, INF)
        assert core._as_vector(x, 3, "x") is x

    @pytest.mark.parametrize("x", [[0.5, -0.0], (1, -0.0), (True, 0.5), (0.5, False)], ids=repr)
    def test_other_input_is_converted(self, x):
        v = core._as_vector(x, 2, "x")
        assert type(v) is tuple and [type(t) for t in v] == [float, float]
        assert bits(v) == bits(float(t) for t in x)
        layer = MlpLayer(((1.0, -1.0),), (0.0,), Activation.IDENTITY)
        assert bits(layer.apply(x)) == bits(layer.apply(v))

    @pytest.mark.parametrize("x", [(0.5,), (0.5, 1.0, 2.0), [0.5], ()])
    def test_wrong_length_raises(self, x):
        with pytest.raises(ShapeError, match="expected length 2"):
            core._as_vector(x, 2, "x")
        with pytest.raises(ShapeError):
            MlpLayer(((1.0, -1.0),), (0.0,), Activation.IDENTITY).apply(x)
        with pytest.raises(ShapeError):
            KanLayer(((_RELUS[PiecewiseLinear],) * 2,)).apply(x)


class TestSplineKanEvaluate:
    """``KanLayer.apply`` through ``SplineKan`` and ``Kan``, against the full grid loop."""

    @given(_kans())
    @settings(max_examples=400, deadline=None)
    def test_matches_full_grid_loop_bit_for_bit(self, case):
        kan, x = case
        assert outcome(kan.evaluate, x) == outcome(full_grid_evaluate, kan, x)

    def test_zero_activation_at_inf_is_nan(self):
        kan = SplineKan((KanLayer(((_ZERO_SPLINES[0], PolySegmentSpline((), ((1.0,),), 0)),)),))
        assert math.isnan(kan.evaluate((INF, 0.0))[0])
        assert kan.layers[0].live_columns == ((1,),)
        # a zero PL activation still raises at a non-finite input
        kan = Kan((KanLayer(((_ZERO_PLS[0], _RELUS[PiecewiseLinear]),)),))
        assert kan.layers[0].live_columns == ((1,),)
        with pytest.raises(DomainError, match="inf"):
            kan.evaluate((INF, 0.0))
        # and one whose x - b can overflow is never skipped
        kan = Kan((KanLayer(((_ZERO_PLS[3], _RELUS[PiecewiseLinear]),)),))
        assert kan.layers[0].live_columns == ((0, 1),)
        assert math.isnan(kan.evaluate((1e308, 0.0))[0])
        assert bits(kan.evaluate((-1e308, 2.0))) == bits((2.0,))

    @pytest.mark.parametrize("kind", [PiecewiseLinear, PolySegmentSpline], ids=lambda k: k.__name__)
    def test_overflowing_input_sum_visits_every_activation(self, kind):
        # every input is finite, but their sum is not
        if kind is PiecewiseLinear:
            zero, other = _ZERO_PLS[2], PiecewiseLinear((-1.0, 2.0), (0.5, -1e-300, 3.0), 1.0)
        else:
            zero, other = _ZERO_SPLINES[2], PolySegmentSpline((), ((1.0, -1e-300, 2.0),), 2)
        relu = _RELUS[kind]
        layer = KanLayer(((relu, zero, other), (zero, zero, zero), (other, relu, zero)))
        kan = (SplineKan if kind is PolySegmentSpline else Kan)((layer,))
        for x in [(1e308, 1e308, 0.5), (-1e308, -1e308, 0.5), (0.5, 1e308, 1e308)]:
            with mock.patch.object(kind, "evaluate", autospec=True, side_effect=kind.evaluate) as calls:
                out = layer.apply(x)
            assert calls.call_count == 9
            assert bits(out) == bits(full_grid_evaluate(kan, x))

    def test_live_columns_ask_each_shared_activation_once(self, monkeypatch):
        # fresh objects: the shared module-level ones may hold a cached answer
        calls = []

        def counted(plain):
            def is_zero(act):
                calls.append(act)
                return plain(act)
            return is_zero

        for kind in (PiecewiseLinear, PolySegmentSpline):
            cached = vars(kind)["is_zero"]
            monkeypatch.setattr(cached, "func", counted(cached.func))
        for zero, relu in [
            (PiecewiseLinear((), (0.0,), 0.0), PiecewiseLinear((0.0,), (0.0, 1.0), 0.0)),
            (PolySegmentSpline((), ((0.0,),), 0), PolySegmentSpline((0.0,), ((0.0,), (0.0, 1.0)), 1)),
        ]:
            calls.clear()
            layer = KanLayer(((zero, relu, zero), (relu, zero, relu), (zero, zero, zero)))
            assert layer.live_columns == ((1,), (0, 2), ())
            assert calls == [zero, relu]
            # the answer is cached on the activation, not on the layer
            assert KanLayer(((relu, zero),)).live_columns == ((0,),)
            assert len(calls) == 2

    def test_lowered_bspline_matches_full_grid_loop(self):
        rng = random.Random(3)
        knots = [-3.0 + 0.3 * i for i in range(20)]
        spline = bspline_from_knots(knots, [rng.uniform(-1.0, 1.0) for _ in range(16)], 3)
        kan = monomial_relu_to_spline_kan(bspline_to_monomial_relu(spline))
        live = sum(len(row) for layer in kan.layers for row in layer.live_columns)
        total = sum(layer.n_in * layer.n_out for layer in kan.layers)
        assert live < total // 10
        for x in [-4.0, -0.0, 0.0, 0.31, 2.5, 1e200, INF, -INF, NAN]:
            assert bits(kan.evaluate((x,))) == bits(full_grid_evaluate(kan, (x,)))

    def test_lifted_kan_matches_full_grid_loop(self):
        # zero MLP weights lift to zero activations with either sign of zero
        source = random_kan(random.Random(11), input_dim=3, output_dim=2, max_width=3, max_depth=2)
        kan = mlp_to_kan(kan_to_mlp(source, ConversionMode.EXACT))
        live = sum(len(row) for layer in kan.layers for row in layer.live_columns)
        assert live < sum(layer.n_in * layer.n_out for layer in kan.layers) // 2
        rng = random.Random(12)
        for _ in range(20):
            x = tuple(rng.uniform(-4.0, 4.0) for _ in range(3))
            assert bits(kan.evaluate(x)) == bits(full_grid_evaluate(kan, x))
        for x in [(INF, 0.0, 1.0), (0.0, NAN, 1.0), (1e308, -1e308, 0.0)]:
            assert outcome(kan.evaluate, x) == outcome(full_grid_evaluate, kan, x)


def compiled(layer):
    """``layer``'s kernel, compiled now, whatever its call count or size."""
    return core._build_kernel(layer.n_in, layer._kernel_lines())


def pl_dense_apply(layer, x):
    return full_grid_evaluate(Kan((layer,)), x)


def dense_chain(net, x):
    reference = dense_apply if isinstance(net, Mlp) else pl_dense_apply
    for layer in net.layers:
        x = reference(layer, x)
    return x


_HALF = sys.float_info.max / 2


def check_kernel(layer, x, kernel=None):
    """``layer``'s ``kernel``, by default compiled now whatever its call
    count or size, at the finite input ``x`` against the dense loop.

    The kernel gives the loop's bits when they are all finite and None
    otherwise, so a kernel after it only ever gets finite inputs.  An MLP
    kernel whose every ``|bias|`` is at most half the float range tests its
    row sums instead, so it gives None exactly when a dense row sum, before
    the bias, lies outside ``±max/2``.
    """
    got = (kernel or compiled(layer))(*x)
    want = dense_apply(layer, x) if isinstance(layer, MlpLayer) else pl_dense_apply(layer, x)
    if rejects(layer, x, want):
        assert got is None
    else:
        assert got is not None and bits(got) == bits(want)
        assert all(map(math.isfinite, got))
    return got


def rejects(layer, x, out):
    """Whether ``layer``'s kernel gives None at the finite input ``x``,
    where the dense loop gives ``out``: when an output is not finite, or,
    for an MLP layer whose every ``|bias|`` is at most half the float
    range, when a dense row sum lies outside ``±max/2``."""
    if isinstance(layer, MlpLayer) and all(abs(b) <= _HALF for b in layer.bias):
        sums = dense_apply(MlpLayer(layer.weight, (0.0,) * layer.n_out, Activation.IDENTITY), x)
        return not all(-_HALF <= s <= _HALF for s in sums)
    return not all(map(math.isfinite, out))


def kernels(net):
    """The kernel per layer ``net`` decided on, or False when it compiled none."""
    return vars(net)["_kernels"]


def apply_until_compiled(net, x):
    """Evaluate ``net`` at ``x`` ``KERNEL_AFTER`` times, so it has decided."""
    for _ in range(core.KERNEL_AFTER):
        out = net.evaluate(x)
    return out


def compile_with(net, fits):
    """``net``'s kernels, compiled at its first evaluation, with the layers
    where ``fits`` is False taken as too big to compile."""
    size = {id(layer): 0 if fit else core.KERNEL_MAX_UNITS + 1 for layer, fit in zip(net.layers, fits)}
    units = property(lambda layer: size[id(layer)])
    with mock.patch.object(core, "KERNEL_AFTER", 1), mock.patch.object(type(net.layers[0]), "_kernel_units", units):
        net.evaluate((0.0,) * net.input_dim)
    return kernels(net)


def check_chain(net, fits, x):
    """The MLP ``net``'s kernels, compiled as ``fits`` says, at the finite input
    ``x`` against the dense loops of the whole chain.

    The kernels give None exactly where a layer's check fires on the dense
    input it gets, a compiled layer's as in ``check_kernel`` and a loop's
    when its outputs do not sum to a finite float, and the dense bits
    otherwise; ``evaluate`` gives the dense bits either way.
    """
    v, rejected = x, False
    for layer, fit in zip(net.layers, fits):
        out = dense_apply(layer, v)
        rejected = rejected or (rejects(layer, v, out) if fit else not math.isfinite(sum(out)))
        v = out
    y = x
    for kernel in kernels(net):
        if (y := kernel(*y)) is None:
            break
    assert (y is None) == rejected
    if y is not None:
        assert bits(y) == bits(v)
    assert bits(net.evaluate(x)) == bits(v)


_FINITE = st.one_of(
    DECIMALS,
    st.sampled_from([0.0, -0.0, 5e-324, -1e308, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestCompiledKernels:
    """Each kernel against the dense reference loops, called directly."""

    @given(_layers(weights=st.one_of(_WEIGHTS, DECIMALS), inputs=_FINITE))
    @settings(max_examples=400, deadline=None)
    def test_mlp_kernel_matches_dense_loop(self, case):
        # ±0.0 weights and biases, zero rows, r / -r pairs, repeated rows and
        # 3-decimal weights; any finite input, also one whose sum overflows
        layer, x = case
        check_kernel(layer, x)

    def test_long_rows_are_summed_in_chunks_left_to_right(self):
        rng = random.Random(4)
        n_in = 3 * core._KERNEL_TERMS + 5
        weight = [[rng.uniform(0.5, 1.0) for _ in range(n_in)]]
        weight += [[rng.choice([0.0, rng.uniform(-1.0, 1.0), round(rng.uniform(-3, 3), 3)]) for _ in range(n_in)]
                   for _ in range(2)]
        weight.append([-w for w in weight[0]])
        layer = MlpLayer(weight, (0.5, -0.0, 1e-3, 0.0), Activation.RELU)
        lines = layer._kernel_lines()
        assert sum(line.startswith("s0 = s0 + ") for line in lines) == 3
        for _ in range(20):
            x = tuple(rng.uniform(-1e3, 1e3) for _ in range(n_in))
            assert check_kernel(layer, x) is not None

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_pl_kernel_matches_dense_loop_on_breakpoints(self, data):
        n_in, n_out = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        # slopes of ±1e308 give slope changes of ±inf
        acts = st.one_of(decimal_pls(), decimal_pls(slopes=st.sampled_from([0.0, -0.0])),
                         decimal_pls(slopes=st.sampled_from([1e308, -1e308])), st.sampled_from(_ZERO_PLS))
        layer = KanLayer([[data.draw(acts) for _ in range(n_in)] for _ in range(n_out)])
        # each coordinate on one of its column's breakpoints, or anywhere
        x = tuple(
            data.draw(st.one_of(st.sampled_from(points), _FINITE) if (points := sorted(
                {b for row in layer.activations for b in row[p].breakpoints})) else _FINITE)
            for p in range(n_in)
        )
        check_kernel(layer, x)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(ConversionMode)))
    @settings(max_examples=30, deadline=None)
    def test_converted_layers_match_dense_loops(self, seed, mode):
        rng = random.Random(seed)
        kan = random_kan(rng, max_width=3, max_depth=3, max_segments=4)
        mlp = kan_to_mlp(kan, mode)
        x = tuple(rng.uniform(-4.0, 4.0) for _ in range(kan.input_dim))
        for net, reference in ((kan, pl_dense_apply), (mlp, dense_apply), (mlp_to_kan(mlp), pl_dense_apply)):
            v = x
            for layer in net.layers:
                assert check_kernel(layer, v) is not None
                v = reference(layer, v)

    def test_overflowing_output_takes_the_loop_in_the_next_layer(self):
        # finite inputs give finite sums in layer 0, whose outputs overflow
        big = MlpLayer(((1e308, 1e308), (1.0, -1.0)), (0.0, 0.0), Activation.RELU)
        zero = MlpLayer(((0.0, 1.0), (-0.0, -1.0), (2.0, 0.0)), (0.0, 1.0, -0.0), Activation.IDENTITY)
        mlp = Mlp((big, zero))
        apply_until_compiled(mlp, (0.25, 0.5))
        assert all(kernel.__name__ == "kernel" for kernel in kernels(mlp))
        for x in [(1.0, 1.0), (1e308, 0.0), (0.25, 0.5)]:
            assert bits(mlp.evaluate(x)) == bits(dense_chain(mlp, x))
        # 0.0 * inf is NaN in the loop; a kernel skipping the zeros would give 0.0 and 1.0
        assert bits(mlp.evaluate((1.0, 1.0))) == bits((NAN, NAN, INF))
        grow = KanLayer(((PiecewiseLinear((), (1e308,), 0.0), PiecewiseLinear((), (1e308,), 0.0)),))
        kan = Kan((grow, KanLayer(((_RELUS[PiecewiseLinear],),))))
        apply_until_compiled(kan, (0.5, 0.25))
        assert all(kernel.__name__ == "kernel" for kernel in kernels(kan))
        with pytest.raises(DomainError, match="inf"):
            kan.evaluate((1.0, 1.0))

    @pytest.mark.parametrize("x", [(INF, 0.0), (0.0, -INF), (NAN, 1.0), (INF, -INF)], ids=repr)
    def test_non_finite_input_takes_the_loop(self, x):
        rng = random.Random(6)
        kan = random_kan(rng, input_dim=2, output_dim=2, max_width=3, max_depth=2)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        for net in (kan, mlp):
            apply_until_compiled(net, (0.5, -0.25))
            assert all(kernel.__name__ == "kernel" for kernel in kernels(net))
        with pytest.raises(DomainError):
            kan.evaluate(x)
        assert bits(mlp.evaluate(x)) == bits(dense_chain(mlp, x))
        # no ReLU after the last layer: the NaN of 0.0 * inf shows
        last = Mlp((MlpLayer(((0.0, 1.0), (1.0, -0.0), (0.5, 0.5)), (0.0, -0.0, 1.0), Activation.IDENTITY),))
        apply_until_compiled(last, (0.5, -0.25))
        assert callable(kernels(last)[0])
        got = last.evaluate(x)
        assert bits(got) == bits(dense_chain(last, x))
        assert [math.isnan(got[0]), math.isnan(got[1])] == [
            not math.isfinite(x[0]), not math.isfinite(x[1]) or math.isnan(x[0])
        ]

    def test_mlp_hidden_overflow_reruns_through_the_loops(self):
        # layer 0 row 0: a sum past max/2 under small biases, so its kernel
        # gives None even where the output is finite; layer 1: a bias past
        # max/2, so its kernel tests each output; layer 2 reads every column
        # with a zero weight somewhere, which is NaN at inf in the loop
        sums = MlpLayer(((1e308, 0.0), (0.0, 1.0), (-1e308, 0.0)), (-8e307, 0.0, 8e307), Activation.RELU)
        biased = MlpLayer(((1.0, 0.0, 0.0), (0.0, 1e308, 0.0), (0.0, 0.0, 1.0)), (1.5e308, 0.0, -1.5e308),
                          Activation.RELU)
        assert [all(abs(b) <= _HALF for b in layer.bias) for layer in (sums, biased)] == [True, False]
        last = MlpLayer(((0.0, 1.0, 0.0), (1.0, 0.0, -0.0), (-0.0, 0.0, 2.0)), (0.0, 0.5, -0.0), Activation.IDENTITY)
        mlp = Mlp((sums, MlpLayer(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0),
                                  Activation.RELU), biased, last))
        points = [(0.25, 0.5), (1.0, 0.5), (0.5, 1.0), (0.5, 2.0), (-1.0, 2.0), (0.9, -3.0), (0.1, 1e-300)]
        want = [bits(dense_chain(mlp, x)) for x in points]
        apply_until_compiled(mlp, points[0])
        assert all(kernel.__name__ == "kernel" for kernel in kernels(mlp))
        assert [bits(mlp.evaluate(x)) for x in points] == want
        for layer, x in ((sums, (1.0, 0.5)), (biased, (5e307, 0.0, 0.0)), (biased, (0.0, 2.0, 0.0))):
            assert check_kernel(layer, x) is None
        # the row sum 1e308 is past max/2, but its output 2e307 is finite
        assert bits(dense_apply(sums, (1.0, 0.5))) == bits((1e308 - 8e307, 0.5, 0.0))
        # inf in layer 2's output meets a zero weight of layer 3: NaN, as in the loop
        assert math.isnan(mlp.evaluate((0.5, 2.0))[1])

    def test_kan_intermediate_overflow_still_raises(self):
        # two finite activations whose sum overflows feed a layer whose
        # only activation at that column is zero: the loop visits it at inf
        # and raises, where a kernel skipping it would give a number
        grow = KanLayer(((PiecewiseLinear((), (1e308,), 0.0), PiecewiseLinear((), (1e308,), 0.0)),
                         (_RELUS[PiecewiseLinear], _ZERO_PLS[0])))
        read = KanLayer(((_ZERO_PLS[1], _RELUS[PiecewiseLinear]),))
        kan = Kan((grow, read))
        assert read.live_columns == ((1,),)
        apply_until_compiled(kan, (0.5, 0.25))
        assert all(kernel.__name__ == "kernel" for kernel in kernels(kan))
        assert check_kernel(grow, (1.0, 1.0)) is None
        for x in [(1.0, 1.0), (-1.0, -0.9)]:
            with pytest.raises(DomainError, match="inf"):
                full_grid_evaluate(kan, x)
            with pytest.raises(DomainError, match="inf"):
                kan.evaluate(x)
        assert bits(kan.evaluate((0.5, -0.5))) == bits(dense_chain(kan, (0.5, -0.5)))

    def test_many_kinks_nest_in_chunks(self):
        rng = random.Random(10)
        breakpoints = sorted(rng.sample(range(-10**6, 10**6), 250))
        act = PiecewiseLinear(tuple(b / 1000 for b in breakpoints),
                              tuple(round(rng.uniform(-3.0, 3.0), 3) for _ in range(251)), 0.5)
        layer = KanLayer(((act, _RELUS[PiecewiseLinear]),))
        lines = layer._kernel_lines()
        # 250 tests in chunks of _KERNEL_NEST, each chunk's first at the top level
        assert max(len(line) - len(line.lstrip(" ")) for line in lines) == core._KERNEL_NEST
        chunks = -(-250 // core._KERNEL_NEST)
        assert sum(line.startswith("if ") and line.endswith("<= x0:") for line in lines) == chunks
        kan = Kan((layer,))
        apply_until_compiled(kan, (0.0, 0.0))
        assert callable(kernels(kan)[0])
        points = [x for b in act.breakpoints for x in (math.nextafter(b, -INF), b, math.nextafter(b, INF))]
        kernel = kernels(kan)[0]
        for x in points + [-1e4, 1e4, -0.0]:
            assert check_kernel(layer, (x, x), kernel) is not None
            assert bits(kan.evaluate((x, -x))) == bits(dense_chain(kan, (x, -x)))

    def test_a_wide_layer_takes_its_inputs_as_arguments(self):
        rng = random.Random(11)
        n_in = 300
        mlp_layer = MlpLayer([[rng.choice([0.0, round(rng.uniform(-1.0, 1.0), 3)]) for _ in range(n_in)]
                              for _ in range(3)], (0.5, -0.0, 1.0), Activation.IDENTITY)
        kan_layer = KanLayer((tuple(random_pl(rng, segments=3) for _ in range(n_in)),))
        points = [tuple(rng.uniform(-4.0, 4.0) for _ in range(n_in)) for _ in range(3)]
        for net in (Mlp((mlp_layer,)), Kan((kan_layer,))):
            apply_until_compiled(net, points[0])
            assert callable(kernels(net)[0])
            for x in points:
                assert check_kernel(net.layers[0], x) is not None
                assert bits(net.evaluate(x)) == bits(dense_chain(net, x))


# Entries of random MLPs: signed zeros, units, the smallest subnormal,
# 3-decimal values, and entries past max/2, whose products, sums and
# outputs overflow
_CHAIN_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 8e307, -8e307, 1e308, -1e308, 1.5e308, -1.5e308]),
    DECIMALS,
)


@st.composite
def _chains(draw):
    """A 1-4-layer MLP whose rows may repeat or negate an earlier row of their
    layer and whose columns may be all zero."""
    widths = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 5)))]
    layers = []
    for k, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        # about one column in four is all zero
        zero_cols = {p for p in range(n_in) if draw(st.integers(0, 3)) == 0}
        weight = []
        for _ in range(n_out):
            repeat = draw(st.none() | st.tuples(st.integers(0, 10**6), st.booleans()))
            if repeat and weight:
                row = weight[repeat[0] % len(weight)]
                weight.append([-w for w in row] if repeat[1] else row)
            else:
                weight.append([draw(st.sampled_from([0.0, -0.0]) if p in zero_cols else _CHAIN_ENTRIES)
                               for p in range(n_in)])
        # a bias past max/2 makes a kernel test each active unit's output
        bias = [draw(_CHAIN_ENTRIES | st.sampled_from([1e308, 1.5e308])) for _ in range(n_out)]
        last = k == len(widths) - 2
        layers.append(MlpLayer(weight, bias, Activation.IDENTITY if last else Activation.RELU))
    return Mlp(tuple(layers))


@st.composite
def _unit_thresholds(draw):
    """A finite bias ``b`` and a sum ``s`` anywhere, also next to ``-b``."""
    edges = [0.0, 5e-324, 2.2250738585072014e-308, 1.0, _HALF, math.nextafter(_HALF, INF),
             math.nextafter(_HALF, 0.0), sys.float_info.max]
    edges += [-v for v in edges]
    b = draw(st.one_of(st.sampled_from(edges), st.floats(allow_nan=False, allow_infinity=False)))
    near = [math.nextafter(-b, -INF), -b, math.nextafter(-b, INF)]
    s = draw(st.one_of(st.sampled_from(edges + near + [INF, -INF, NAN]), st.floats()))
    return s, b


class TestLinkedKernels:
    """Between two compiled MLP layers the kernels pass the second one's
    kept row sums: each active unit adds into them and an inactive one is
    skipped.  The whole chain of kernels is checked against the dense loops."""

    @given(
        st.one_of(_chains(), st.builds(kan_to_mlp, decimal_kans(), st.sampled_from(list(ConversionMode)))),
        st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_chain_matches_dense_chain(self, mlp, data):
        # every layer compiled, or a loop layer anywhere, also on either
        # side of a compiled one
        n = len(mlp.layers)
        fits = data.draw(st.one_of(st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n).filter(any)))
        compile_with(mlp, fits)
        for x in data.draw(st.lists(st.tuples(*[_FINITE] * mlp.input_dim), min_size=1, max_size=4)):
            check_chain(mlp, fits, x)

    def test_a_unit_with_no_outgoing_weight_is_checked_past_half(self):
        # unit 0's output 1e308 + 1e308 overflows; the output layer's weight
        # on it is zero, and 0.0 * inf is NaN in the loop, so the first
        # kernel gives None although no sum it passes on reads that unit
        first = MlpLayer(((1.0,), (1.0,)), (1e308, -1e308), Activation.RELU)
        out = MlpLayer(((0.0, 1.0),), (0.0,), Activation.IDENTITY)
        mlp = Mlp((first, out))
        first_kernel, _ = compile_with(mlp, [True, True])
        assert first_kernel(1e308) is None
        assert bits(first_kernel(0.5)) == bits((0.0,))
        assert math.isnan(mlp.evaluate((1e308,))[0])
        for x in [0.5, 1e308, -1e308, 5e307, -0.0]:
            check_chain(mlp, [True, True], (x,))

    @given(_unit_thresholds())
    @settings(max_examples=300, deadline=None)
    def test_a_unit_is_active_where_its_sum_passes_minus_its_bias(self, case):
        # the kernels test s > -b where the loop tests s + b > 0.0
        s, b = case
        assert (s > -b) == (s + b > 0.0)


def _square_kan(width, depth, segments, rng):
    """A width/depth/segments KAN: ``depth`` layers of ``width`` × ``width`` activations."""
    return Kan(tuple(
        KanLayer(tuple(tuple(random_pl(rng, segments=segments) for _ in range(width)) for _ in range(width)))
        for _ in range(depth)
    ))


class TestTiering:
    def test_one_evaluate_compiles_nothing(self):
        kan = _square_kan(8, 3, 8, random.Random(1))
        for net in (kan, kan_to_mlp(kan, ConversionMode.EXACT), kan_to_mlp(kan, ConversionMode.PAPER)):
            net.evaluate((0.5,) * 8)
            assert vars(net)["_calls"] == 1 and "_kernels" not in vars(net)
            assert not any("_kernel" in name for layer in net.layers for name in vars(layer))

    @pytest.mark.parametrize("kind", ["mlp", "kan"])
    def test_the_kernel_comes_at_the_threshold(self, kind):
        kan = random_kan(random.Random(2), input_dim=2, output_dim=1, max_width=3, max_depth=2)
        net = kan_to_mlp(kan, ConversionMode.EXACT) if kind == "mlp" else kan
        x = (0.25, -1.5)
        want = bits(net.evaluate(x))
        # non-finite evaluations are not counted
        for bad in [(INF, 0.0), (NAN, 0.0), (1e308, 1e308)]:
            try:
                net.evaluate(bad)
            except DomainError:
                pass
        assert vars(net)["_calls"] == 1
        for _ in range(core.KERNEL_AFTER - 2):
            assert bits(net.evaluate(x)) == want
        assert vars(net)["_calls"] == core.KERNEL_AFTER - 1 and "_kernels" not in vars(net)
        with mock.patch.object(core, "_build_kernel", wraps=core._build_kernel) as build:
            assert bits(net.evaluate(x)) == want
            assert bits(net.evaluate(x)) == want
        assert build.call_count == len(net.layers)
        assert all(kernel.__name__ == "kernel" for kernel in kernels(net))

    def test_a_layer_over_the_ceiling_never_compiles(self):
        rng = random.Random(3)
        n_in, n_out = 96, 90
        assert n_in * n_out > core.KERNEL_MAX_UNITS
        layer = MlpLayer([[rng.uniform(-1.0, 1.0) for _ in range(n_in)] for _ in range(n_out)],
                         [rng.uniform(-1.0, 1.0) for _ in range(n_out)], Activation.IDENTITY)
        assert layer._kernel_units == n_in * n_out + n_out
        x = tuple(rng.uniform(-1.0, 1.0) for _ in range(n_in))
        alone = Mlp((layer,))
        with mock.patch.object(core, "_build_kernel", wraps=core._build_kernel) as build:
            for _ in range(core.KERNEL_AFTER + 1):
                out = alone.evaluate(x)
        build.assert_not_called()
        assert kernels(alone) is False
        assert bits(out) == bits(dense_apply(layer, x))
        # beside a small layer, the big one runs its loop in its kernel's
        # place; its output 0 overflows where every input is positive, and
        # the small layer's zero weights on it give NaN in the loop
        relu = dataclasses.replace(layer, weight=((1e308,) * n_in,) + layer.weight[1:], activation=Activation.RELU)
        small = MlpLayer([[0.0] + [rng.uniform(-1.0, 1.0) for _ in range(n_out - 1)] for _ in range(2)],
                         [0.5, -0.5], Activation.IDENTITY)
        mixed = Mlp((relu, small))
        with mock.patch.object(core, "_build_kernel", wraps=core._build_kernel) as build:
            apply_until_compiled(mixed, x)
        build.assert_called_once_with(n_out, mock.ANY)
        assert [kernel.__name__ for kernel in kernels(mixed)] == ["loop", "kernel"]
        positive = tuple(abs(t) for t in x)
        for y in [x, tuple(-t for t in x), positive, tuple(t * 1e307 for t in x)]:
            assert bits(mixed.evaluate(y)) == bits(dense_chain(mixed, y))
        assert all(map(math.isnan, mixed.evaluate(positive)))

    def test_the_ceiling_falls_between_conversions(self):
        # every layer of a 16/3/8 exact conversion fits; a round-tripped
        # 8/3/8 KAN's hidden layers do not
        big = kan_to_mlp(_square_kan(16, 3, 8, random.Random(4)), ConversionMode.EXACT)
        assert max(layer._kernel_units for layer in big.layers) <= core.KERNEL_MAX_UNITS
        small = _square_kan(8, 3, 8, random.Random(5))
        back = mlp_to_kan(kan_to_mlp(small, ConversionMode.EXACT))
        assert min(layer._kernel_units for layer in back.layers[1:-1]) > core.KERNEL_MAX_UNITS
        assert _square_kan(2, 1, 2, random.Random(6)).layers[0]._kernel_units == 2 * 2 * 2
        spline = SplineKan((KanLayer(((_RELUS[PolySegmentSpline],),)),))
        assert spline.layers[0]._kernel_units is None
        apply_until_compiled(spline, (0.5,))
        assert kernels(spline) is False

    def test_a_round_tripped_network_compiles_its_small_layers(self):
        # kan_to_mlp(mlp_to_kan(M)) of a 4/3/6 KAN's exact MLP M
        mlp = kan_to_mlp(_square_kan(4, 3, 6, random.Random(12)), ConversionMode.EXACT)
        assert mlp.widths == (4, 88, 88, 88, 4)
        net = kan_to_mlp(mlp_to_kan(mlp), ConversionMode.EXACT)
        assert net.widths == (4, 8, 7920, 7920, 528, 4)
        fits = [layer._kernel_units <= core.KERNEL_MAX_UNITS for layer in net.layers]
        assert fits[0] and fits[-1] and not all(fits)
        x = (0.5, -1.25, 2.0, 0.75)
        apply_until_compiled(net, x)
        assert [kernel.__name__ for kernel in kernels(net)] == ["kernel" if fit else "loop" for fit in fits]
        assert bits(net.evaluate(x)) == bits(dense_chain(net, x))

    def test_each_compile_holds_one_layer(self):
        # a KAN kernel takes its layer's inputs and returns its outputs; a
        # first or post-loop MLP kernel takes the inputs, any other the kept
        # row sums, and a last or pre-loop MLP kernel returns the outputs,
        # any other the next layer's kept row sums
        kan = random_kan(random.Random(13), input_dim=2, output_dim=2, max_width=3, max_depth=3)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        mixed = kan_to_mlp(_square_kan(2, 4, 3, random.Random(14)), ConversionMode.EXACT)
        cases = [(kan, [True] * len(kan.layers)), (mlp, [True] * len(mlp.layers)), (mixed, [False, True, True, False, True])]
        for net, fits in cases:
            with mock.patch.object(core, "compile", create=True, wraps=compile) as calls:
                compile_with(net, fits)
            sources = [call.args[0] for call in calls.call_args_list]
            assert len(sources) == sum(fits)
            compiled_layers = [i for i, fit in enumerate(fits) if fit]
            for i, source in zip(compiled_layers, sources):
                layer, linked = net.layers[i], isinstance(net, Mlp)
                if linked and i > 0 and fits[i - 1]:
                    params = [f"s{j}" for j in range(len(layer.summation_rows(True)[0]))]
                else:
                    params = [f"x{p}" for p in range(layer.n_in)]
                if linked and i + 1 < len(fits) and fits[i + 1]:
                    returned = f"a{len(net.layers[i + 1].summation_rows(True)[0]) - 1}, )"
                else:
                    returned = f"{layer.n_out - 1}, )"
                assert source.count("def ") == 1
                assert source.startswith("def kernel(" + ", ".join(params) + "):")
                assert source.rstrip().endswith(returned)
            for x in [(0.5, -0.25), (2.0, 1.5), (-3.0, 0.0)]:
                assert bits(net.evaluate(x)) == bits(dense_chain(net, x))

    def test_compiled_models_pickle_and_copy(self):
        kan = random_kan(random.Random(7), input_dim=2, output_dim=2, max_width=3, max_depth=2)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        points = [(0.5, -0.25), (3.0, 1.0), (-2.0, 0.0)]
        for net in (kan, mlp):
            apply_until_compiled(net, points[0])
            want = [bits(net.evaluate(x)) for x in points]
            for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
                assert copied == net and repr(copied) == repr(net)
                # a copy counts afresh
                assert "_kernels" not in vars(copied) and "_calls" not in vars(copied)
                assert [bits(copied.evaluate(x)) for x in points] == want
                assert vars(copied)["_calls"] == len(points)
            assert [bits(net.evaluate(x)) for x in points] == want

    def test_a_kernel_is_freed_with_its_network(self):
        layer = KanLayer(((_RELUS[PiecewiseLinear], PiecewiseLinear((1.0,), (2.0, -1.0), 0.5)),))
        kan = Kan((layer,))
        apply_until_compiled(kan, (0.5, 2.0))
        kernel = weakref.ref(kernels(kan)[0])
        assert kernel().__globals__ == {"__builtins__": {}, "inf": INF}
        gc.disable()
        try:
            del kan
            assert kernel() is None
        finally:
            gc.enable()

    def test_concurrent_evaluation_gives_the_same_bits(self):
        kan = random_kan(random.Random(8), input_dim=2, output_dim=2, max_width=3, max_depth=3)
        nets = (kan, kan_to_mlp(kan, ConversionMode.EXACT))
        rng = random.Random(9)
        points = [(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)) for _ in range(core.KERNEL_AFTER)]
        want = [[bits(dense_chain(net, x)) for x in points] for net in nets]
        failures = []

        def work():
            for net, expected in zip(nets, want):
                if [bits(net.evaluate(x)) for x in points] != expected:
                    failures.append(net)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert all(kernel.__name__ == "kernel" for net in nets for kernel in kernels(net))
