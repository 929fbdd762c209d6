"""Conversion constructions: block lowering, layer assembly, both directions."""
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanrelu import (
    FREE,
    STRUCTURAL,
    Activation,
    ConversionMode,
    Kan,
    KanLayer,
    Mlp,
    MlpLayer,
    PiecewiseLinear,
    assert_equiv,
    class_embedding_check,
    eval_kan,
    eval_mlp,
    eval_pl,
    kan_layer_to_relu,
    kan_to_mlp,
    mlp_to_kan,
)
from kanrelu.convert import _merge_affine
from kanrelu.errors import ValidationError

from conftest import decimal_kans, decimal_pls, random_kan, random_mlp, random_pl


def _relu(x):
    return x if x > 0.0 else 0.0


def _lower_one(f, mode):
    """The block of a 1-by-1 KAN layer holding ``f``."""
    return kan_layer_to_relu(KanLayer(((f,),)), mode)


class TestUnitLowering:
    def test_exact_block_structure(self, three_segment_pl):
        block = _lower_one(three_segment_pl, ConversionMode.EXACT)
        hidden, out = block.layers
        # hidden pre-activations (x, -x, x+1, x-1); weights (a1, -a1, diffs...)
        assert block.hidden_widths[0] == three_segment_pl.segments + 1
        assert [row[0] for row in hidden.weight] == [1.0, -1.0, 1.0, 1.0]
        assert list(hidden.bias) == [0.0, 0.0, 1.0, -1.0]
        assert list(out.weight[0]) == [1.0, -1.0, 1.0, -1.5]
        assert out.bias == (0.0,)

    def test_exact_block_matches_closed_form(self, three_segment_pl):
        block = _lower_one(three_segment_pl, ConversionMode.EXACT)
        for x in (-2.0, 0.0, 2.0):
            expected = _relu(x) - _relu(-x) + 1.0 * _relu(x + 1.0) - 1.5 * _relu(x - 1.0)
            assert block.evaluate((x,)) == (expected,)
            assert block.evaluate((x,)) == (eval_pl(three_segment_pl, x),)

    def test_converting_relu_reproduces_relu(self, relu_pl):
        block = _lower_one(relu_pl, ConversionMode.EXACT)
        for x in (-1.0, 0.0, 1.0):
            assert block.evaluate((x,)) == (_relu(x),)

    def test_two_breakpoint_symbolic_form(self):
        # slope-difference expansion plus the identity-pair correction
        rng = random.Random(21)
        for _ in range(20):
            f = random_pl(rng, segments=3)
            a1, a2, a3 = f.slopes
            b1, b2 = f.breakpoints
            block = _lower_one(f, ConversionMode.EXACT)
            for x in (-4.0, b1, (b1 + b2) / 2, b2, 4.0):
                expected = (
                    a1 * (_relu(x) - _relu(-x))
                    + (a2 - a1) * _relu(x - b1)
                    + (a3 - a2) * _relu(x - b2)
                    + f.intercept
                )
                got = block.evaluate((x,))[0]
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_paper_block_structure(self, three_segment_pl):
        block = _lower_one(three_segment_pl, ConversionMode.PAPER)
        hidden, out = block.layers
        assert block.hidden_widths[0] == three_segment_pl.segments
        assert [row[0] for row in hidden.weight] == [1.0, 1.0, 1.0]
        assert list(hidden.bias) == [0.0, 1.0, -1.0]
        assert list(out.weight[0]) == [1.0, 1.0, -1.5]

    def test_paper_block_valid_on_nonnegative_inputs(self):
        rng = random.Random(5)
        for _ in range(40):
            f = random_pl(rng, breakpoint_range=(0.0, 3.0))
            block = _lower_one(f, ConversionMode.PAPER)
            probes = [0.0, 0.5, 1.0, 2.5, 4.0] + [b + 1e-6 for b in f.breakpoints]
            for x in probes:
                expected = eval_pl(f, x)
                assert abs(block.evaluate((x,))[0] - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_provenance_tags(self, three_segment_pl):
        hidden, out = _lower_one(three_segment_pl, ConversionMode.EXACT).layers
        assert all(t == STRUCTURAL for row in hidden.weight_tags for t in row)
        assert list(hidden.bias_tags) == [STRUCTURAL, STRUCTURAL, FREE, FREE]
        assert all(t == FREE for t in out.weight_tags[0])
        assert out.bias_tags == (FREE,)


class TestLayerLowering:
    def test_two_input_sum(self, identity_pl):
        layer = KanLayer(((identity_pl, identity_pl),))
        block = kan_layer_to_relu(layer, ConversionMode.EXACT)
        assert block.evaluate((1.5, -0.5)) == (1.0,)

    def test_one_to_two_layer(self, three_segment_pl, relu_pl):
        layer = KanLayer(((three_segment_pl,), (relu_pl,)))
        block = kan_layer_to_relu(layer, ConversionMode.EXACT)
        assert block.evaluate((2.0,)) == (3.5, 2.0)

    @pytest.mark.parametrize("mode", [ConversionMode.EXACT, ConversionMode.PAPER])
    def test_output_bias_sums_intercepts_left_to_right(self, mode):
        # Python 3.12's builtin sum of floats compensates and gives 1.0000000000000002
        acts = tuple(PiecewiseLinear((), (1.0,), c) for c in (1.0, 1e-16, 1e-16))
        block = kan_layer_to_relu(KanLayer((acts,)), mode)
        assert block.layers[-1].bias == (1.0,)

    @pytest.mark.parametrize("mode", list(ConversionMode))
    def test_overflowing_slope_change_names_the_activation(self, mode, identity_pl):
        # finite slopes whose change is inf; the MLP check used to name only a weight row
        bad = PiecewiseLinear((-1.0, 0.5), (1.0, -1e308, 1e308))
        layer = KanLayer(((identity_pl, identity_pl), (identity_pl, bad)))
        message = "activation q=1, p=1: the slope change at breakpoint 0.5 overflows to inf"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            kan_layer_to_relu(layer, mode)
        kan = Kan((KanLayer(((identity_pl,), (identity_pl,))), layer))
        with pytest.raises(ValidationError, match=f"^KAN layer 1: {message}$"):
            kan_to_mlp(kan, mode)

    @pytest.mark.parametrize("mode", list(ConversionMode))
    def test_overflowing_intercept_sum_names_the_output(self, mode, identity_pl):
        big = PiecewiseLinear((), (1.0,), 1e308)
        layer = KanLayer(((identity_pl, identity_pl), (big, big)))
        with pytest.raises(ValidationError, match="^output q=1: the activation intercepts sum to inf$"):
            kan_layer_to_relu(layer, mode)
        with pytest.raises(ValidationError, match="^KAN layer 0: output q=1: "):
            kan_to_mlp(Kan((layer,)), mode)

    @pytest.mark.parametrize("mode", list(ConversionMode))
    def test_overflowing_folded_bias_names_the_layer_and_unit(self, mode, identity_pl):
        # b1 + b2_prev = 1e308 + 1e308; used to fail as "bias must be finite, got inf"
        big = PiecewiseLinear((), (1.0,), 1e308)
        far = PiecewiseLinear((-1e308,), (0.0, 1.0), 0.0)
        kan = Kan((KanLayer(((identity_pl,), (big,))), KanLayer(((identity_pl, far),))))
        message = "input p=1: the folded bias of the unit at breakpoint -1e+308 overflows to inf"
        with pytest.raises(ValidationError, match=f"^KAN layer 1: {re.escape(message)}$"):
            kan_to_mlp(kan, mode)
        assert repr(kan_to_mlp(Kan(kan.layers[:1]), mode).layers[-1].bias) == "(0.0, 1e+308)"

    @pytest.mark.parametrize("mode", list(ConversionMode))
    @given(grid=st.integers(1, 2).flatmap(
        lambda n_in: st.lists(st.lists(decimal_pls(), min_size=n_in, max_size=n_in), min_size=1, max_size=2)
    ))
    @settings(max_examples=100, deadline=None)
    def test_breakpoint_unit_weights_are_the_kinks(self, mode, grid):
        layer = KanLayer(grid)
        hidden, out = kan_layer_to_relu(layer, mode).layers
        # the breakpoint units are the hidden units with a free bias, in row, column, kink order
        units = [j for j, tag in enumerate(hidden.bias_tags) if tag == FREE]
        kinks = [(q, d) for q, row in enumerate(layer.activations) for act in row for _b, d in act.kinks]
        assert len(units) == len(kinks)
        assert [out.weight[q][j].hex() for j, (q, _d) in zip(units, kinks)] == [d.hex() for _q, d in kinks]

    def test_exact_width_law(self, three_segment_pl):
        grid = ((three_segment_pl, three_segment_pl), (three_segment_pl, three_segment_pl))
        layer = KanLayer(grid)
        assert kan_layer_to_relu(layer, ConversionMode.EXACT).hidden_widths[0] == 12

    @pytest.mark.parametrize("mode", [ConversionMode.EXACT, ConversionMode.PAPER])
    def test_width_laws_random(self, mode):
        rng = random.Random(13)
        for _ in range(25):
            kan = random_kan(rng, max_depth=1)
            layer = kan.layers[0]
            block = kan_layer_to_relu(layer, mode)
            segs = [act.segments for row in layer.activations for act in row]
            if mode is ConversionMode.EXACT:
                assert block.hidden_widths[0] == 2 * layer.n_in + sum(s - 1 for s in segs)
            else:
                assert block.hidden_widths[0] == sum(segs)

    def test_each_hidden_unit_reads_one_input(self):
        rng = random.Random(17)
        layer = random_kan(rng, max_depth=1).layers[0]
        for mode in ConversionMode:
            block = kan_layer_to_relu(layer, mode)
            for row in block.layers[0].weight:
                assert sum(1 for v in row if v != 0.0) == 1

    def test_layer_map_agrees_on_grid(self):
        rng = random.Random(29)
        for _ in range(10):
            kan = random_kan(rng, max_depth=1)
            layer = kan.layers[0]
            block = kan_layer_to_relu(layer, ConversionMode.EXACT)
            for _ in range(20):
                x = tuple(rng.uniform(-4, 4) for _ in range(layer.n_in))
                want = layer.apply(x)
                got = block.evaluate(x)
                for w, g in zip(want, got):
                    assert abs(w - g) <= 1e-10 * max(1.0, abs(w))

    @pytest.mark.parametrize("mode", list(ConversionMode))
    def test_block_is_the_one_layer_conversion(self, mode):
        # a one-layer KAN converts to exactly its block, up to source_params
        rng = random.Random(19)
        for _ in range(10):
            layer = random_kan(rng, max_depth=1).layers[0]
            mlp = kan_to_mlp(Kan((layer,)), mode)
            cleared = Mlp(tuple(replace(lay, source_params=None) for lay in mlp.layers))
            assert repr(kan_layer_to_relu(layer, mode)) == repr(cleared)


class TestKanToMlp:
    def test_single_layer_values(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        assert len(mlp.layers) == 2
        got = [eval_mlp(mlp, (x,))[0] for x in (-2.0, 0.0, 2.0)]
        assert got == [-2.0, 1.0, 3.5]

    def test_identity_kan_converts_to_identity_map(self, identity_pl):
        grid = ((identity_pl, PiecewiseLinear((), (0.0,), 0.0)),
                (PiecewiseLinear((), (0.0,), 0.0), identity_pl))
        kan = Kan((KanLayer(grid), KanLayer(grid)))
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        for point in ((0.3, -0.7), (-2.0, 5.0), (0.0, 0.0)):
            got = eval_mlp(mlp, point)
            for want, have in zip(point, got):
                assert abs(want - have) <= 1e-12 * max(1.0, abs(want))

    def test_depth_law(self):
        rng = random.Random(31)
        for _ in range(20):
            kan = random_kan(rng)
            for mode in ConversionMode:
                assert len(kan_to_mlp(kan, mode).layers) == len(kan.layers) + 1

    @given(kan=decimal_kans())
    @settings(max_examples=100, deadline=None)
    def test_paper_laws(self, kan):
        # depth L + 1, the width law of each mode, two source parameters per
        # segment, and a re-converted KAN of at most 2 segments per activation
        segments = [[act.segments for row in layer.activations for act in row] for layer in kan.layers]
        widths = {
            ConversionMode.EXACT: [2 * lay.n_in + sum(segs) - len(segs) for lay, segs in zip(kan.layers, segments)],
            ConversionMode.PAPER: [sum(segs) for segs in segments],
        }
        for mode in ConversionMode:
            mlp = kan_to_mlp(kan, mode)
            assert len(mlp.layers) == len(kan.layers) + 1
            assert list(mlp.hidden_widths) == widths[mode]
            assert sum(layer.source_params for layer in mlp.layers) == 2 * sum(map(sum, segments))
            assert mlp_to_kan(mlp).max_segments() <= 2
        report = class_embedding_check(kan)
        assert report.depth_bound_satisfied and report.width_bound_satisfied and report.segment_bound_satisfied

    @given(kan=decimal_kans())
    @settings(max_examples=200, deadline=None)
    def test_exact_mlp_structure(self, kan):
        # what a structural lift of an exact-mode MLP reads: every hidden unit
        # reads one input with a sign, and a folded row is that sign times a
        # row of the previous block's output map, bit for bit
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        blocks = [kan_layer_to_relu(layer, ConversionMode.EXACT).layers for layer in kan.layers]
        for t, (layer, (w1, _)) in enumerate(zip(kan.layers, blocks)):
            n_in, hidden = layer.n_in, mlp.layers[t]
            assert len({id(row) for row in hidden.weight}) <= 2 * n_in
            units = []
            for row in w1.weight:
                (p, s), = [(p, w) for p, w in enumerate(row) if w != 0.0]
                assert s in (1.0, -1.0)
                units.append((p, s))
            assert units[:2 * n_in] == [(p, s) for p in range(n_in) for s in (1.0, -1.0)]
            assert w1.bias[:2 * n_in] == (0.0,) * (2 * n_in)
            if t == 0:
                assert (hidden.weight, hidden.bias) == (w1.weight, w1.bias)
                continue
            prev = blocks[t - 1][1]
            for i, (p, s) in enumerate(units):
                row, u = hidden.weight[i], prev.weight[p]
                assert row == tuple(s * v for v in u)
                assert [v.hex() for v in row if v] == [(s * v).hex() for v in u if v]
                assert hidden.bias[i].hex() == (w1.bias[i] + s * prev.bias[p]).hex()
        assert (mlp.layers[-1].weight, mlp.layers[-1].bias) == (blocks[-1][1].weight, blocks[-1][1].bias)

    def test_two_layer_kan_gives_three_affine_layers(self):
        rng = random.Random(37)
        kan = random_kan(rng, max_depth=2, input_dim=2)
        while len(kan.layers) != 2:
            kan = random_kan(rng, max_depth=2, input_dim=2)
        assert len(kan_to_mlp(kan, ConversionMode.EXACT).layers) == 3

    def test_merged_tags_survive(self, three_segment_pl):
        kan = Kan(
            (
                KanLayer(((three_segment_pl,),)),
                KanLayer(((three_segment_pl,),)),
            )
        )
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        middle = mlp.layers[1]
        assert middle.weight_tags is not None
        # merged rows copy the previous output map with a sign: free where it
        # was free, structural zero where untouched
        assert any(t == FREE for row in middle.weight_tags for t in row)
        for row, tags in zip(middle.weight, middle.weight_tags):
            for v, t in zip(row, tags):
                if t == STRUCTURAL:
                    assert v in (0.0, 1.0, -1.0)

    def test_exact_mode_with_decimal_slopes_is_exact_up_to_rounding(self):
        # a slope change of 3-decimal slopes rounds, so neither the MLP nor
        # Kan.evaluate is the exact function of the stored parameters; both
        # stay within 1e-15 * magnitude of it, as the convert docstring says
        def exact(kan, x):
            v = [Fraction(t) for t in x]
            for layer in kan.layers:
                out = []
                for row in layer.activations:
                    acc = Fraction(0)
                    for t, act in zip(v, row):
                        s = [Fraction(a) for a in act.slopes]
                        acc += s[0] * t + Fraction(act.intercept)
                        acc += sum((s[i + 1] - s[i]) * (t - Fraction(b))
                                   for i, b in enumerate(act.breakpoints) if b <= t)
                    out.append(acc)
                v = out
            return v

        def magnitude(kan, x):
            # the network of absolute values, every breakpoint passed
            m = [abs(t) for t in x]
            for layer in kan.layers:
                m = [sum(abs(act.slopes[0]) * mp + abs(act.intercept)
                         + sum(abs(act.slopes[i + 1] - act.slopes[i]) * (mp + abs(b))
                               for i, b in enumerate(act.breakpoints))
                         for mp, act in zip(m, row)) for row in layer.activations]
            return m

        rng = random.Random(53)
        rounded = 0
        for _ in range(30):
            kan = random_kan(rng, max_width=4, max_depth=3, max_segments=6)
            kan = Kan(tuple(
                KanLayer(tuple(
                    tuple(PiecewiseLinear(a.breakpoints, tuple(round(s, 3) for s in a.slopes), a.intercept)
                          for a in row)
                    for row in layer.activations))
                for layer in kan.layers))
            mlp = kan_to_mlp(kan, ConversionMode.EXACT)
            for _ in range(20):
                x = tuple(rng.uniform(-1e9, 1e9) for _ in range(kan.input_dim))
                for k, m, e, size in zip(kan.evaluate(x), mlp.evaluate(x), exact(kan, x), magnitude(kan, x)):
                    assert abs(m - k) <= 1e-15 * size
                    assert abs(Fraction(k) - e) <= 1e-15 * size
                    assert abs(Fraction(m) - e) <= 1e-15 * size
                    rounded += Fraction(m) != e
        assert rounded > 0

    def test_round_trip_sweep_with_dense_sampling(self):
        # the deep sweep: 10k low-discrepancy points plus kink probes
        rng = random.Random(41)
        for _ in range(3):
            kan = random_kan(rng)
            mlp = kan_to_mlp(kan, ConversionMode.EXACT)
            box = [(-5.0, 5.0)] * kan.input_dim
            report = assert_equiv(kan, mlp, box, samples=10_000, tol=1e-8)
            assert report.passed, report

    def test_mlp_round_trip_sweep(self):
        rng = random.Random(43)
        for _ in range(3):
            mlp = random_mlp(rng)
            kan = mlp_to_kan(mlp)
            box = [(-5.0, 5.0)] * mlp.input_dim
            report = assert_equiv(mlp, kan, box, samples=10_000, tol=1e-8)
            assert report.passed, report

    def test_double_round_trip(self):
        rng = random.Random(47)
        for _ in range(3):
            kan = random_kan(rng)
            back = mlp_to_kan(kan_to_mlp(kan, ConversionMode.EXACT))
            box = [(-5.0, 5.0)] * kan.input_dim
            report = assert_equiv(kan, back, box, samples=5_000, tol=1e-8)
            assert report.passed, report


class TestMlpToKan:
    def test_abs_network(self, abs_mlp):
        kan = mlp_to_kan(abs_mlp)
        assert eval_kan(kan, (-3.0,)) == (3.0,)
        first = kan.layers[0].activations
        assert first[0][0].slopes == (1.0,)
        assert first[1][0].slopes == (-1.0,)
        second = kan.layers[1].activations
        assert second[0][0] == PiecewiseLinear((0.0,), (0.0, 1.0), 0.0)
        assert second[0][1] == PiecewiseLinear((0.0,), (0.0, 1.0), 0.0)

    def test_layer_count_preserved(self):
        rng = random.Random(53)
        for _ in range(20):
            mlp = random_mlp(rng)
            assert len(mlp_to_kan(mlp).layers) == len(mlp.layers)

    def test_segment_law(self):
        rng = random.Random(59)
        for _ in range(20):
            kan = mlp_to_kan(random_mlp(rng))
            assert kan.max_segments() <= 2

    def test_pure_affine_mlp(self):
        mlp = Mlp((MlpLayer(((2.0, -1.0),), (0.5,), Activation.IDENTITY),))
        kan = mlp_to_kan(mlp)
        assert len(kan.layers) == 1
        assert kan.max_segments() == 1
        for point in ((1.0, 1.0), (-2.0, 0.25)):
            assert eval_kan(kan, point) == eval_mlp(mlp, point)

    def test_outer_activation_network(self):
        # relu applied after a single affine row: bias rides on the first input
        rng = random.Random(61)
        w = [rng.uniform(-2, 2) for _ in range(3)]
        b = rng.uniform(-2, 2)
        mlp = Mlp(
            (
                MlpLayer((tuple(w),), (b,), Activation.RELU),
                MlpLayer(((1.0,),), (0.0,), Activation.IDENTITY),
            )
        )
        kan = mlp_to_kan(mlp)
        first = kan.layers[0].activations[0]
        assert first[0].intercept == b
        assert first[1].intercept == 0.0 and first[2].intercept == 0.0
        for _ in range(20):
            x = tuple(rng.uniform(-3, 3) for _ in range(3))
            want = _relu(sum(wi * xi for wi, xi in zip(w, x)) + b)
            got = eval_kan(kan, x)[0]
            assert abs(want - got) <= 1e-12 * max(1.0, abs(want))

    def test_identical_activations_shared_with_sign_of_zero(self):
        mlp = Mlp(
            (
                MlpLayer(((0.0, -0.0, 0.0), (1.5, 1.5, -0.0)), (-0.0, 0.0), Activation.RELU),
                MlpLayer(((0.0, -0.0), (-0.0, 0.0)), (0.0, -0.0), Activation.IDENTITY),
            )
        )
        kan = mlp_to_kan(mlp)
        first, second = (layer.activations for layer in kan.layers)
        assert first[0][1] is first[1][2]  # weight -0.0, intercept 0.0
        assert first[1][0] is first[1][1]  # weight 1.5, intercept 0.0
        assert first[0][2] is not first[0][1]  # weight 0.0 vs -0.0
        assert first[0][0] is not first[0][2]  # intercept -0.0 vs 0.0
        assert second[0][0] is second[1][1]
        assert second[0][0] is not second[0][1]
        assert second[0][1] is not second[1][0]
        for t, layer in enumerate(kan.layers):
            for q, row in enumerate(layer.activations):
                for p, act in enumerate(row):
                    assert repr(act.slopes[-1]) == repr(mlp.layers[t].weight[q][p])
                    want = mlp.layers[t].bias[q] if p == 0 else 0.0
                    assert repr(act.intercept) == repr(want)

    def test_bias_only_on_first_input_activation(self):
        rng = random.Random(67)
        mlp = random_mlp(rng, input_dim=3, max_depth=2)
        kan = mlp_to_kan(mlp)
        for t, layer in enumerate(kan.layers):
            for q, row in enumerate(layer.activations):
                for p, act in enumerate(row):
                    if p > 0:
                        assert act.intercept == 0.0
                    else:
                        assert act.intercept == mlp.layers[t].bias[q]


def _merge_affine_dense(w1, w1_tags, b1, b1_tags, w2_prev, w2_prev_tags, b2_prev, b2_prev_tags):
    """Reference fold: the dense triple loop with a per-term tag rule.

    A merged entry is structural only when every product term involves a
    structural zero or is a product of two structural constants.
    """
    rows = len(w1)
    inner = len(w2_prev)
    cols = len(w2_prev[0]) if inner else 0

    def term_forced(i, k, j):
        left_tag = w1_tags[i][k]
        left_val = w1[i][k]
        if left_tag == STRUCTURAL and left_val == 0.0:
            return True
        right_tag = w2_prev_tags[k][j] if j is not None else b2_prev_tags[k]
        right_val = w2_prev[k][j] if j is not None else b2_prev[k]
        if right_tag == STRUCTURAL and right_val == 0.0:
            return True
        return left_tag == STRUCTURAL and right_tag == STRUCTURAL

    weight = []
    weight_tags = []
    for i in range(rows):
        row = []
        tags = []
        for j in range(cols):
            acc = 0.0
            forced = True
            for k in range(inner):
                acc += w1[i][k] * w2_prev[k][j]
                if forced and not term_forced(i, k, j):
                    forced = False
            row.append(acc)
            tags.append(STRUCTURAL if forced else FREE)
        weight.append(tuple(row))
        weight_tags.append(tuple(tags))

    bias = []
    bias_tags = []
    for i in range(rows):
        acc = b1[i]
        forced = b1_tags[i] == STRUCTURAL
        for k in range(inner):
            acc += w1[i][k] * b2_prev[k]
            if forced and not term_forced(i, k, None):
                forced = False
        bias.append(acc)
        bias_tags.append(STRUCTURAL if forced else FREE)

    return tuple(weight), tuple(weight_tags), tuple(bias), tuple(bias_tags)


def _coarse_kan(rng):
    """Random KAN over a few round values, so zero slopes, repeated slopes,
    breakpoints at 0 and negative zeros all occur."""
    values = (-1.0, -0.0, 0.0, 0.0, 1.0, 2.5)
    widths = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        rows = []
        for _ in range(n_out):
            row = []
            for _ in range(n_in):
                breakpoints = sorted(rng.sample((-1.5, -0.0, 0.5, 2.0), rng.randint(0, 3)))
                slopes = [rng.choice(values) for _ in range(len(breakpoints) + 1)]
                row.append(PiecewiseLinear(tuple(breakpoints), tuple(slopes), rng.choice(values)))
            rows.append(tuple(row))
        layers.append(KanLayer(tuple(rows)))
    return Kan(tuple(layers))


class TestFoldMatchesDenseReference:
    @pytest.mark.parametrize("mode", list(ConversionMode))
    def test_random_kans(self, mode):
        rng = random.Random(71)
        folds = 0
        for i in range(60):
            kan = random_kan(rng, max_depth=3) if i % 2 else _coarse_kan(rng)
            blocks = [kan_layer_to_relu(layer, mode) for layer in kan.layers]
            for prev, cur in zip(blocks, blocks[1:]):
                nxt, out = cur.layers[0], prev.layers[1]
                args = (nxt.weight, nxt.weight_tags, nxt.bias, nxt.bias_tags,
                        out.weight, out.weight_tags, out.bias, out.bias_tags)
                got = _merge_affine(*args)
                want = _merge_affine_dense(*args)
                assert got == want
                # repr tells -0.0 from 0.0, so this checks every bit
                assert repr(got) == repr(want)
                folds += 1
        assert folds > 30

    def test_non_one_hot_row_rejected(self):
        s = STRUCTURAL
        prev = (((1.0,), (2.0,)), ((FREE,), (FREE,)), (0.0, 0.0), (FREE, FREE))
        for w1 in (((1.0, 1.0),), ((0.0, 0.0),), ((2.0, 0.0),)):
            with pytest.raises(ValidationError, match="one-hot"):
                _merge_affine(w1, ((s, s),), (0.0,), (s,), *prev)
        with pytest.raises(ValidationError, match="one-hot"):
            _merge_affine(((1.0, 0.0),), ((FREE, s),), (0.0,), (s,), *prev)
