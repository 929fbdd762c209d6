"""Conversion constructions: block lowering, layer assembly, both directions."""
import random
from dataclasses import replace

import pytest

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
    eval_kan,
    eval_mlp,
    eval_pl,
    kan_layer_to_relu,
    kan_to_mlp,
    mlp_to_kan,
)
from kanrelu.convert import _merge_affine
from kanrelu.errors import ValidationError

from conftest import random_kan, random_mlp, random_pl


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
