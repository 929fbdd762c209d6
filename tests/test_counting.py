"""Parameter accounting, region bounds, ratios and embedding checks."""
import random

import pytest

from kanrelu import (
    Activation,
    ClassSignature,
    ConversionMode,
    Kan,
    KanLayer,
    Mlp,
    MlpLayer,
    ValidationError,
    class_embedding_check,
    count_params_kan,
    count_params_mlp,
    kan_region_upper_bound,
    kan_to_mlp,
    kan_to_relu_param_formula,
    mlp_dense_param_formula,
    regions_per_parameter,
    relu_region_upper_bound,
    relu_to_kan_param_formula,
)

from conftest import random_kan, random_mlp


class TestMlpCounts:
    def test_two_hidden_layer_network(self):
        rng = random.Random(1)
        layers = []
        widths = [2, 3, 2, 1]
        for i, (a, b) in enumerate(zip(widths, widths[1:])):
            weight = tuple(tuple(rng.uniform(0.5, 2.0) for _ in range(a)) for _ in range(b))
            bias = tuple(rng.uniform(0.5, 2.0) for _ in range(b))
            act = Activation.IDENTITY if i == 2 else Activation.RELU
            layers.append(MlpLayer(weight, bias, act))
        report = count_params_mlp(Mlp(tuple(layers)))
        # 14 weights + 6 biases; the closed form groups them as 1+6+4+(6+3)
        assert report.total_entries == 20
        assert report.nonzero_entries == 20
        assert report.closed_form == 20

    def test_single_affine_layer(self):
        mlp = Mlp((MlpLayer(((1.5,),), (0.25,), Activation.IDENTITY),))
        report = count_params_mlp(mlp)
        assert report.total_entries == 2
        assert report.nonzero_entries == 2
        assert report.closed_form == 2

    def test_abs_network_counts(self, abs_mlp):
        report = count_params_mlp(abs_mlp)
        # 4 nonzero weights; all three bias entries are zero
        assert report.total_entries == 7
        assert report.nonzero_entries == 4
        assert report.free_entries == 4
        assert report.closed_form == 7

    def test_closed_form_matches_total_on_random_dense(self):
        rng = random.Random(2)
        for _ in range(50):
            mlp = random_mlp(rng, output_dim=1)
            report = count_params_mlp(mlp)
            assert report.total_entries == report.closed_form

    def test_per_layer_sums(self):
        rng = random.Random(3)
        mlp = random_mlp(rng)
        report = count_params_mlp(mlp)
        assert sum(c.total for c in report.per_layer) == report.total_entries
        assert sum(c.free for c in report.per_layer) == report.free_entries


class TestKanCounts:
    def test_uniform_three_segments(self, three_segment_pl):
        f = three_segment_pl
        kan = Kan((KanLayer(((f, f), (f, f))), KanLayer(((f, f),))))
        report = count_params_kan(kan)
        # 6 activations at 2 * 3 parameters each
        assert report.total_entries == 36
        assert report.free_entries == 36
        assert report.closed_form == 36

    def test_identity_activation(self, identity_pl):
        kan = Kan((KanLayer(((identity_pl,),)),))
        report = count_params_kan(kan)
        assert report.total_entries == 2
        assert report.closed_form == 2

    def test_three_segment_singleton(self, three_segment_pl):
        report = count_params_kan(Kan((KanLayer(((three_segment_pl,),)),)))
        assert report.free_entries == 6

    def test_mixed_segments_have_no_closed_form(self, three_segment_pl, identity_pl):
        kan = Kan((KanLayer(((three_segment_pl, identity_pl),)),))
        report = count_params_kan(kan)
        assert report.closed_form is None
        assert report.free_entries == 6 + 2


class TestConversionFormulas:
    def test_relu_to_kan_worked_instance(self):
        rng = random.Random(4)
        mlp = random_mlp(rng, input_dim=2, output_dim=1, max_depth=3)
        while tuple(mlp.hidden_widths) != (3, 2):
            mlp = random_mlp(rng, input_dim=2, output_dim=1, max_depth=3)
        assert count_params_mlp(mlp).closed_form == 20
        assert relu_to_kan_param_formula(mlp) == 44

    def test_one_hidden_neuron_adds_eight(self):
        rng = random.Random(5)
        mlp = random_mlp(rng, input_dim=3, output_dim=1, max_depth=2)
        while tuple(mlp.hidden_widths) != (1,):
            mlp = random_mlp(rng, input_dim=3, output_dim=1, max_depth=2)
        base = mlp_dense_param_formula(3, [1])
        assert relu_to_kan_param_formula(mlp) == base + 8

    def test_no_hidden_layers_adds_four(self):
        mlp = Mlp((MlpLayer(((1.0, 2.0),), (0.5,), Activation.IDENTITY),))
        assert relu_to_kan_param_formula(mlp) == mlp_dense_param_formula(2, []) + 4

    def test_formula_requires_scalar_output(self):
        rng = random.Random(6)
        mlp = random_mlp(rng, output_dim=2)
        with pytest.raises(ValidationError):
            relu_to_kan_param_formula(mlp)

    def test_kan_to_relu_uniform(self, three_segment_pl):
        f = three_segment_pl
        kan = Kan((KanLayer(((f, f), (f, f))), KanLayer(((f, f),))))
        assert kan_to_relu_param_formula(kan) == 36

    def test_kan_to_relu_single_segment(self, identity_pl):
        assert kan_to_relu_param_formula(Kan((KanLayer(((identity_pl,),)),))) == 2

    def test_kan_to_relu_three_by_three(self):
        rng = random.Random(7)
        kan = random_kan(rng, input_dim=3, output_dim=3, max_depth=1, segments=4)
        assert kan_to_relu_param_formula(kan) == 72

    def test_converted_free_count_matches_formula(self):
        rng = random.Random(8)
        for _ in range(30):
            segments = rng.randint(1, 6)
            kan = random_kan(rng, segments=segments)
            expected = kan_to_relu_param_formula(kan)
            for mode in ConversionMode:
                mlp = kan_to_mlp(kan, mode)
                assert count_params_mlp(mlp).free_entries == expected


class TestRegionBounds:
    @pytest.mark.parametrize(
        "input_dim,hidden,expected",
        [(2, [3], 7), (2, [2, 2], 16), (1, [5], 6)],
    )
    def test_relu_bound_values(self, input_dim, hidden, expected):
        assert relu_region_upper_bound(input_dim, hidden) == expected

    @pytest.mark.parametrize(
        "widths,k,expected",
        [([1, 2], 3, 81), ([2, 2], 2, 64), ([3, 2, 4], 1, 1)],
    )
    def test_kan_bound_values(self, widths, k, expected):
        assert kan_region_upper_bound(widths, k) == expected

    def test_kan_bound_strictly_increasing_in_k(self):
        for widths in ([1], [1, 2], [2, 3], [2, 2, 2]):
            values = [kan_region_upper_bound(widths, k) for k in range(1, 6)]
            assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bound, message", [
        (lambda: relu_region_upper_bound(0, [3]), "widths must be positive"),
        (lambda: kan_region_upper_bound([], 2), "widths must be positive"),
        (lambda: kan_region_upper_bound([2, 1], 0), "segment count k must be >= 1"),
    ], ids=["relu_zero_input", "kan_no_widths", "kan_zero_segments"])
    def test_bad_arguments_rejected(self, bound, message):
        with pytest.raises(ValidationError) as info:
            bound()
        assert str(info.value) == message

    def test_bounds_are_exact_big_integers(self):
        assert kan_region_upper_bound([4, 4, 4], 6) == 6 ** (4 + 32)
        assert relu_region_upper_bound(10, [60, 60]) > 2**63


class TestRatios:
    def test_relu_ratio_pair(self):
        sig = ClassSignature(family="relu", depth=2, width=3)
        assert regions_per_parameter(sig, [2, 3]) == (7, 13)

    def test_kan_ratio_pair_uses_printed_denominator(self):
        sig = ClassSignature(family="kan", depth=2, width=2, segment_bound=2)
        assert regions_per_parameter(sig, [1, 2]) == (81, 2 * 3 * (2 + 1))

    def test_single_segment_kan_bound_is_one(self):
        sig = ClassSignature(family="kan", depth=1, width=3, segment_bound=0)
        bound, _ = regions_per_parameter(sig, [3, 3])
        assert bound == 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValidationError, match="family must be 'kan' or 'relu'"):
            ClassSignature("cnn", 1, 1)

    def test_signature_to_dict(self):
        assert ClassSignature("relu", 2, 3).to_dict() == {
            "family": "relu", "depth": 2, "width": 3, "segment_bound": None,
        }

    @pytest.mark.parametrize("family, segment_bound", [("kan", None), ("relu", 2)])
    def test_segment_bound_is_set_exactly_for_the_kan_family(self, family, segment_bound):
        # the segment count k of a kan ratio is segment_bound + 1, so it cannot be missing
        with pytest.raises(ValidationError, match="segment_bound"):
            ClassSignature(family=family, depth=1, width=1, segment_bound=segment_bound)


class TestEmbedding:
    def test_four_copy_layer(self, three_segment_pl):
        f = three_segment_pl
        kan = Kan((KanLayer(((f, f), (f, f))),))
        report = class_embedding_check(kan)
        assert report.source.width == 2 and report.source.segment_bound == 2
        assert report.paper_mode_width <= 12
        assert report.width_bound_satisfied
        assert report.depth_bound_satisfied
        assert report.segment_bound_satisfied

    def test_identity_kan_widths(self, identity_pl):
        z = identity_pl
        kan = Kan((KanLayer(((z, z), (z, z))),))
        report = class_embedding_check(kan)
        assert report.paper_mode_width == 4    # one unit per activation
        assert report.exact_mode_width == 4    # just the shared pairs
        assert report.paper_width_limit == 4
        assert report.exact_width_limit == 4

    def test_reconverted_segments_at_most_two(self):
        rng = random.Random(9)
        for _ in range(20):
            report = class_embedding_check(random_kan(rng))
            assert report.reconverted_max_segments <= 2
            assert report.segment_bound_satisfied

    def test_all_checks_hold_on_random_networks(self):
        rng = random.Random(10)
        for _ in range(40):
            report = class_embedding_check(random_kan(rng))
            assert report.width_bound_satisfied
            assert report.depth_bound_satisfied
            assert report.segment_bound_satisfied
