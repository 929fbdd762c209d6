"""Equivalence harness: sampling policy, exact 1-D mode, determinism."""
import dataclasses
import random

import pytest

from kanrelu import (
    Activation,
    ConversionMode,
    Kan,
    KanLayer,
    Mlp,
    MlpLayer,
    PiecewiseLinear,
    ShapeError,
    assert_equiv,
    equiv_exact_1d,
    halton_points,
    kan_to_mlp,
)
from kanrelu.equiv import first_layer_input_breakpoints

from conftest import random_kan


class TestHalton:
    def test_deterministic(self):
        assert halton_points(2, 5, seed=0) == halton_points(2, 5, seed=0)

    def test_seed_shifts_sequence(self):
        assert halton_points(1, 5, seed=0) != halton_points(1, 5, seed=3)

    def test_points_in_unit_box(self):
        for point in halton_points(4, 200):
            assert all(0.0 <= v < 1.0 for v in point)

    def test_first_twelve_dimensions_unchanged(self):
        # the fixed base table the sequence used before bases were generated
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

        def radical_inverse(base, index):
            scale, value = 1.0, 0.0
            while index > 0:
                scale /= base
                value += scale * (index % base)
                index //= base
            return value

        for seed in (0, 7):
            expected = [
                tuple(radical_inverse(b, 1 + seed + i) for b in bases) for i in range(300)
            ]
            assert halton_points(12, 300, seed) == expected
            assert [p[:12] for p in halton_points(16, 300, seed)] == expected

    def test_more_than_twelve_dimensions(self):
        points = halton_points(40, 64, seed=3)
        assert len(points) == 64 and all(len(p) == 40 for p in points)
        assert all(0.0 <= v < 1.0 for p in points for v in p)
        # dimension 13 uses base 41: index 4 (seed 3, first point) maps to 4/41
        assert points[0][12] == 4 / 41


class TestSampledEquiv:
    def test_identical_networks(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        report = assert_equiv(kan, kan, (-5.0, 5.0), samples=100, tol=1e-8)
        assert report.passed
        assert report.max_abs_error == 0.0
        assert report.mode == "sampled"

    def test_converted_network_passes(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        report = assert_equiv(kan, mlp, (-5.0, 5.0), samples=10_000, tol=1e-8)
        assert report.passed

    def test_perturbed_slope_fails_past_kink(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        bent = PiecewiseLinear((-1.0, 1.0), (1.0, 2.0, 0.6), 0.0)
        other = Kan((KanLayer(((bent,),)),))
        report = assert_equiv(kan, other, (-5.0, 5.0), samples=2000, tol=1e-8)
        assert not report.passed
        assert report.worst_point[0] > 1.0

    def test_breakpoint_probes_included(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        report = assert_equiv(kan, kan, (-5.0, 5.0), samples=10)
        # 10 halton points plus two probes around each of the two kinks per side
        assert report.samples == 10 + 2 * 2 * 2

    def test_first_layer_breakpoints_of_mlp(self, abs_mlp):
        points = first_layer_input_breakpoints(abs_mlp)
        assert points == {0: [0.0, 0.0]} or points == {0: [-0.0, 0.0]} or points == {0: [0.0]}

    def test_shape_mismatch_rejected(self, three_segment_pl, identity_pl):
        one = Kan((KanLayer(((three_segment_pl,),)),))
        two = Kan((KanLayer(((identity_pl, identity_pl),)),))
        with pytest.raises(ShapeError):
            assert_equiv(one, two, (-1.0, 1.0), samples=10)

    @pytest.mark.parametrize("scale_a, scale_b", [(10.0, -10.0), (10.0, 10.0), (10.0, 1e-300)])
    def test_non_finite_outputs_fail(self, scale_a, scale_b):
        # relu(1e308) scaled by 10 overflows to inf; the last case stays finite on one side
        def net(scale):
            return Mlp((
                MlpLayer(((0.0,),), (1e308,), Activation.RELU),
                MlpLayer(((scale,),), (0.0,), Activation.IDENTITY),
            ))

        report = assert_equiv(net(scale_a), net(scale_b), (-1.0, 1.0), samples=10)
        assert not report.passed
        assert report.max_abs_error == report.max_rel_error == float("inf")
        assert report.to_dict()["max_rel_error"] is None

    def test_reports_are_bit_identical(self):
        rng = random.Random(7)
        kan = random_kan(rng)
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        box = [(-5.0, 5.0)] * kan.input_dim
        first = assert_equiv(kan, mlp, box, samples=500, seed=11)
        second = assert_equiv(kan, mlp, box, samples=500, seed=11)
        assert dataclasses.astuple(first) == dataclasses.astuple(second)


class TestExact1D:
    def test_converted_network_certified(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        report = equiv_exact_1d(kan, mlp, tol=1e-9)
        assert report.passed
        assert report.max_abs_error <= 1e-12
        assert report.mode == "exact_1d"

    def test_spurious_breakpoint_normalized_away(self, identity_pl):
        plain = Kan((KanLayer(((identity_pl,),)),))
        padded = Kan((KanLayer(((PiecewiseLinear((0.25,), (1.0, 1.0), 0.0),),)),))
        assert equiv_exact_1d(plain, padded, tol=1e-9).passed

    def test_shifted_kink_fails(self, relu_pl):
        shifted = PiecewiseLinear((0.5,), (0.0, 1.0), 0.0)
        a = Kan((KanLayer(((relu_pl,),)),))
        b = Kan((KanLayer(((shifted,),)),))
        report = equiv_exact_1d(a, b, tol=1e-9)
        assert not report.passed

    @pytest.mark.parametrize(
        "cuts_a, cuts_b, witness",
        [
            ((0.0, 1.0), (0.0,), 1.0),  # extra cut on side a
            ((0.0,), (0.0, 1.0), 1.0),  # extra cut on side b
            ((0.0, 1.5), (0.0, 1.0), 1.0),  # shifted cut, side b's comes first
            ((-2.0, 0.0, 1.0), (0.0, 1.0 + 1e-12), -2.0),
        ],
    )
    def test_reports_first_unpaired_cut(self, cuts_a, cuts_b, witness):
        def kinked(cuts):
            slopes = tuple(float(i) for i in range(len(cuts) + 1))
            return Kan((KanLayer(((PiecewiseLinear(cuts, slopes, 0.0),),)),))

        for a, b in ((cuts_a, cuts_b), (cuts_b, cuts_a)):
            report = equiv_exact_1d(kinked(a), kinked(b), tol=1e-9)
            assert not report.passed
            assert report.worst_point == (witness,)
            assert report.samples == 0

    @pytest.mark.parametrize("other_weights", [(1.0, 0.0), (1.0, 1.0), (1e200, 1e200)])
    def test_overflowed_coefficients_fail(self, other_weights):
        # relu(1e200 * x) * 1e200 is +inf for x > 0.  Normalisation must not
        # merge the inf piece into its zero neighbour, and an inf coefficient
        # gives inf/inf = nan as a relative error, which never exceeds the max
        def net(w1, w2):
            return Mlp((
                MlpLayer(((w1,),), (0.0,), Activation.RELU),
                MlpLayer(((w2,),), (0.0,), Activation.IDENTITY),
            ))

        big = net(1e200, 1e200)
        other = net(*other_weights)
        for a, b in ((big, other), (other, big)):
            report = equiv_exact_1d(a, b, tol=1e-9)
            assert not report.passed
            assert report.max_abs_error == report.max_rel_error == float("inf")

    def test_exact_pass_implies_sampled_pass(self):
        rng = random.Random(13)
        for _ in range(25):
            kan = random_kan(rng, input_dim=1, output_dim=1, max_width=3, max_depth=2)
            mlp = kan_to_mlp(kan, ConversionMode.EXACT)
            if equiv_exact_1d(kan, mlp, tol=1e-9).passed:
                for box in ((-5.0, 5.0), (-1.0, 2.0)):
                    sampled = assert_equiv(kan, mlp, box, samples=400, tol=1e-9)
                    assert sampled.passed

    def test_certification_on_random_corpus(self):
        rng = random.Random(17)
        for _ in range(30):
            kan = random_kan(rng, input_dim=1, output_dim=1, max_width=3, max_depth=3)
            mlp = kan_to_mlp(kan, ConversionMode.EXACT)
            report = equiv_exact_1d(kan, mlp, tol=1e-9)
            assert report.passed, report
