"""Equivalence harness: sampling policy, exact 1-D mode, determinism."""
import dataclasses
import math
import random
from types import SimpleNamespace
from unittest import mock

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
    PiecewiseLinear,
    ShapeError,
    ValidationError,
    assert_equiv,
    equiv_exact_1d,
    halton_points,
    kan_to_mlp,
)
from kanrelu import equiv
from kanrelu.equiv import first_layer_input_breakpoints
from kanrelu.regions import _midpoint

from conftest import random_kan


class TestHalton:
    def test_deterministic(self):
        assert halton_points(2, 5, seed=0) == halton_points(2, 5, seed=0)

    def test_seed_shifts_sequence(self):
        assert halton_points(1, 5, seed=0) != halton_points(1, 5, seed=3)

    @pytest.mark.parametrize("seed", [-1, -7])
    def test_negative_seed_raises(self, seed):
        # it used to start at seed 0's first point, the same sweep
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            halton_points(2, 2, seed)
        kan = Kan((KanLayer(((PiecewiseLinear((0.0,), (0.0, 1.0)),),)),))
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            assert_equiv(kan, kan, (-1.0, 1.0), samples=4, seed=seed)

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

    def test_probes_outside_the_box_are_dropped(self):
        # paper mode is only valid for inputs >= 0; the probe left of the
        # breakpoint at -1.0 lies outside the box and failed the pair
        grid = ((PiecewiseLinear((-1.0, 1.0), (1.0, 2.0, 0.5), 0.0), PiecewiseLinear((0.5,), (-1.0, 3.0), 0.25)),)
        kan = Kan((KanLayer(grid),))
        mlp = kan_to_mlp(kan, ConversionMode.PAPER)
        report = assert_equiv(kan, mlp, ((0.0, 5.0), (0.0, 5.0)), samples=10)
        assert report.passed
        # two probes each around the kinks at 1.0 and 0.5; none around -1.0
        assert report.samples == 10 + 2 * 2
        # sample points at a negative first input still show the paper form's limit
        report = assert_equiv(kan, mlp, ((-0.5, 5.0), (0.0, 5.0)), samples=10)
        assert not report.passed

    def test_first_layer_breakpoints_of_mlp(self, abs_mlp):
        points = first_layer_input_breakpoints(abs_mlp)
        assert points == {0: [0.0, 0.0]} or points == {0: [-0.0, 0.0]} or points == {0: [0.0]}

    def test_shape_mismatch_rejected(self, three_segment_pl, identity_pl):
        one = Kan((KanLayer(((three_segment_pl,),)),))
        two = Kan((KanLayer(((identity_pl, identity_pl),)),))
        with pytest.raises(ShapeError):
            assert_equiv(one, two, (-1.0, 1.0), samples=10)

    @pytest.mark.parametrize("width, box, samples, message", [
        (1, (0.0, 1.0, 2.0), 10, "scalar box must be a (lo, hi) pair"),
        (2, [(0.0, 1.0)], 10, "box needs one (lo, hi) pair per dimension (2)"),
        (1, (0.0, 1.0), 0, "samples must be >= 1"),
    ], ids=["three_bounds", "one_pair_for_two_inputs", "no_samples"])
    def test_bad_box_or_samples_rejected(self, identity_pl, width, box, samples, message):
        kan = Kan((KanLayer(((identity_pl,) * width,)),))
        with pytest.raises(ValidationError) as info:
            assert_equiv(kan, kan, box, samples=samples)
        assert str(info.value) == message

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

    def test_pair_differing_beyond_a_far_kink_fails(self):
        # one unit left of the kink at -1e17 is the kink itself, so the left
        # pieces, which differ by 1e18 at -3e17, were never compared
        a = Kan((KanLayer(((PiecewiseLinear((-1e17,), (0.0, 1.0), 0.0),),)),))
        b = Kan((KanLayer(((PiecewiseLinear((-1e17,), (5.0, 1.0), 5e17),),)),))
        assert b.evaluate((-3e17,))[0] - a.evaluate((-3e17,))[0] == -1e18
        report = equiv_exact_1d(a, b, tol=1e-9)
        assert not report.passed
        assert report.worst_point[0] < -1e17

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


def _sampled_loop(compared):
    """``assert_equiv``'s comparison loop as it was before the shared scan."""
    max_abs = 0.0
    max_rel = 0.0
    worst = compared[0][0]
    for point, ya, yb in compared:
        point_rel = 0.0
        for va, vb in zip(ya, yb):
            abs_err = abs(va - vb)
            if math.isfinite(abs_err):
                rel_err = abs_err / (1.0 + max(abs(va), abs(vb)))
            else:
                abs_err = rel_err = math.inf
            if abs_err > max_abs:
                max_abs = abs_err
            if rel_err > point_rel:
                point_rel = rel_err
        if point_rel > max_rel or (point_rel == max_rel and point < worst):
            max_rel = point_rel
            worst = point
    return max_abs, max_rel, worst


def _exact_loop(cuts, pieces_a, pieces_b):
    """``equiv_exact_1d``'s comparison loop as it was before the shared scan."""
    max_abs = 0.0
    max_rel = 0.0
    worst_piece = 0
    compared = 0
    for i, (pa, pb) in enumerate(zip(pieces_a, pieces_b)):
        piece_rel = 0.0
        for va, vb in zip(pa.slopes + pa.intercepts, pb.slopes + pb.intercepts):
            compared += 1
            abs_err = abs(va - vb)
            if math.isfinite(abs_err):
                rel_err = abs_err / max(1.0, abs(va), abs(vb))
            else:
                abs_err = rel_err = math.inf
            max_abs = max(max_abs, abs_err)
            piece_rel = max(piece_rel, rel_err)
        if piece_rel > max_rel:
            max_rel = piece_rel
            worst_piece = i
    return max_abs, max_rel, (_midpoint(cuts, worst_piece),), compared


# few distinct values, so errors tie often
_OUTPUTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e308, -1e308, math.inf, -math.inf, math.nan]) | st.floats()
_TOLS = st.sampled_from([0.0, 1e-9, 0.5, math.inf])
# each mode's comparison of two 1-input networks at a tolerance
_MODES = {
    "sampled": lambda a, b, tol: assert_equiv(a, b, (-5.0, 5.0), samples=20, tol=tol),
    "exact_1d": lambda a, b, tol: equiv_exact_1d(a, b, tol=tol),
}


def _vectors(width, count):
    return st.lists(st.lists(_OUTPUTS, min_size=width, max_size=width).map(tuple), min_size=count, max_size=count)


class _Table:
    """A 1-input network that returns a fixed output vector at each listed point."""

    input_dim = 1

    def __init__(self, outputs):
        self.outputs = outputs
        self.output_dim = len(next(iter(outputs.values())))

    def evaluate(self, point):
        return self.outputs[tuple(point)]


class TestSharedScan:
    def test_sampled_tie_goes_to_the_smallest_point(self):
        kan = Kan((KanLayer(((PiecewiseLinear((0.5,), (1.0, 2.0), 0.0),),)),))
        report = assert_equiv(kan, kan, (0.0, 1.0), samples=20)
        assert report.max_rel_error == 0.0
        assert report.worst_point == (0.03125,)

    def test_exact_tie_goes_to_the_first_piece(self):
        kan = Kan((KanLayer(((PiecewiseLinear((0.5,), (1.0, 2.0), 0.0),),)),))
        report = equiv_exact_1d(kan, kan)
        assert report.max_rel_error == 0.0
        assert report.worst_point == (-0.5,)

    @pytest.mark.parametrize("tol", [math.nan, -1e-8, -math.inf])
    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_negative_or_nan_tol_rejected(self, three_segment_pl, mode, tol):
        # a NaN tol used to fail identical networks with max_rel_error 0.0
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        with pytest.raises(ValidationError) as info:
            _MODES[mode](kan, kan, tol)
        assert str(info.value) == f"tol must be >= 0, got {tol}"

    @pytest.mark.parametrize("mode", sorted(_MODES))
    def test_zero_tol_passes_identical_networks(self, three_segment_pl, mode):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        report = _MODES[mode](kan, kan, 0.0)
        assert report.passed and report.max_rel_error == 0.0

    @given(st.integers(1, 3), st.integers(1, 12), _TOLS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_sampled_mode_matches_the_old_loop(self, width, samples, tol, data):
        # box [0, 1] maps each Halton point to itself; a _Table has no kinks, so no probes
        points = halton_points(1, samples)
        ya, yb = data.draw(_vectors(width, samples)), data.draw(_vectors(width, samples))
        report = assert_equiv(_Table(dict(zip(points, ya))), _Table(dict(zip(points, yb))), (0.0, 1.0), samples, tol)
        max_abs, max_rel, worst = _sampled_loop(list(zip(points, ya, yb)))
        expected = (max_abs, max_rel, worst, samples, max_rel <= tol, "sampled")
        assert repr(dataclasses.astuple(report)) == repr(expected)

    @given(st.integers(1, 3), st.lists(st.floats(-1e6, 1e6), max_size=5, unique=True), _TOLS, st.data())
    @settings(max_examples=300, deadline=None)
    def test_exact_mode_matches_the_old_loop(self, width, cuts, tol, data):
        cuts = tuple(sorted(cuts))
        count = len(cuts) + 1

        def complex_1d():
            slopes, intercepts = data.draw(_vectors(width, count)), data.draw(_vectors(width, count))
            pieces = tuple(SimpleNamespace(slopes=s, intercepts=b) for s, b in zip(slopes, intercepts))
            return SimpleNamespace(cut_points=cuts, pieces=pieces, output_dim=width)

        ca, cb = complex_1d(), complex_1d()
        # the complexes stand in for the networks, so each is its own region complex
        with mock.patch.object(equiv, "exact_regions_1d", lambda net: net):
            report = equiv_exact_1d(ca, cb, tol)
        max_abs, max_rel, worst, compared = _exact_loop(cuts, ca.pieces, cb.pieces)
        expected = (max_abs, max_rel, worst, compared, max_rel <= tol, "exact_1d")
        assert repr(dataclasses.astuple(report)) == repr(expected)
