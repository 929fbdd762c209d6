"""Exact 1-D region extraction, composition bound and the 2-D fingerprint."""
import math
import random
import sys

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
    PolySegmentSpline,
    SplineKan,
    UnsupportedDimensionError,
    ValidationError,
    composition_segment_bound,
    equiv_exact_1d,
    exact_regions_1d,
    grid_fingerprint_2d,
    kan_region_upper_bound,
    kan_to_mlp,
    relu_region_upper_bound,
)
from kanrelu.regions import Complex1D, Piece, _midpoint

from conftest import decimal_kans, random_kan, random_mlp, random_pl


def _kan_1d(rng, max_width=3, max_depth=2, max_segments=4):
    return random_kan(
        rng, input_dim=1, output_dim=1, max_width=max_width,
        max_depth=max_depth, max_segments=max_segments,
    )


class TestExactRegions1D:
    def test_three_segment_readoff(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        complex_1d = exact_regions_1d(kan)
        assert complex_1d.region_count == 3
        assert complex_1d.cut_points == (-1.0, 1.0)
        assert [p.slopes[0] for p in complex_1d.pieces] == [1.0, 2.0, 0.5]

    def test_affine_map_has_one_region(self):
        kan = Kan((KanLayer(((PiecewiseLinear((), (2.0,), -0.5),),)),))
        assert exact_regions_1d(kan).region_count == 1

    def test_composition_with_relu(self, three_segment_pl, relu_pl):
        kan = Kan((KanLayer(((relu_pl,),)), KanLayer(((three_segment_pl,),))))
        complex_1d = exact_regions_1d(kan)
        assert complex_1d.region_count == 3
        assert complex_1d.cut_points == (0.0, 1.0)
        pieces = complex_1d.pieces
        assert pieces[0].slopes[0] == 0.0 and pieces[0].intercepts[0] == 1.0
        assert pieces[1].slopes[0] == 2.0
        assert pieces[2].slopes[0] == 0.5
        assert complex_1d.region_count <= composition_segment_bound(3, 1) * 3

    def test_rejects_multivariate_input(self, identity_pl):
        kan = Kan((KanLayer(((identity_pl, identity_pl),)),))
        with pytest.raises(UnsupportedDimensionError):
            exact_regions_1d(kan)

    @pytest.mark.parametrize("build, message", [
        (lambda: Piece((1.0,), ()), "piece slopes and intercepts must have equal length"),
        (lambda: Complex1D((), ()), "piece count must be cut count + 1"),
        (lambda: Complex1D((1.0, 0.0), (Piece((0.0,), (0.0,)),) * 3), "cut points must be strictly increasing"),
        (lambda: Complex1D((0.0,), (Piece((1.0,), (0.0,)), Piece((2.0,), (5.0,)))),
         "complex is discontinuous at cut 0.0"),
        (lambda: Complex1D((math.nan,), (Piece((0.0,), (0.0,)), Piece((1.0,), (0.0,)))),
         "cut points must be finite, got nan"),
        (lambda: Complex1D((math.inf,), (Piece((0.0,), (0.0,)), Piece((1.0,), (0.0,)))),
         "cut points must be finite, got inf"),
        (lambda: exact_regions_1d(SplineKan((KanLayer(((PolySegmentSpline((), ((0.0, 1.0),), 1),),)),))),
         "unsupported network type SplineKan"),
    ], ids=["ragged_piece", "piece_count", "unordered_cuts", "discontinuous", "nan_cut", "inf_cut", "spline_kan"])
    def test_invalid_input_rejected(self, build, message):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_oracle_soundness_kan(self):
        rng = random.Random(101)
        for _ in range(10):
            kan = _kan_1d(rng)
            complex_1d = exact_regions_1d(kan)
            for i in range(1000):
                x = -5.0 + i * (10.0 / 999)
                want = kan.evaluate((x,))
                got = complex_1d.evaluate(x)
                for w, g in zip(want, got):
                    assert abs(w - g) <= 1e-9 * max(1.0, abs(w))

    def test_oracle_soundness_mlp(self):
        rng = random.Random(103)
        for _ in range(10):
            mlp = random_mlp(rng, input_dim=1, output_dim=1, max_width=3, max_depth=2)
            complex_1d = exact_regions_1d(mlp)
            for i in range(1000):
                x = -5.0 + i * (10.0 / 999)
                want = mlp.evaluate((x,))
                got = complex_1d.evaluate(x)
                for w, g in zip(want, got):
                    assert abs(w - g) <= 1e-9 * max(1.0, abs(w))

    def test_region_count_invariant_under_conversion(self):
        rng = random.Random(107)
        for _ in range(50):
            kan = _kan_1d(rng)
            mlp = kan_to_mlp(kan, ConversionMode.EXACT)
            assert exact_regions_1d(kan).region_count == exact_regions_1d(mlp).region_count

    def test_spurious_equal_slope_breakpoint_merges(self):
        spurious = PiecewiseLinear((0.5,), (1.0, 1.0), 0.0)
        kan = Kan((KanLayer(((spurious,),)),))
        assert exact_regions_1d(kan).region_count == 1

    def test_constant_piece_on_breakpoint_takes_right_segment(self, relu_pl):
        # a flat input piece landing exactly on the kink uses the right segment
        flat = PiecewiseLinear((), (0.0,), 0.0)
        two_slopes = PiecewiseLinear((0.0,), (-1.0, 3.0), 0.0)
        kan = Kan((KanLayer(((flat,),)), KanLayer(((two_slopes,),))))
        complex_1d = exact_regions_1d(kan)
        assert complex_1d.region_count == 1
        # right-segment formula at s=0: 3*0 + 0
        assert complex_1d.pieces[0].value(0.0) == (0.0,)

    def test_kink_beyond_2_53_keeps_its_end_piece(self):
        # one unit out from a cut at 1e17 rounds back onto it, so the left
        # piece took the right piece's form: 1 region, and -1e17 at 0
        kan = Kan((KanLayer(((PiecewiseLinear((1e17,), (0.0, 1.0), 0.0),),)),))
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        for net in (kan, mlp):
            complex_1d = exact_regions_1d(net)
            assert complex_1d.cut_points == (1e17,)
            assert complex_1d.region_count == 2
            for x in (0.0, -3e17, 3e17):
                assert complex_1d.evaluate(x) == kan.evaluate((x,))
        assert equiv_exact_1d(kan, mlp, tol=1e-9).passed

    def test_cuts_beyond_half_the_float_range(self):
        # the mean of two cuts past 9e307 overflowed to inf, and extraction
        # raised "complex is discontinuous at cut 1.5e+308"
        act = PiecewiseLinear((1.5e308, 1.6e308), (0.0, 1e-300, 0.0), 0.0)
        complex_1d = exact_regions_1d(Kan((KanLayer(((act,),)),)))
        assert complex_1d.cut_points == (1.5e308, 1.6e308)
        assert complex_1d.region_count == 3

    def test_slopes_that_cancel_to_rounding_keep_the_complex_continuous(self):
        # right of 0.2 the last hidden slopes sum to 0 in exact arithmetic but
        # to about 1e-21 in floats, which puts cuts near 1e15 and 6e17; the
        # pieces before them, whose slopes differ by 1e-24, were merged into
        # one that missed the next piece there by 2e-9, and the complex was
        # rejected as discontinuous
        relu, zeros = Activation.RELU, (0.0,) * 6
        mlp = Mlp((
            MlpLayer(((1.0,), (-1.0,)), (0.0, 0.0), relu),
            MlpLayer(((0.005, -0.005), (-0.005, 0.005), (0.0, 0.0), (0.0, 0.0), (0.005, -0.005), (0.005, -0.005)),
                     (0.0, 0.0, 0.0, 0.0, 0.0, -0.001), relu),
            MlpLayer((zeros, zeros, (-0.001, 0.001, 0.0, 0.0, 0.003, -0.002), (0.001, -0.001, 0.0, 0.0, -0.003, 0.002),
                      zeros, zeros, (-0.001, 0.001, 0.0, 0.0, 0.003, -0.002), (-0.001, 0.001, 0.0, 0.0, 0.003, -0.002)),
                     (0.0,) * 6 + (0.001, 0.0), relu),
            MlpLayer(((0.0, -0.0, -0.001, 0.001, 0.0, -0.0, 0.003, -0.002),), (0.0,), Activation.IDENTITY),
        ))
        complex_1d = exact_regions_1d(mlp)
        assert complex_1d.region_count <= relu_region_upper_bound(1, mlp.hidden_widths)
        for x in (-3.0, 0.1, 0.3, 7.0):
            assert complex_1d.evaluate(x)[0] == pytest.approx(mlp.evaluate((x,))[0], rel=1e-9, abs=1e-15)


_CUTS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [2.0**53, -1e17, 1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max]
)


@given(st.lists(_CUTS, min_size=1, max_size=4, unique=True))
@settings(max_examples=300, deadline=None)
def test_midpoint_lies_inside_its_piece(cuts):
    cuts.sort()
    ends = [-math.inf, *cuts, math.inf]
    for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
        old = cuts[0] - 1.0 if i == 0 else cuts[-1] + 1.0 if i == len(cuts) else 0.5 * (lo + hi)
        m = _midpoint(cuts, i)
        assert math.isfinite(m)
        if lo < old < hi:
            assert repr(m) == repr(old)  # the bits of the old midpoint where it was inside
        first_inside = math.nextafter(lo, math.inf) if lo > -math.inf else -sys.float_info.max
        if first_inside < hi:
            assert lo < m < hi


class TestCompositionBound:
    @pytest.mark.parametrize("k,k_prime,expected", [(2, 3, 6), (1, 7, 7), (4, 4, 16)])
    def test_product_values(self, k, k_prime, expected):
        assert composition_segment_bound(k, k_prime) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            composition_segment_bound(0, 3)

    def test_oracle_never_exceeds_product(self):
        rng = random.Random(109)
        for _ in range(100):
            f = random_pl(rng, max_segments=4)
            g = random_pl(rng, max_segments=3)
            kan = Kan((KanLayer(((f,),)), KanLayer(((g,),))))
            regions = exact_regions_1d(kan).region_count
            assert regions <= composition_segment_bound(f.segments, g.segments)


class TestBoundDomination:
    def test_kan_regions_within_bound(self):
        rng = random.Random(113)
        for _ in range(100):
            kan = _kan_1d(rng)
            widths = list(kan.widths[:-1])
            bound = kan_region_upper_bound(widths, kan.max_segments())
            assert exact_regions_1d(kan).region_count <= bound

    @given(decimal_kans(st.lists(st.integers(1, 3), max_size=2).map(lambda inner: [1, *inner, 1])))
    @settings(max_examples=300, deadline=None)
    def test_kan_and_its_mlp_regions_within_bounds(self, kan):
        bound = kan_region_upper_bound(kan.widths[:-1], kan.max_segments())
        assert exact_regions_1d(kan).region_count <= bound
        mlp = kan_to_mlp(kan, ConversionMode.EXACT)
        assert exact_regions_1d(mlp).region_count <= relu_region_upper_bound(1, mlp.hidden_widths)

    def test_mlp_regions_within_bound(self):
        rng = random.Random(127)
        for _ in range(100):
            mlp = random_mlp(rng, input_dim=1, output_dim=1, max_width=3, max_depth=2)
            bound = relu_region_upper_bound(1, list(mlp.hidden_widths))
            assert exact_regions_1d(mlp).region_count <= bound


class TestGridFingerprint:
    def test_pyramid_has_four_quadrants(self, relu_pl):
        kan = Kan((KanLayer(((relu_pl, relu_pl),)),))
        grid = grid_fingerprint_2d(kan, (-1.0, 1.0, -1.0, 1.0), 64)
        assert grid.estimated_regions == 4

    def test_affine_net_is_one_region(self):
        kan = Kan(
            (KanLayer(((PiecewiseLinear((), (2.0,), 0.0), PiecewiseLinear((), (-1.0,), 0.3)),)),)
        )
        for res in (8, 16, 64):
            assert grid_fingerprint_2d(kan, (-1.0, 1.0, -1.0, 1.0), res).estimated_regions == 1

    def test_estimate_respects_family_bound(self):
        rng = random.Random(131)
        for _ in range(15):
            kan = random_kan(rng, input_dim=2, output_dim=1, max_width=2,
                             max_depth=2, max_segments=2)
            widths = list(kan.widths[:-1])
            bound = kan_region_upper_bound(widths, kan.max_segments())
            grid = grid_fingerprint_2d(kan, (-2.0, 2.0, -2.0, 2.0), 32)
            assert grid.estimated_regions <= bound

    def test_rejects_wrong_dimension(self, identity_pl):
        kan = Kan((KanLayer(((identity_pl,),)),))
        with pytest.raises(UnsupportedDimensionError):
            grid_fingerprint_2d(kan, (-1.0, 1.0, -1.0, 1.0), 16)

    def test_rejects_tiny_resolution(self, relu_pl):
        kan = Kan((KanLayer(((relu_pl, relu_pl),)),))
        with pytest.raises(ValidationError):
            grid_fingerprint_2d(kan, (-1.0, 1.0, -1.0, 1.0), 4)

    def test_csv_header_and_size(self, relu_pl):
        kan = Kan((KanLayer(((relu_pl, relu_pl),)),))
        grid = grid_fingerprint_2d(kan, (-1.0, 1.0, -1.0, 1.0), 8)
        lines = grid.to_csv().splitlines()
        assert lines[0] == "x,y,fingerprint_id"
        assert len(lines) == 1 + 8 * 8
