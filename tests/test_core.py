"""Core types: construction invariants and exact evaluation."""
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.vendor.pretty import pretty

from kanrelu import (
    Activation,
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
    eval_kan,
    eval_mlp,
    eval_pl,
    normalize_pl,
)

from conftest import DECIMALS, decimal_pls, random_pl


class TestPiecewiseLinearEval:
    def test_identity_function(self):
        f = PiecewiseLinear((), (1.0,), 0.0)
        assert eval_pl(f, 3.7) == 3.7

    def test_value_between_breakpoints(self, three_segment_pl):
        # value at the first kink is -1, then one unit at slope 2
        assert eval_pl(three_segment_pl, 0.0) == 1.0

    def test_value_past_last_breakpoint(self, three_segment_pl):
        # value at the second kink is 3, then one unit at slope 0.5
        assert eval_pl(three_segment_pl, 2.0) == 3.5

    def test_value_left_of_all_breakpoints(self, three_segment_pl):
        assert eval_pl(three_segment_pl, -2.0) == -2.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_input_rejected(self, bad, three_segment_pl):
        with pytest.raises(DomainError):
            eval_pl(three_segment_pl, bad)

    def test_single_segment_is_affine(self):
        f = PiecewiseLinear((), (1.75,), -0.25)
        for x in (-7.0, -0.5, 0.0, 3.25):
            assert eval_pl(f, x) == 1.75 * x - 0.25


class TestPiecewiseLinearInvariants:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValidationError):
            PiecewiseLinear((1.0, 1.0), (1.0, 2.0, 3.0), 0.0)

    def test_slope_count_must_match(self):
        with pytest.raises(ValidationError):
            PiecewiseLinear((0.0,), (1.0,), 0.0)

    def test_non_finite_fields_rejected(self):
        with pytest.raises(ValidationError):
            PiecewiseLinear((), (math.inf,), 0.0)

    def test_segments_accessor(self, three_segment_pl):
        assert three_segment_pl.segments == 3

    def test_continuity_at_breakpoints_random(self):
        rng = random.Random(7)
        for _ in range(50):
            f = random_pl(rng)
            offsets = f.segment_intercepts()
            for i, b in enumerate(f.breakpoints):
                left = f.slopes[i] * b + offsets[i]
                right = f.slopes[i + 1] * b + offsets[i + 1]
                assert abs(left - right) <= 1e-12 * max(1.0, abs(left), abs(right))

    def test_affine_within_each_segment_random(self):
        # finite differences at three collinear points inside one segment agree
        rng = random.Random(11)
        for _ in range(30):
            f = random_pl(rng)
            edges = (-4.0,) + f.breakpoints + (4.0,)
            for i in range(f.segments):
                lo, hi = edges[i], edges[i + 1]
                if not lo < hi:
                    continue
                xs = [lo + (hi - lo) * t for t in (0.25, 0.5, 0.75)]
                ys = [eval_pl(f, x) for x in xs]
                d1 = (ys[1] - ys[0]) / (xs[1] - xs[0])
                d2 = (ys[2] - ys[1]) / (xs[2] - xs[1])
                scale = max(1.0, abs(d1), abs(d2))
                assert abs(d1 - d2) <= 1e-12 * scale
                assert abs(d1 - f.slopes[i]) <= 1e-12 * scale

    @given(
        slopes=st.lists(st.floats(-5, 5), min_size=2, max_size=6),
        intercept=st.floats(-5, 5),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_continuity_property(self, slopes, intercept, data):
        n = len(slopes) - 1
        breakpoints = sorted(
            data.draw(
                st.lists(st.floats(-4, 4), min_size=n, max_size=n, unique=True)
            )
        )
        f = PiecewiseLinear(tuple(breakpoints), tuple(slopes), intercept)
        offsets = f.segment_intercepts()
        for i, b in enumerate(f.breakpoints):
            left = f.slopes[i] * b + offsets[i]
            right = f.slopes[i + 1] * b + offsets[i + 1]
            assert abs(left - right) <= 1e-9 * max(1.0, abs(left), abs(right))


def _merge_loop(f):
    """``normalize_pl`` as it was, a loop over slope pairs at its ``tol=0.0`` default."""
    slopes = [f.slopes[0]]
    breakpoints = []
    for b, s in zip(f.breakpoints, f.slopes[1:]):
        if abs(s - slopes[-1]) <= 0.0:
            continue
        breakpoints.append(b)
        slopes.append(s)
    return PiecewiseLinear(tuple(breakpoints), tuple(slopes), f.intercept)


def _hex(f):
    """``f``'s fields as exact text that tells -0.0 from 0.0."""
    return tuple(map(float.hex, f.breakpoints)), tuple(map(float.hex, f.slopes)), f.intercept.hex()


class TestKinks:
    @given(decimal_pls())
    @settings(max_examples=200, deadline=None)
    def test_slope_changes_are_the_rounded_differences(self, f):
        s = f.slopes
        assert [(b.hex(), d.hex()) for b, d in f.kinks] == [
            (b.hex(), (s[i + 1] - s[i]).hex()) for i, b in enumerate(f.breakpoints)
        ]

    def test_cached_and_read_only(self, three_segment_pl):
        f = PiecewiseLinear(three_segment_pl.breakpoints, three_segment_pl.slopes)
        assert "kinks" not in vars(f)
        assert f.kinks == ((-1.0, 1.0), (1.0, -1.5))
        assert f.kinks is vars(f)["kinks"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.kinks = ()


class TestNormalize:
    # repeated slopes, signed zeros, subnormals and slope changes that overflow
    _SLOPES = st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)),
        st.integers(-3, 3).map(lambda n: n / 10),
        DECIMALS,
    )

    @given(decimal_pls(slopes=_SLOPES))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_merge_loop_bit_for_bit(self, f):
        assert _hex(normalize_pl(f)) == _hex(_merge_loop(f))

    def test_merges_equal_slopes(self):
        f = PiecewiseLinear((0.0, 1.0), (1.0, 1.0, 2.0), 0.0)
        g = normalize_pl(f)
        assert g.breakpoints == (1.0,)
        assert g.slopes == (1.0, 2.0)
        for x in (-1.0, 0.5, 1.5):
            assert eval_pl(f, x) == eval_pl(g, x)

    def test_keeps_distinct_slopes(self, three_segment_pl):
        assert normalize_pl(three_segment_pl) == three_segment_pl


class TestKanEval:
    def test_single_layer_matches_activation(self, three_segment_pl):
        kan = Kan((KanLayer(((three_segment_pl,),)),))
        assert eval_kan(kan, (2.0,)) == (3.5,)

    def test_two_input_sum(self, identity_pl):
        kan = Kan((KanLayer(((identity_pl, identity_pl),)),))
        assert eval_kan(kan, (1.5, -0.5)) == (1.0,)

    def test_stacked_identities(self, identity_pl):
        kan = Kan(
            (KanLayer(((identity_pl,),)), KanLayer(((identity_pl,),)))
        )
        for x in (-3.0, 0.0, 2.25):
            assert eval_kan(kan, (x,)) == (x,)

    def test_row_sum_is_bitwise_reproducible(self):
        rng = random.Random(3)
        acts = tuple(random_pl(rng) for _ in range(4))
        kan = Kan((KanLayer((acts,)),))
        x = (0.3, -1.7, 2.2, 0.9)
        expected = 0.0
        for p, act in enumerate(acts):
            expected += eval_pl(act, x[p])
        assert eval_kan(kan, x) == (expected,)

    def test_dimension_mismatch(self, identity_pl):
        kan = Kan((KanLayer(((identity_pl, identity_pl),)),))
        with pytest.raises(ShapeError):
            eval_kan(kan, (1.0,))

    def test_layer_chaining_enforced(self, identity_pl):
        wide = KanLayer(((identity_pl,), (identity_pl,)))
        narrow = KanLayer(((identity_pl,),))
        with pytest.raises(ValidationError):
            Kan((wide, narrow))

    def test_zero_width_layer_rejected(self):
        with pytest.raises(ValidationError):
            KanLayer(())

    def test_ragged_grid_rejected(self, relu_pl):
        with pytest.raises(ValidationError, match="activation grid must be rectangular"):
            KanLayer(((relu_pl, relu_pl), (relu_pl,)))

    def test_activation_kinds_do_not_mix(self):
        pl = PiecewiseLinear((), (1.0,), 0.0)
        spline = PolySegmentSpline((), ((0.0, 1.0),), 1)
        with pytest.raises(ValidationError, match="all PiecewiseLinear or all PolySegmentSpline"):
            KanLayer(((pl, spline),))
        with pytest.raises(ValidationError, match="all PiecewiseLinear or all PolySegmentSpline"):
            KanLayer(((spline,), (1.0,)))
        with pytest.raises(ValidationError, match="KanLayers of PiecewiseLinear"):
            Kan((KanLayer(((spline,),)),))
        with pytest.raises(ValidationError, match="KanLayers of PolySegmentSpline"):
            SplineKan((KanLayer(((pl,),)),))
        with pytest.raises(ValidationError, match="KanLayers of PiecewiseLinear"):
            Kan((((pl,),),))
        for layer in (KanLayer(((pl,),)), "x"):
            with pytest.raises(ValidationError, match="Mlp layers must be MlpLayers"):
                Mlp((layer,))


    def test_hypothesis_prints_kan_chains(self):
        # a falsifying example prints through every dataclass field name, the
        # class-level ``layer_type`` and ``activation_type`` included
        pl = PiecewiseLinear((0.0,), (0.0, 1.0), 0.0)
        spline = PolySegmentSpline((0.0,), ((0.0,), (0.0, 1.0)), 1)
        for model in (Kan((KanLayer(((pl,),)),)), SplineKan((KanLayer(((spline,),)),))):
            text = pretty(model)
            assert text.startswith(f"{type(model).__name__}(layers=(KanLayer(")
            assert "layer_type=kanrelu.core.KanLayer" in text

class TestMlpEval:
    def test_abs_network(self, abs_mlp):
        assert eval_mlp(abs_mlp, (-3.0,)) == (3.0,)

    def test_abs_network_at_zero(self, abs_mlp):
        assert eval_mlp(abs_mlp, (0.0,)) == (0.0,)

    def test_pure_affine_layer(self):
        mlp = Mlp(
            (MlpLayer(((2.0, 0.0), (0.0, 2.0)), (1.0, 1.0), Activation.IDENTITY),)
        )
        assert eval_mlp(mlp, (1.0, 1.0)) == (3.0, 3.0)

    def test_last_layer_must_be_identity(self):
        with pytest.raises(ValidationError):
            Mlp((MlpLayer(((1.0,),), (0.0,), Activation.RELU),))

    def test_interior_layer_must_be_relu(self):
        with pytest.raises(ValidationError):
            Mlp(
                (
                    MlpLayer(((1.0,),), (0.0,), Activation.IDENTITY),
                    MlpLayer(((1.0,),), (0.0,), Activation.IDENTITY),
                )
            )

    def test_bias_length_checked(self):
        with pytest.raises(ValidationError):
            MlpLayer(((1.0,),), (0.0, 0.0), Activation.IDENTITY)

    def test_unknown_activation_rejected(self):
        # raised ValueError, unlike every other constructor check
        with pytest.raises(ValidationError, match="^activation must be 'relu' or 'identity', got 'bogus'$"):
            MlpLayer(((1.0,),), (0.0,), "bogus")
