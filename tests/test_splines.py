"""Spline activations, the monomial-relu lowering and the reverse embedding."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanrelu import (
    Activation,
    Mlp,
    MlpLayer,
    MonomialReluBlock,
    MonomialReluNetwork,
    PolySegmentSpline,
    ValidationError,
    bspline_from_knots,
    bspline_to_monomial_relu,
    eval_monomial_relu,
    mlp_to_kan,
    monomial_relu_to_spline_kan,
    shift_poly,
)
from kanrelu.splines import MAX_DEGREE, poly_eval

from conftest import random_spline

NAN, INF = math.nan, math.inf


class TestShiftPoly:
    def test_square_shifted_by_one(self):
        assert shift_poly((0.0, 0.0, 1.0), 1.0) == (1.0, 2.0, 1.0)

    def test_zero_shift_is_identity(self):
        coeffs = (0.3, -1.2, 0.0, 2.5)
        assert shift_poly(coeffs, 0.0) == coeffs

    def test_linear_shift(self):
        assert shift_poly((3.0, 2.0), -1.0) == (1.0, 2.0)

    @given(
        coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6),
        b=st.floats(-2, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, coeffs, b):
        back = shift_poly(shift_poly(coeffs, b), -b)
        for orig, recovered in zip(coeffs, back):
            assert abs(orig - recovered) <= 1e-12 * max(1.0, abs(orig))

    def test_empty_polynomial_rejected(self):
        with pytest.raises(ValidationError, match="polynomial needs at least one coefficient"):
            shift_poly((), 1.0)

    def test_degree_preserved(self):
        rng = random.Random(71)
        for _ in range(20):
            n = rng.randint(1, 6)
            coeffs = [rng.uniform(-1, 1) for _ in range(n)]
            assert len(shift_poly(coeffs, rng.uniform(-2, 2))) == n


class TestSplineType:
    def test_continuity_enforced(self):
        with pytest.raises(ValidationError):
            PolySegmentSpline((0.0,), ((0.0,), (1.0,)), 0)

    def test_degree_cap(self):
        with pytest.raises(ValidationError):
            PolySegmentSpline((), ((0.0,) * 7,), 6)

    def test_breakpoints_must_increase(self):
        # the spline's own call of the order check, which PL tests do not reach
        with pytest.raises(ValidationError, match="breakpoints must be strictly increasing"):
            PolySegmentSpline((1.0, 0.0), ((0.0,),) * 3, 0)

    def test_piece_degree_within_bound(self):
        with pytest.raises(ValidationError):
            PolySegmentSpline((), ((0.0, 0.0, 1.0),), 1)

    @pytest.mark.parametrize("degree", [2.5, True])
    def test_degree_bound_must_be_an_int(self, degree):
        # a file cannot hold these degrees, so a saved spline would not load
        with pytest.raises(ValidationError, match="integer"):
            PolySegmentSpline((), ((0.0, 1.0),), degree)
        with pytest.raises(ValidationError, match="integer"):
            MonomialReluBlock(((1.0,), (1.0,)), (0.0, 0.0), degree)

    def test_continuity_tolerance_scales_with_terms(self):
        # close random knots leave rounding in the monomial pieces of up to
        # 4e-14 of their terms sum |c_j| |b|^j, which is more than 1e-9 of
        # the value they sum to at some breakpoints
        rng = random.Random(1)
        for _ in range(200):
            knots = sorted(rng.uniform(-3.0, 3.0) for _ in range(20))
            spline = bspline_from_knots(knots, [rng.uniform(-1.0, 1.0) for _ in range(16)], 3)
        # a real jump of 1e-6 of the terms is still one
        b = spline.breakpoints[0]
        size = sum(abs(c) * abs(b) ** j for coeffs in spline.piece_coeffs[:2] for j, c in enumerate(coeffs))
        pieces = list(spline.piece_coeffs)
        pieces[1] = (pieces[1][0] + 1e-6 * size,) + pieces[1][1:]
        with pytest.raises(ValidationError, match="discontinuous"):
            PolySegmentSpline(spline.breakpoints, tuple(pieces), 3)

    def test_breakpoint_goes_to_right_piece(self):
        s = PolySegmentSpline((0.0,), ((0.0, 1.0), (0.0, 0.0, 1.0)), 2)
        assert s.evaluate(0.0) == 0.0
        assert s.evaluate(2.0) == 4.0
        assert s.evaluate(-2.0) == -2.0


class TestMonomialRelu:
    def test_polynomial_block_value(self):
        # all three pre-activations carry x; powers give (1, x, x^2)
        block = MonomialReluBlock(((1.0,), (1.0,), (1.0,)), (0.0, 0.0, 0.0), 2)
        net = MonomialReluNetwork((block,), ((1.0, 0.0, 1.0),), (0.0,))
        assert eval_monomial_relu(net, (2.0,)) == (5.0,)

    def test_zero_readout(self):
        block = MonomialReluBlock(((1.0,), (1.0,)), (0.0, 0.0), 1)
        net = MonomialReluNetwork((block,), ((0.0, 0.0),), (0.0,))
        for x in (-2.0, 0.0, 1.5):
            assert eval_monomial_relu(net, (x,)) == (0.0,)

    def test_shifted_polynomial_clamps_below_threshold(self):
        # group computing P(b + relu(x - b)) is constant P(b) for x <= b
        rng = random.Random(73)
        coeffs = tuple(rng.uniform(-1, 1) for _ in range(3))
        b = 0.75
        shifted = shift_poly(coeffs, b)
        block = MonomialReluBlock(((1.0,), (1.0,), (1.0,)), (-b, -b, -b), 2)
        net = MonomialReluNetwork((block,), ((0.0,) + shifted[1:3],), (shifted[0],))
        for x in (b - 2.0, b - 0.5, b):
            got = eval_monomial_relu(net, (x,))[0]
            want = poly_eval(coeffs, b)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        for x in (b + 0.5, b + 2.0):
            got = eval_monomial_relu(net, (x,))[0]
            want = poly_eval(coeffs, x)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_power_beyond_float_range_is_inf(self):
        # float ** int raises OverflowError where float * float gives inf
        block = MonomialReluBlock(((1.0,), (1.0,), (1.0,)), (0.0, 0.0, 0.0), 2)
        assert block.apply((1e200,)) == (1.0, 1e200, float("inf"))
        assert block.apply((3.0,)) == (1.0, 3.0, 9.0)

    def test_width_must_be_group_multiple(self):
        with pytest.raises(ValidationError):
            MonomialReluBlock(((1.0,), (1.0,)), (0.0, 0.0), 2)


class TestSplineLowering:
    def test_square_flip_example(self):
        s = PolySegmentSpline((0.0,), ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), 2)
        net = bspline_to_monomial_relu(s)
        got = [eval_monomial_relu(net, (x,))[0] for x in (-1.0, 0.0, 1.0)]
        assert got == [1.0, 0.0, -1.0]

    def test_single_piece_is_exact(self):
        rng = random.Random(79)
        for _ in range(10):
            coeffs = tuple(rng.uniform(-1, 1) for _ in range(4))
            s = PolySegmentSpline((), (coeffs,), 3)
            net = bspline_to_monomial_relu(s)
            assert net.blocks[0].groups == 2  # no breakpoint groups
            for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
                want = poly_eval(coeffs, x)
                got = eval_monomial_relu(net, (x,))[0]
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_degree_one_matches_pl_conversion(self):
        # a 2-piece degree-1 spline is a piecewise linear function; its
        # monomial lowering and the relu-unit lowering must agree
        from kanrelu import ConversionMode, Kan, KanLayer, PiecewiseLinear, kan_to_mlp

        s = PolySegmentSpline((0.5,), ((0.2, 1.0), (0.2 + 0.5 * (1.0 - (-2.0)), -2.0)), 1)
        f = PiecewiseLinear((0.5,), (1.0, -2.0), 0.2)
        net = bspline_to_monomial_relu(s)
        mlp = kan_to_mlp(Kan((KanLayer(((f,),)),)), ConversionMode.EXACT)
        for i in range(100):
            x = -3.0 + i * (6.0 / 99)
            a = eval_monomial_relu(net, (x,))[0]
            b = mlp.evaluate((x,))[0]
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_random_spline_lowering_error(self):
        rng = random.Random(83)
        for _ in range(25):
            s = random_spline(rng)
            net = bspline_to_monomial_relu(s)
            probes = [-4.0 + i * (8.0 / 499) for i in range(500)]
            for b in s.breakpoints:
                probes.extend((b - 1e-6, b, b + 1e-6))
            for x in probes:
                want = s.evaluate(x)
                got = eval_monomial_relu(net, (x,))[0]
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    def test_telescoping_partial_cancellation(self):
        # below each breakpoint the later difference terms evaluate to the
        # continuity defect, which is zero for exactly continuous splines
        rng = random.Random(89)
        for _ in range(20):
            s = random_spline(rng, max_pieces=4)
            net = bspline_to_monomial_relu(s)
            width = s.degree_bound + 1
            readout = net.readout_weight[0]
            for i, b in enumerate(s.breakpoints):
                group = readout[(2 + i) * width : (3 + i) * width]
                for x in [b - 0.3, b - 1.1, b]:
                    # the group's contribution at relu(x - b) = 0
                    contribution = group[0] * 1.0
                    assert abs(contribution) <= 1e-7
            # and the running partial sums reproduce each segment
            edges = (-3.0,) + s.breakpoints + (3.0,)
            for seg in range(s.pieces):
                lo, hi = edges[seg], edges[seg + 1]
                for t in range(10):
                    x = lo + (hi - lo) * (t + 0.5) / 10
                    want = poly_eval(s.piece_coeffs[seg], x)
                    got = eval_monomial_relu(net, (x,))[0]
                    assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    def test_overflowing_shift_rejected(self):
        # (1e100) ** 4 raises OverflowError in float ** int
        s = PolySegmentSpline((1e100,), ((0.0, 0, 0, 0, 1.0), (0.0, 0, 0, 0, 1.0)), 4)
        with pytest.raises(ValidationError, match="overflows"):
            bspline_to_monomial_relu(s)
        # a product that overflows to inf is rejected by the network check
        s = PolySegmentSpline((1e77,), ((0.0, 0, 0, 1e300), (0.0, 0, 0, 1e300)), 3)
        with pytest.raises(ValidationError, match="finite"):
            bspline_to_monomial_relu(s)


class TestReverseEmbedding:
    def test_identity_block_round_trip(self):
        block = MonomialReluBlock(((1.0,), (1.0,)), (0.0, 0.0), 1)
        net = MonomialReluNetwork((block,), ((0.0, 1.0),), (0.0,))
        kan = monomial_relu_to_spline_kan(net)
        for x in (0.1, 0.7, 2.0):
            assert abs(kan.evaluate((x,))[0] - x) <= 1e-12

    def test_square_flip_round_trip(self):
        s = PolySegmentSpline((0.0,), ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), 2)
        net = bspline_to_monomial_relu(s)
        kan = monomial_relu_to_spline_kan(net)
        got = [kan.evaluate((x,))[0] for x in (-1.0, 0.0, 1.0)]
        assert got == [1.0, 0.0, -1.0]

    def test_agreement_on_probe_grid(self):
        rng = random.Random(97)
        for _ in range(10):
            s = random_spline(rng)
            net = bspline_to_monomial_relu(s)
            kan = monomial_relu_to_spline_kan(net)
            for i in range(60):
                x = -3.0 + i * (6.0 / 59)
                want = eval_monomial_relu(net, (x,))[0]
                got = kan.evaluate((x,))[0]
                assert abs(got - want) <= 1e-7 * max(1.0, abs(want))

    def test_two_block_network(self):
        # block 1 gives (1, h, 1, g) with h = relu(x), g = relu(0.5 - x); block 2
        # gives (1, relu(h - g), relu(h - 0.5)^2, 1, g, relu(0.25 - h)^2)
        first = MonomialReluBlock(((0.0,), (1.0,), (0.0,), (-1.0,)), (0.0, 0.0, 0.0, 0.5), 1)
        second = MonomialReluBlock(
            ((0.0,) * 4, (0.0, 1.0, 0.0, -1.0), (0.5, 1.0, 0.0, 0.0),
             (0.0,) * 4, (0.0, 0.0, 0.0, 1.0), (0.0, -1.0, 0.25, 0.0)),
            (0.0, 0.0, -1.0, 0.0, 0.0, 0.0), 2,
        )
        net = MonomialReluNetwork((first, second), ((0.5, 1.0, -1.0, 0.0, 2.0, 1.0),), (0.25,))
        kan = monomial_relu_to_spline_kan(net)
        assert len(kan.layers) == 7
        for i in range(41):
            x = -2.0 + i * 0.1
            h, g = max(x, 0.0), max(0.5 - x, 0.0)
            want = 0.75 + max(h - g, 0.0) - max(h - 0.5, 0.0) ** 2 + 2.0 * g + max(0.25 - h, 0.0) ** 2
            got = eval_monomial_relu(net, (x,))[0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert abs(kan.evaluate((x,))[0] - got) <= 1e-12 * max(1.0, abs(got))
        with pytest.raises(ValidationError, match="^block widths must chain$"):
            MonomialReluNetwork((second, first), ((0.0, 1.0, -0.5, 0.0),), (0.0,))

    def test_relu_network_consistency(self):
        # r=1 blocks reduce to an mlp; the spline embedding then agrees with
        # the piecewise linear conversion semantics
        rng = random.Random(101)
        w0 = [rng.uniform(-2, 2) for _ in range(2)]
        b0 = [rng.uniform(-1, 1) for _ in range(2)]
        w1 = [rng.uniform(-2, 2) for _ in range(2)]
        b1 = rng.uniform(-1, 1)
        mlp = Mlp(
            (
                MlpLayer(((w0[0],), (w0[1],)), tuple(b0), Activation.RELU),
                MlpLayer((tuple(w1),), (b1,), Activation.IDENTITY),
            )
        )
        rows = []
        bias = []
        for h in range(2):
            rows.extend(((0.0,), (w0[h],)))
            bias.extend((0.0, b0[h]))
        block = MonomialReluBlock(tuple(rows), tuple(bias), 1)
        readout = (0.0, w1[0], 0.0, w1[1])
        net = MonomialReluNetwork((block,), (readout,), (b1,))
        spline_kan = monomial_relu_to_spline_kan(net)
        pl_kan = mlp_to_kan(mlp)
        for i in range(50):
            x = -3.0 + i * (6.0 / 49)
            a = spline_kan.evaluate((x,))[0]
            b = pl_kan.evaluate((x,))[0]
            c = mlp.evaluate((x,))[0]
            assert abs(a - c) <= 1e-9 * max(1.0, abs(c))
            assert abs(b - c) <= 1e-9 * max(1.0, abs(c))


def _full_table_bspline(knots, coefficients, degree):
    """The reference: every basis on every knot interval at every degree,
    then the control-weighted sum over the interior of the knot span."""
    t = [float(v) for v in knots]
    c = [float(v) for v in coefficients]
    r = int(degree)
    if r < 0 or r > MAX_DEGREE:
        raise ValidationError(f"degree must be between 0 and {MAX_DEGREE}")
    if any(a > b for a, b in zip(t, t[1:])):
        raise ValidationError("knots must be non-decreasing")
    n = len(t) - r - 1
    if n < 1 or len(c) != n:
        raise ValidationError("coefficient count must be len(knots) - degree - 1")

    def mul_linear(coeffs, c0, c1):
        out = [0.0] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            out[i] += a * c0
            out[i + 1] += a * c1
        return out

    intervals = len(t) - 1
    # basis[i][j]: polynomial of basis i on interval [t_j, t_{j+1}), None when zero
    basis = [[([1.0] if j == i and t[i] < t[i + 1] else None) for j in range(intervals)]
             for i in range(len(t) - 1)]
    for d in range(1, r + 1):
        next_basis = []
        for i in range(len(t) - d - 1):
            row = [None] * intervals
            left_den = t[i + d] - t[i]
            right_den = t[i + d + 1] - t[i + 1]
            for j in range(intervals):
                acc = None
                if left_den > 0.0 and basis[i][j] is not None:
                    acc = mul_linear(basis[i][j], -t[i] / left_den, 1.0 / left_den)
                if right_den > 0.0 and basis[i + 1][j] is not None:
                    term = mul_linear(basis[i + 1][j], t[i + d + 1] / right_den, -1.0 / right_den)
                    acc = term if acc is None else [x + y for x, y in zip(acc, term)]
                row[j] = acc
            next_basis.append(row)
        basis = next_basis

    pieces, boundaries = [], []
    for j in range(r, n):
        if t[j] == t[j + 1]:
            continue
        acc = [0.0] * (r + 1)
        for i in range(max(0, j - r), min(n, j + 1)):
            if basis[i][j] is not None:
                for deg, a in enumerate(basis[i][j]):
                    acc[deg] += c[i] * a
        if pieces:
            boundaries.append(t[j])
        pieces.append(tuple(acc))
    if not pieces:
        raise ValidationError("knot vector has no interior span")
    return PolySegmentSpline(tuple(boundaries), tuple(pieces), r)


@st.composite
def _knot_inputs(draw):
    """Knots each repeated up to degree + 1 times, the end knots sometimes
    degree + 1 times (a clamped vector), sometimes out of order, and a
    coefficient count that is sometimes off by one."""
    degree = draw(st.integers(0, MAX_DEGREE))
    distinct = sorted(draw(st.sets(st.floats(-3.0, 3.0), min_size=2, max_size=10)))
    clamped = draw(st.booleans())
    knots = [
        k for i, k in enumerate(distinct)
        for _ in range(degree + 1 if clamped and i in (0, len(distinct) - 1) else draw(st.integers(1, degree + 1)))
    ]
    if draw(st.integers(0, 9)) == 0:
        knots = draw(st.permutations(knots))
    count = max(0, len(knots) - degree - 1 + draw(st.sampled_from([0] * 8 + [1, -1])))
    coefficients = draw(st.lists(st.floats(-2.0, 2.0), min_size=count, max_size=count))
    return knots, coefficients, degree


def _spline_bits(build, *args):
    """The hex of every breakpoint and coefficient of ``build(*args)``, or its error message."""
    try:
        s = build(*args)
    except ValidationError as e:
        return str(e)
    return [b.hex() for b in s.breakpoints], [[a.hex() for a in piece] for piece in s.piece_coeffs], s.degree_bound


class TestKnotLoader:
    @given(_knot_inputs())
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_full_basis_table(self, inputs):
        # only the bases live on an interval are built, with the same float operations
        assert _spline_bits(bspline_from_knots, *inputs) == _spline_bits(_full_table_bspline, *inputs)

    @staticmethod
    def _naive_basis(x, k, i, t):
        if k == 0:
            return 1.0 if t[i] <= x < t[i + 1] else 0.0
        c1 = 0.0
        if t[i + k] != t[i]:
            c1 = (x - t[i]) / (t[i + k] - t[i]) * TestKnotLoader._naive_basis(x, k - 1, i, t)
        c2 = 0.0
        if t[i + k + 1] != t[i + 1]:
            c2 = (
                (t[i + k + 1] - x)
                / (t[i + k + 1] - t[i + 1])
                * TestKnotLoader._naive_basis(x, k - 1, i + 1, t)
            )
        return c1 + c2

    @pytest.mark.parametrize("degree, interior", [
        *(pytest.param(degree, None, id=str(degree)) for degree in (1, 2, 3)),
        # a knot repeated no more than ``degree`` times: a zero-length interval
        *(pytest.param(degree, [1.0, 2.0, 2.0, 3.0], id=f"{degree}-repeated") for degree in (2, 3)),
    ])
    def test_matches_recursive_basis_evaluation(self, degree, interior):
        rng = random.Random(111)
        if interior is None:
            interior = sorted(rng.uniform(0.5, 3.5) for _ in range(3))
        t = [0.0] * (degree + 1) + interior + [4.0] * (degree + 1)
        n = len(t) - degree - 1
        c = [rng.uniform(-2, 2) for _ in range(n)]
        spline = bspline_from_knots(t, c, degree)
        for i in range(300):
            x = 0.001 + i * (3.997 / 299)
            want = sum(ci * self._naive_basis(x, degree, j, t) for j, ci in enumerate(c))
            got = spline.evaluate(x)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_knot_repeated_degree_plus_one_times_is_discontinuous(self):
        t = [0.0, 0.0, 1.0, 2.0, 2.0, 3.0, 4.0, 4.0]
        rng = random.Random(111)
        c = [rng.uniform(-2, 2) for _ in range(len(t) - 2)]
        with pytest.raises(ValidationError, match="discontinuous at breakpoint 2.0"):
            bspline_from_knots(t, c, 1)

    def test_coefficient_count_checked(self):
        with pytest.raises(ValidationError):
            bspline_from_knots([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1)

    def test_degree_cap_applies(self):
        t = [0.0] * 7 + [1.0] * 7
        with pytest.raises(ValidationError):
            bspline_from_knots(t, [1.0] * 7, 6)

    @pytest.mark.parametrize("knots, coefficients, degree, message", [
        # a NaN knot compares false both ways, so it passed the order check
        # and gave a zero or a truncated spline
        ([0, 1, NAN, 3, 4, 5], [1.0] * 3, 2, "knots must be finite, got nan"),
        ([NAN, 0, 1, 2, 3, 4], [1.0] * 4, 1, "knots must be finite, got nan"),
        ([0, 1, 2, 3, INF, INF], [1.0] * 3, 2, "knots must be finite, got inf"),
        ([0, 1, 2, 3, 4, 5], [1.0, NAN, 1.0], 2, "coefficients must be finite, got nan"),
        # these ran as degree 1
        ([0, 1, 2, 3, 4, 5], [1.0] * 4, 1.9, "degree must be an integer, got 1.9"),
        ([0, 1, 2, 3, 4, 5], [1.0] * 4, True, "degree must be an integer, got True"),
        # t[2] - t[1] overflows to inf, which divided the basis to zero: a zero spline
        ([-1e308, -1e308, 1e308, 1e308], [1.0, 1.0], 1, "knot span -1e+308 to 1e+308 overflows"),
    ], ids=["nan_inner_knot", "nan_first_knot", "inf_knots", "nan_coefficient", "float_degree", "bool_degree",
            "overflowing_span"])
    def test_bad_input_fails_loudly(self, knots, coefficients, degree, message):
        with pytest.raises(ValidationError) as info:
            bspline_from_knots(knots, coefficients, degree)
        assert str(info.value) == message

    def test_huge_knots_with_finite_spans_are_kept(self):
        # every span the recursion divides by is finite, though the knots reach ±1e308
        spline = bspline_from_knots([-1e308, 0.0, 1.0, 1e308], [1.0, 1.0], 1)
        assert spline.piece_coeffs == ((1.0, 0.0),)
