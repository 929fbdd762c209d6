"""Shared fixtures and random model generators for the test suite."""
from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from kanrelu import Activation, Kan, KanLayer, Mlp, MlpLayer, PiecewiseLinear, PolySegmentSpline
from kanrelu.splines import poly_eval


def random_pl(
    rng: random.Random,
    max_segments: int = 6,
    slope_range: tuple[float, float] = (-2.0, 2.0),
    breakpoint_range: tuple[float, float] = (-3.0, 3.0),
    segments: int | None = None,
) -> PiecewiseLinear:
    n_seg = segments if segments is not None else rng.randint(1, max_segments)
    while True:
        breakpoints = sorted(rng.uniform(*breakpoint_range) for _ in range(n_seg - 1))
        if all(a < b for a, b in zip(breakpoints, breakpoints[1:])):
            break
    slopes = [rng.uniform(*slope_range) for _ in range(n_seg)]
    return PiecewiseLinear(tuple(breakpoints), tuple(slopes), rng.uniform(*slope_range))


# 3-decimal values, most of which no binary float holds exactly
DECIMALS = st.integers(-3000, 3000).map(lambda n: n / 1000)


@st.composite
def decimal_pls(draw, slopes=DECIMALS) -> PiecewiseLinear:
    """A PL function with up to five 3-decimal breakpoints and slopes drawn from ``slopes``."""
    breakpoints = tuple(sorted(draw(st.sets(DECIMALS, max_size=5))))
    n = len(breakpoints) + 1
    return PiecewiseLinear(breakpoints, tuple(draw(st.lists(slopes, min_size=n, max_size=n))), draw(DECIMALS))


@st.composite
def decimal_kans(draw, widths=st.lists(st.integers(1, 3), min_size=2, max_size=4)) -> Kan:
    """A KAN with layer widths drawn from ``widths`` (by default depth 1-3 and
    widths 1-3) whose activations are ``decimal_pls``."""
    widths = draw(widths)
    return Kan(tuple(
        KanLayer(tuple(tuple(draw(decimal_pls()) for _ in range(n_in)) for _ in range(n_out)))
        for n_in, n_out in zip(widths, widths[1:])
    ))


def random_kan(
    rng: random.Random,
    input_dim: int | None = None,
    max_width: int = 4,
    max_depth: int = 3,
    max_segments: int = 6,
    output_dim: int | None = None,
    segments: int | None = None,
) -> Kan:
    depth = rng.randint(1, max_depth)
    widths = [input_dim if input_dim is not None else rng.randint(1, max_width)]
    widths += [rng.randint(1, max_width) for _ in range(depth)]
    if output_dim is not None:
        widths[-1] = output_dim
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        rows = tuple(
            tuple(
                random_pl(rng, max_segments=max_segments, segments=segments)
                for _ in range(n_in)
            )
            for _ in range(n_out)
        )
        layers.append(KanLayer(rows))
    return Kan(tuple(layers))


def random_mlp(
    rng: random.Random,
    input_dim: int | None = None,
    max_width: int = 4,
    max_depth: int = 3,
    output_dim: int | None = None,
) -> Mlp:
    depth = rng.randint(1, max_depth)
    widths = [input_dim if input_dim is not None else rng.randint(1, max_width)]
    widths += [rng.randint(1, max_width) for _ in range(depth)]
    if output_dim is not None:
        widths[-1] = output_dim
    layers = []
    for i, (n_in, n_out) in enumerate(zip(widths, widths[1:])):
        weight = tuple(
            tuple(rng.uniform(-2.0, 2.0) for _ in range(n_in)) for _ in range(n_out)
        )
        bias = tuple(rng.uniform(-2.0, 2.0) for _ in range(n_out))
        activation = Activation.IDENTITY if i == depth - 1 else Activation.RELU
        layers.append(MlpLayer(weight, bias, activation))
    return Mlp(tuple(layers))


def random_spline(
    rng: random.Random, max_pieces: int = 4, max_degree: int = 3
) -> PolySegmentSpline:
    pieces = rng.randint(1, max_pieces)
    degree = rng.randint(0, max_degree)
    while True:
        breakpoints = sorted(rng.uniform(-2.0, 2.0) for _ in range(pieces - 1))
        if all(a < b for a, b in zip(breakpoints, breakpoints[1:])):
            break
    coeff_lists = []
    for i in range(pieces):
        coeffs = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]
        if i > 0:
            # adjust the constant term so the spline is exactly continuous
            b = breakpoints[i - 1]
            coeffs[0] += poly_eval(coeff_lists[i - 1], b) - poly_eval(coeffs, b)
        coeff_lists.append(tuple(coeffs))
    return PolySegmentSpline(tuple(breakpoints), tuple(coeff_lists), degree)


@pytest.fixture
def three_segment_pl() -> PiecewiseLinear:
    """Segments of slope 1, 2 and 0.5 kinked at -1 and 1, through the origin."""
    return PiecewiseLinear((-1.0, 1.0), (1.0, 2.0, 0.5), 0.0)


@pytest.fixture
def identity_pl() -> PiecewiseLinear:
    return PiecewiseLinear((), (1.0,), 0.0)


@pytest.fixture
def relu_pl() -> PiecewiseLinear:
    return PiecewiseLinear((0.0,), (0.0, 1.0), 0.0)


@pytest.fixture
def abs_mlp() -> Mlp:
    """Two relu units on x and -x summed: computes |x|."""
    return Mlp(
        (
            MlpLayer(((1.0,), (-1.0,)), (0.0, 0.0), Activation.RELU),
            MlpLayer(((1.0, 1.0),), (0.0,), Activation.IDENTITY),
        )
    )
