"""Seeded model generators for the benchmark.

The benchmark builds its own inputs instead of importing tests/conftest.py,
which would pull in pytest.  Every generator draws only from the
``random.Random`` it is given, so one seed always yields the same models.
"""
from __future__ import annotations

import random

from kanrelu.core import Kan, KanLayer, PiecewiseLinear


def random_pl(rng: random.Random, segments: int, monotone: bool = False) -> PiecewiseLinear:
    """A PL activation with ``segments`` pieces and breakpoints in [-3, 3].

    Monotone activations have slopes in [0.5, 1.5], so a chain of them maps
    the real line onto the real line and crosses every later breakpoint
    exactly once.
    """
    while True:
        breakpoints = sorted(rng.uniform(-3.0, 3.0) for _ in range(segments - 1))
        if all(a < b for a, b in zip(breakpoints, breakpoints[1:])):
            break
    lo, hi = (0.5, 1.5) if monotone else (-2.0, 2.0)
    slopes = tuple(rng.uniform(lo, hi) for _ in range(segments))
    return PiecewiseLinear(tuple(breakpoints), slopes, rng.uniform(-2.0, 2.0))


def random_kan(
    rng: random.Random, widths: tuple[int, ...], segments: int, monotone: bool = False
) -> Kan:
    """A KAN with the given widths and ``segments`` pieces per activation."""
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        rows = tuple(
            tuple(random_pl(rng, segments, monotone) for _ in range(n_in)) for _ in range(n_out)
        )
        layers.append(KanLayer(rows))
    return Kan(tuple(layers))


def perturb_kan_slope(kan: Kan, q: int, p: int, delta: float) -> Kan:
    """Copy of ``kan`` with the first slope of last-layer activation [q][p] moved by delta."""
    last = kan.layers[-1]
    act = last.activations[q][p]
    changed = PiecewiseLinear(act.breakpoints, (act.slopes[0] + delta,) + act.slopes[1:], act.intercept)
    rows = tuple(
        tuple(changed if (i, j) == (q, p) else a for j, a in enumerate(row))
        for i, row in enumerate(last.activations)
    )
    return Kan(kan.layers[:-1] + (KanLayer(rows),))


def grid_knots(rng: random.Random, count: int) -> list[float]:
    """``count`` evenly spaced knots near [-3, 3], the uniform grid KAN splines use.

    Random knots are not used: kanrelu's bspline_from_knots rejects some
    splines with knot gaps of about 1e-3 as discontinuous (rounding in the
    monomial pieces exceeds its 1e-9 continuity tolerance).
    """
    start, step = rng.uniform(-3.5, -2.5), rng.uniform(0.28, 0.34)
    return [start + i * step for i in range(count)]


def random_points(rng: random.Random, dim: int, count: int, lo: float, hi: float) -> list[tuple[float, ...]]:
    return [tuple(rng.uniform(lo, hi) for _ in range(dim)) for _ in range(count)]
