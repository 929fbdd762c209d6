"""Piecewise polynomial spline activations and their ReLU/monomial lowering.

A spline with pieces P_1..P_k and breakpoints b_1..b_{k-1} equals the sum
P_1(x) + sum_i (P_{i+1}^{b_i} - P_i^{b_i})(relu(x - b_i)) where P^b denotes
the shifted polynomial x -> P(x + b): past each breakpoint the difference
term switches the active polynomial, and below it the term is the constant
difference at the breakpoint, zero for a continuous spline.  The target
architecture stacks blocks of affine map, componentwise relu, then monomial
activations that raise component j of each group to the power j (component 0
becomes the constant 1).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .core import Vector, _affine_params, _all_finite, _as_vector, _finite_floats
from .errors import ValidationError

MAX_DEGREE = 5
CONTINUITY_REL_TOL = 1e-9


def poly_eval(coeffs: Sequence[float], x: float) -> float:
    """Evaluate a polynomial given ascending-power coefficients."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def shift_poly(coeffs: Sequence[float], b: float) -> tuple[float, ...]:
    """Coefficients of x -> P(x + b) via binomial expansion; degree preserved."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValidationError("polynomial needs at least one coefficient")
    n = len(coeffs)
    out = [0.0] * n
    for j, a in enumerate(coeffs):
        # a * (x + b)^j
        for i in range(j + 1):
            out[i] += a * math.comb(j, i) * b ** (j - i)
    return tuple(out)


def _poly_pad(coeffs: Sequence[float], length: int) -> tuple[float, ...]:
    return tuple(coeffs) + (0.0,) * (length - len(coeffs))


def _poly_sub(a: Sequence[float], b: Sequence[float]) -> tuple[float, ...]:
    n = max(len(a), len(b))
    pa, pb = _poly_pad(a, n), _poly_pad(b, n)
    return tuple(x - y for x, y in zip(pa, pb))


@dataclass(frozen=True)
class PolySegmentSpline:
    """Univariate continuous spline stored as per-piece monomial coefficients.

    Piece i applies on [breakpoints[i-1], breakpoints[i]); breakpoint values
    belong to the piece on their right.  The end pieces extend their
    polynomials to the whole line.
    """

    breakpoints: tuple[float, ...]
    piece_coeffs: tuple[tuple[float, ...], ...]
    degree_bound: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", _finite_floats(self.breakpoints, "breakpoints"))
        pieces = tuple(_finite_floats(c, "piece coefficients") for c in self.piece_coeffs)
        object.__setattr__(self, "piece_coeffs", pieces)
        if self.degree_bound < 0 or self.degree_bound > MAX_DEGREE:
            raise ValidationError(f"degree bound must be between 0 and {MAX_DEGREE}")
        if len(pieces) != len(self.breakpoints) + 1:
            raise ValidationError("piece count must be breakpoint count + 1")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise ValidationError("breakpoints must be strictly increasing")
        for coeffs in pieces:
            if not coeffs:
                raise ValidationError("each piece needs at least one coefficient")
            if len(coeffs) > self.degree_bound + 1:
                raise ValidationError("piece degree exceeds the spline's degree bound")
        for i, b in enumerate(self.breakpoints):
            left = poly_eval(pieces[i], b)
            right = poly_eval(pieces[i + 1], b)
            if abs(left - right) > CONTINUITY_REL_TOL * max(1.0, abs(left), abs(right)):
                raise ValidationError(f"spline is discontinuous at breakpoint {b!r}")

    @property
    def pieces(self) -> int:
        return len(self.piece_coeffs)

    def evaluate(self, x: float) -> float:
        idx = bisect_right(self.breakpoints, x)
        return poly_eval(self.piece_coeffs[idx], x)

    def __call__(self, x: float) -> float:
        return self.evaluate(x)


@dataclass(frozen=True)
class SplineKan:
    """KAN whose activations are splines; output q sums activations[q][p](x_p)."""

    layers: tuple[tuple[tuple[PolySegmentSpline, ...], ...], ...]

    def __post_init__(self) -> None:
        layers = tuple(tuple(tuple(row) for row in grid) for grid in self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValidationError("a spline KAN needs at least one layer")
        for grid in layers:
            if not grid or not grid[0]:
                raise ValidationError("layer must have at least one input and one output")
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ValidationError("activation grid must be rectangular")
        for a, b in zip(layers, layers[1:]):
            if len(a) != len(b[0]):
                raise ValidationError("layer widths must chain")

    @property
    def input_dim(self) -> int:
        return len(self.layers[0][0])

    @property
    def output_dim(self) -> int:
        return len(self.layers[-1])

    @cached_property
    def live_columns(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per layer and row, the ascending indices of activations that are not constant zero.

        An activation is constant zero when every coefficient of every piece
        is ``±0.0``.  Built on first use.
        """
        return tuple(
            tuple(
                tuple(
                    p
                    for p, act in enumerate(row)
                    if any(c != 0.0 for coeffs in act.piece_coeffs for c in coeffs)
                )
                for row in grid
            )
            for grid in self.layers
        )

    def evaluate(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.input_dim, "SplineKan input")
        for grid, live_rows in zip(self.layers, self.live_columns):
            # a constant-zero activation gives ±0.0 at a finite input, which
            # leaves a sum started at +0.0 unchanged; at inf or NaN it gives NaN
            if not _all_finite(v):
                live_rows = [range(len(row)) for row in grid]
            out = []
            for row, live in zip(grid, live_rows):
                acc = 0.0
                for p in live:
                    acc += row[p].evaluate(v[p])
                out.append(acc)
            v = tuple(out)
        return v


def _affine_bias_first(
    weight: Sequence[Sequence[float]], bias: Sequence[float], v: Vector
) -> list[float]:
    """Row sums ``bias[q] + w[q][0]*v[0] + w[q][1]*v[1] + ...`` in that order.

    Unlike ``MlpLayer.apply`` the bias comes first and every entry is
    visited; saved spline outputs depend on these exact bits.
    """
    out = []
    for row, acc in zip(weight, bias):
        for p, w in enumerate(row):
            acc += w * v[p]
        out.append(acc)
    return out


@dataclass(frozen=True)
class MonomialReluBlock:
    """One block: affine map, componentwise relu, then monomial activations.

    The output width is (degree + 1) * groups.  Within each group, component
    j is raised to the power j after the relu; component 0 becomes the
    constant 1.
    """

    weight: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    degree: int

    def __post_init__(self) -> None:
        rows, bias = _affine_params(self.weight, self.bias)
        object.__setattr__(self, "weight", rows)
        object.__setattr__(self, "bias", bias)
        if self.degree < 0 or self.degree > MAX_DEGREE:
            raise ValidationError(f"degree must be between 0 and {MAX_DEGREE}")
        if len(rows) % (self.degree + 1) != 0:
            raise ValidationError("block width must be a multiple of degree + 1")

    @property
    def n_in(self) -> int:
        return len(self.weight[0])

    @property
    def n_out(self) -> int:
        return len(self.weight)

    @property
    def groups(self) -> int:
        return self.n_out // (self.degree + 1)

    def apply(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.n_in, "MonomialReluBlock input")
        out = []
        for q, acc in enumerate(_affine_bias_first(self.weight, self.bias, v)):
            acc = acc if acc > 0.0 else 0.0
            power = q % (self.degree + 1)
            out.append(1.0 if power == 0 else acc**power)
        return tuple(out)


@dataclass(frozen=True)
class MonomialReluNetwork:
    """A chain of monomial-relu blocks followed by an affine read-out."""

    blocks: tuple[MonomialReluBlock, ...]
    readout_weight: tuple[tuple[float, ...], ...]
    readout_bias: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(self.blocks))
        rows, bias = _affine_params(self.readout_weight, self.readout_bias, "readout ")
        object.__setattr__(self, "readout_weight", rows)
        object.__setattr__(self, "readout_bias", bias)
        for a, b in zip(self.blocks, self.blocks[1:]):
            if a.n_out != b.n_in:
                raise ValidationError("block widths must chain")
        expected = self.blocks[-1].n_out if self.blocks else len(rows[0])
        if len(rows[0]) != expected:
            raise ValidationError("readout width must match the last block's output")

    @property
    def input_dim(self) -> int:
        return self.blocks[0].n_in if self.blocks else len(self.readout_weight[0])

    @property
    def output_dim(self) -> int:
        return len(self.readout_weight)

    def evaluate(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.input_dim, "MonomialReluNetwork input")
        for block in self.blocks:
            v = block.apply(v)
        return tuple(_affine_bias_first(self.readout_weight, self.readout_bias, v))


def eval_monomial_relu(net: MonomialReluNetwork, x: Sequence[float]) -> Vector:
    return net.evaluate(x)


def bspline_to_monomial_relu(
    s: PolySegmentSpline, degree: int | None = None
) -> MonomialReluNetwork:
    """Lower a univariate spline to a single monomial-relu block plus read-out.

    One group per breakpoint computes the shifted-difference polynomial of
    relu(x - b_i); a pair of groups fed by relu(x) and relu(-x) rebuilds the
    leading polynomial on both half-lines, with sign-corrected coefficients
    on the negative side.
    """
    r = s.degree_bound if degree is None else int(degree)
    actual = max(len(c) for c in s.piece_coeffs) - 1
    if actual > r:
        raise ValidationError(f"spline degree {actual} exceeds configured degree {r}")

    width = r + 1
    rows: list[tuple[float, ...]] = []
    bias: list[float] = []
    readout: list[float] = []

    leading = _poly_pad(s.piece_coeffs[0], width)
    # group 0: relu(x) carries the leading polynomial on x >= 0
    rows.extend(((1.0,),) * width)
    bias.extend([0.0] * width)
    readout.append(0.0)
    readout.extend(leading[1:])
    # group 1: relu(-x) carries it on x <= 0, with alternating signs
    rows.extend(((-1.0,),) * width)
    bias.extend([0.0] * width)
    readout.append(0.0)
    readout.extend(((-1.0) ** j) * leading[j] for j in range(1, width))

    for i, b in enumerate(s.breakpoints):
        diff = _poly_sub(
            shift_poly(_poly_pad(s.piece_coeffs[i + 1], width), b),
            shift_poly(_poly_pad(s.piece_coeffs[i], width), b),
        )
        rows.extend(((1.0,),) * width)
        bias.extend([-b] * width)
        readout.extend(diff)

    block = MonomialReluBlock(weight=tuple(rows), bias=tuple(bias), degree=r)
    return MonomialReluNetwork(
        blocks=(block,),
        readout_weight=(tuple(readout),),
        readout_bias=(leading[0],),
    )


def _affine_grid(weight, bias) -> tuple[tuple[PolySegmentSpline, ...], ...]:
    rows = []
    for q in range(len(weight)):
        row = []
        for p in range(len(weight[0])):
            constant = bias[q] if p == 0 else 0.0
            row.append(PolySegmentSpline((), ((constant, weight[q][p]),), 1))
        rows.append(tuple(row))
    return tuple(rows)


_ZERO_SPLINE = PolySegmentSpline((), ((0.0,),), 0)
_RELU_SPLINE = PolySegmentSpline((0.0,), ((0.0,), (0.0, 1.0)), 1)


def _diagonal_grid(width: int, diag) -> tuple[tuple[PolySegmentSpline, ...], ...]:
    return tuple(
        tuple(diag(q) if p == q else _ZERO_SPLINE for p in range(width))
        for q in range(width)
    )


def monomial_relu_to_spline_kan(net: MonomialReluNetwork) -> SplineKan:
    """Re-express a monomial-relu network as a KAN with spline activations.

    Each block becomes three layers (affine splines, diagonal relu splines,
    diagonal monomial splines) and the read-out becomes a final affine
    layer.
    """
    layers = []
    for block in net.blocks:
        layers.append(_affine_grid(block.weight, block.bias))
        width = block.n_out
        layers.append(_diagonal_grid(width, lambda q: _RELU_SPLINE))

        def monomial(q: int, r: int = block.degree) -> PolySegmentSpline:
            power = q % (r + 1)
            if power == 0:
                return PolySegmentSpline((), ((1.0,),), 0)
            coeffs = (0.0,) * power + (1.0,)
            return PolySegmentSpline((), (coeffs,), power)

        layers.append(_diagonal_grid(width, monomial))
    layers.append(_affine_grid(net.readout_weight, net.readout_bias))
    return SplineKan(tuple(layers))


def _poly_mul_linear(coeffs: Sequence[float], c0: float, c1: float) -> list[float]:
    # multiply by (c0 + c1 x)
    out = [0.0] * (len(coeffs) + 1)
    for i, a in enumerate(coeffs):
        out[i] += a * c0
        out[i + 1] += a * c1
    return out


def bspline_from_knots(
    knots: Sequence[float], coefficients: Sequence[float], degree: int
) -> PolySegmentSpline:
    """Convert a knot/control-coefficient B-spline to piecewise polynomials.

    Runs the basis recursion on polynomial coefficients per knot interval,
    then sums control-weighted bases over the interior of the knot span.
    The two end pieces extend their polynomials beyond the span.
    """
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

    intervals = len(t) - 1
    # basis[i][j]: polynomial of basis i on interval [t_j, t_{j+1}), None when zero
    basis: list[list[list[float] | None]] = [
        [([1.0] if j == i and t[i] < t[i + 1] else None) for j in range(intervals)]
        for i in range(len(t) - 1)
    ]
    for d in range(1, r + 1):
        next_basis: list[list[list[float] | None]] = []
        for i in range(len(t) - d - 1):
            row: list[list[float] | None] = [None] * intervals
            left_den = t[i + d] - t[i]
            right_den = t[i + d + 1] - t[i + 1]
            for j in range(intervals):
                acc: list[float] | None = None
                if left_den > 0.0 and basis[i][j] is not None:
                    acc = _poly_mul_linear(basis[i][j], -t[i] / left_den, 1.0 / left_den)
                if right_den > 0.0 and basis[i + 1][j] is not None:
                    term = _poly_mul_linear(
                        basis[i + 1][j], t[i + d + 1] / right_den, -1.0 / right_den
                    )
                    acc = term if acc is None else [x + y for x, y in zip(acc, term)]
                row[j] = acc
            next_basis.append(row)
        basis = next_basis

    pieces: list[tuple[float, ...]] = []
    boundaries: list[float] = []
    for j in range(r, n):
        if t[j] == t[j + 1]:
            continue  # zero-length interval contributes no piece
        acc = [0.0] * (r + 1)
        for i in range(max(0, j - r), min(n, j + 1)):
            poly = basis[i][j]
            if poly is None:
                continue
            for deg, a in enumerate(poly):
                acc[deg] += c[i] * a
        if pieces:
            boundaries.append(t[j])
        pieces.append(tuple(acc))
    if not pieces:
        raise ValidationError("knot vector has no interior span")
    return PolySegmentSpline(tuple(boundaries), tuple(pieces), r)
