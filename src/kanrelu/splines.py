"""Spline KANs, and the ReLU/monomial lowering of spline activations.

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
from dataclasses import dataclass
from typing import Sequence

# the spline type and its helpers live in core, which names them in KanLayer;
# they stay importable from here
from .core import CONTINUITY_REL_TOL, MAX_DEGREE, PolySegmentSpline, poly_eval  # noqa: F401
from .core import KanLayer, Vector, _affine_params, _as_vector, _check_degree, _finite_floats, _KanChain
from .errors import ValidationError


def shift_poly(coeffs: Sequence[float], b: float) -> tuple[float, ...]:
    """Coefficients of x -> P(x + b) via binomial expansion; degree preserved."""
    coeffs = tuple(float(c) for c in coeffs)
    if not coeffs:
        raise ValidationError("polynomial needs at least one coefficient")
    n = len(coeffs)
    out = [0.0] * n
    try:
        for j, a in enumerate(coeffs):
            # a * (x + b)^j
            for i in range(j + 1):
                out[i] += a * math.comb(j, i) * b ** (j - i)
    except OverflowError:  # float ** int raises where * gives inf
        raise ValidationError(f"shifting a polynomial by {b!r} overflows") from None
    return tuple(out)


def _poly_pad(coeffs: Sequence[float], length: int) -> tuple[float, ...]:
    return tuple(coeffs) + (0.0,) * (length - len(coeffs))


@dataclass(frozen=True)
class SplineKan(_KanChain):
    """KAN whose activations are splines: a chain of ``PolySegmentSpline`` KAN layers."""

    activation_type = PolySegmentSpline
    # an own class attribute: the benchmark's layer trace wraps it through
    # ``SplineKan.__dict__``, which leaves ``Kan`` and ``Mlp`` evaluation untimed
    evaluate = _KanChain.evaluate


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
        _check_degree(self.degree, "degree")
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
            try:
                out.append(1.0 if power == 0 else acc**power)
            except OverflowError:  # float ** int raises where * gives inf; acc >= 0 here
                out.append(math.inf)
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


def bspline_to_monomial_relu(s: PolySegmentSpline) -> MonomialReluNetwork:
    """Lower a univariate spline to a single monomial-relu block plus read-out.

    One group per breakpoint computes the shifted-difference polynomial of
    relu(x - b_i); a pair of groups fed by relu(x) and relu(-x) rebuilds the
    leading polynomial on both half-lines, with sign-corrected coefficients
    on the negative side.
    """
    width = s.degree_bound + 1
    rows: list[tuple[float, ...]] = []
    bias: list[float] = []
    readout: list[float] = []

    leading = _poly_pad(s.piece_coeffs[0], width)
    # groups 0 and 1: relu(x) carries the leading polynomial on x >= 0, and
    # relu(-x) carries it on x <= 0, with alternating signs
    for sign in (1.0, -1.0):
        rows.extend(((sign,),) * width)
        bias.extend([0.0] * width)
        readout.append(0.0)
        readout.extend(sign**j * leading[j] for j in range(1, width))

    for i, b in enumerate(s.breakpoints):
        after = shift_poly(_poly_pad(s.piece_coeffs[i + 1], width), b)
        before = shift_poly(_poly_pad(s.piece_coeffs[i], width), b)
        rows.extend(((1.0,),) * width)
        bias.extend([-b] * width)
        readout.extend(p - q for p, q in zip(after, before))

    block = MonomialReluBlock(weight=tuple(rows), bias=tuple(bias), degree=s.degree_bound)
    return MonomialReluNetwork(
        blocks=(block,),
        readout_weight=(tuple(readout),),
        readout_bias=(leading[0],),
    )


def _affine_grid(weight, bias) -> KanLayer:
    rows = []
    for q in range(len(weight)):
        row = []
        for p in range(len(weight[0])):
            constant = bias[q] if p == 0 else 0.0
            row.append(PolySegmentSpline((), ((constant, weight[q][p]),), 1))
        rows.append(tuple(row))
    return KanLayer(tuple(rows))


_ZERO_SPLINE = PolySegmentSpline((), ((0.0,),), 0)
_RELU_SPLINE = PolySegmentSpline((0.0,), ((0.0,), (0.0, 1.0)), 1)
# _MONOMIALS[k] is x -> x**k; x**0 is the constant 1
_MONOMIALS = tuple(PolySegmentSpline((), ((0.0,) * k + (1.0,),), k) for k in range(MAX_DEGREE + 1))


def _diagonal_grid(width: int, diag) -> KanLayer:
    return KanLayer(tuple(
        tuple(diag(q) if p == q else _ZERO_SPLINE for p in range(width))
        for q in range(width)
    ))


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
        layers.append(_diagonal_grid(width, lambda q: _MONOMIALS[q % (block.degree + 1)]))
    layers.append(_affine_grid(net.readout_weight, net.readout_bias))
    return SplineKan(tuple(layers))


def _poly_mul_linear(coeffs: Sequence[float], c0: float, c1: float) -> list[float]:
    # multiply by (c0 + c1 x)
    out = [0.0] * (len(coeffs) + 1)
    for i, a in enumerate(coeffs):
        out[i] += a * c0
        out[i + 1] += a * c1
    return out


def _knot_span(t: Sequence[float], lo: int, hi: int) -> float:
    """``t[hi] - t[lo]``, a recursion denominator; one that overflows to inf
    would divide every basis it scales to zero, so it raises instead."""
    span = t[hi] - t[lo]
    if not math.isfinite(span):
        raise ValidationError(f"knot span {t[lo]!r} to {t[hi]!r} overflows")
    return span


def bspline_from_knots(
    knots: Sequence[float], coefficients: Sequence[float], degree: int
) -> PolySegmentSpline:
    """Convert a knot/control-coefficient B-spline to piecewise polynomials.

    The knots and coefficients must be finite, with no knot span the
    recursion divides by overflowing, and the degree an integer from 0 to
    ``MAX_DEGREE``.  On each knot interval of the span, runs the
    basis recursion on polynomial coefficients over the bases live there
    (the degree + 1 bases j - degree..j on interval j; every other basis is
    zero on it), then sums them weighted by their control coefficients.
    The two end pieces extend their polynomials beyond the span.
    """
    t = _finite_floats(knots, "knots")
    c = _finite_floats(coefficients, "coefficients")
    _check_degree(degree, "degree")
    r = degree
    if any(a > b for a, b in zip(t, t[1:])):
        raise ValidationError("knots must be non-decreasing")
    n = len(t) - r - 1
    if n < 1 or len(c) != n:
        raise ValidationError("coefficient count must be len(knots) - degree - 1")

    pieces: list[tuple[float, ...]] = []
    boundaries: list[float] = []
    for j in range(r, n):
        if t[j] == t[j + 1]:
            continue  # zero-length interval contributes no piece
        # live[k]: polynomial of basis j - d + k at degree d on [t_j, t_{j+1});
        # each denominator spans [t_j, t_{j+1}], so it is at least t_{j+1} - t_j > 0
        live = [[1.0]]
        for d in range(1, r + 1):
            lower, live = live, []  # bases j - d + 1..j at degree d - 1
            for k in range(d + 1):
                i = j - d + k
                if k:  # basis i at degree d - 1 is live
                    den = _knot_span(t, i, i + d)
                    acc = _poly_mul_linear(lower[k - 1], -t[i] / den, 1.0 / den)
                if k < d:  # basis i + 1 at degree d - 1 is live
                    den = _knot_span(t, i + 1, i + d + 1)
                    term = _poly_mul_linear(lower[k], t[i + d + 1] / den, -1.0 / den)
                    acc = [x + y for x, y in zip(acc, term)] if k else term
                live.append(acc)
        acc = [0.0] * (r + 1)
        for i, poly in enumerate(live, j - r):
            for deg, a in enumerate(poly):
                acc[deg] += c[i] * a
        if pieces:
            boundaries.append(t[j])
        pieces.append(tuple(acc))
    if not pieces:
        raise ValidationError("knot vector has no interior span")
    return PolySegmentSpline(tuple(boundaries), tuple(pieces), r)
