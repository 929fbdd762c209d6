"""Core model types: piecewise linear functions, KANs and ReLU MLPs.

All types are immutable value objects.  Evaluation is pure, uses 64-bit
floats throughout, and sums contributions in ascending input index order so
results are bit-reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DomainError, ShapeError, ValidationError

Vector = tuple[float, ...]
# (rows of (column, weight) pairs to sum, index of each output row's sum in them)
SummationRows = tuple[tuple[tuple[tuple[int, float], ...], ...], Sequence[int]]


def _finite_floats(values: Iterable[float], name: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    for v in out:
        if not math.isfinite(v):
            raise ValidationError(f"{name} must be finite, got {v!r}")
    return out


def _affine_params(
    weight: Iterable[Iterable[float]], bias: Iterable[float], prefix: str = ""
) -> tuple[tuple[tuple[float, ...], ...], Vector]:
    """Float copies of an affine map's weight rows and bias, validated.

    The weight must be a non-empty rectangular matrix with one bias entry per
    row, and every entry must be finite.  ``prefix`` names the map in errors.
    """
    rows = tuple(_finite_floats(row, f"{prefix}weight row") for row in weight)
    bias = _finite_floats(bias, f"{prefix}bias")
    if not rows or not rows[0]:
        raise ValidationError(f"{prefix}weight matrix must be non-empty")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValidationError(f"{prefix}weight matrix must be rectangular")
    if len(bias) != len(rows):
        raise ValidationError(f"{prefix}bias length must equal weight row count")
    return rows, bias


def _all_finite(values: Iterable[float]) -> bool:
    return all(map(math.isfinite, values))


def _as_vector(x: Sequence[float], expected: int, what: str) -> Vector:
    if len(x) != expected:
        raise ShapeError(f"{what}: expected length {expected}, got {len(x)}")
    return tuple(float(v) for v in x)


@dataclass(frozen=True)
class PiecewiseLinear:
    """Continuous univariate piecewise linear function.

    Stored as one slope per segment, the ordered interior breakpoints
    separating the segments, and the y-intercept of the first (leftmost)
    segment.  Segment ``i`` has slope ``slopes[i]``; a breakpoint belongs to
    the segment on its right.  Continuity holds by construction: each
    segment starts at the value where the previous one ends.
    """

    breakpoints: tuple[float, ...]
    slopes: tuple[float, ...]
    intercept: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", _finite_floats(self.breakpoints, "breakpoints"))
        object.__setattr__(self, "slopes", _finite_floats(self.slopes, "slopes"))
        object.__setattr__(self, "intercept", float(self.intercept))
        if not math.isfinite(self.intercept):
            raise ValidationError("intercept must be finite")
        if len(self.slopes) != len(self.breakpoints) + 1:
            raise ValidationError(
                "slopes length must be breakpoints length + 1, got "
                f"{len(self.slopes)} slopes for {len(self.breakpoints)} breakpoints"
            )
        for left, right in zip(self.breakpoints, self.breakpoints[1:]):
            if not left < right:
                raise ValidationError("breakpoints must be strictly increasing")

    @property
    def segments(self) -> int:
        return len(self.slopes)

    def segment_intercepts(self) -> tuple[float, ...]:
        """Per-segment intercepts g_i so the function is slopes[i]*x + g_i on segment i."""
        out = [self.intercept]
        for i, b in enumerate(self.breakpoints):
            out.append(out[i] + (self.slopes[i] - self.slopes[i + 1]) * b)
        return tuple(out)

    def __call__(self, x: float) -> float:
        return eval_pl(self, x)


def eval_pl(f: PiecewiseLinear, x: float) -> float:
    """Evaluate a piecewise linear function at ``x``.

    Uses the running-sum form: slope-change terms activate once a breakpoint
    is reached (breakpoint values count toward the right segment).
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x!r}")
    y = f.slopes[0] * x + f.intercept
    for i, b in enumerate(f.breakpoints):
        if b <= x:
            y += (f.slopes[i + 1] - f.slopes[i]) * (x - b)
        else:
            break
    return y


def normalize_pl(f: PiecewiseLinear, tol: float = 0.0) -> PiecewiseLinear:
    """Merge adjacent segments whose slopes differ by at most ``tol``.

    Conversions deliberately keep structural breakpoints around; this is the
    explicit cleanup step for callers that want minimal representations.
    """
    slopes = [f.slopes[0]]
    breakpoints: list[float] = []
    for b, s in zip(f.breakpoints, f.slopes[1:]):
        if abs(s - slopes[-1]) <= tol:
            continue
        breakpoints.append(b)
        slopes.append(s)
    return PiecewiseLinear(tuple(breakpoints), tuple(slopes), f.intercept)


@dataclass(frozen=True)
class KanLayer:
    """One KAN layer: an n_out-by-n_in grid of univariate activations.

    Output coordinate q is the sum over inputs p of activations[q][p](x_p).
    """

    activations: tuple[tuple[PiecewiseLinear, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.activations)
        object.__setattr__(self, "activations", rows)
        if not rows or not rows[0]:
            raise ValidationError("layer must have at least one input and one output")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValidationError("activation grid must be rectangular")
            for act in row:
                if not isinstance(act, PiecewiseLinear):
                    raise ValidationError("activations must be PiecewiseLinear instances")

    @property
    def n_in(self) -> int:
        return len(self.activations[0])

    @property
    def n_out(self) -> int:
        return len(self.activations)

    def apply(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.n_in, "KanLayer input")
        return tuple(
            _sum_row(row, v) for row in self.activations
        )


def _sum_row(row: Sequence[PiecewiseLinear], v: Vector) -> float:
    # fixed ascending-index summation for reproducibility
    total = 0.0
    for p, act in enumerate(row):
        total += eval_pl(act, v[p])
    return total


@dataclass(frozen=True)
class Kan:
    """A KAN: a chain of KAN layers applied left to right."""

    layers: tuple[KanLayer, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValidationError("a KAN needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.n_out != b.n_in:
                raise ValidationError(
                    f"layer widths must chain: {a.n_out} outputs feed {b.n_in} inputs"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].n_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_out

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.layers[0].n_in,) + tuple(layer.n_out for layer in self.layers)

    def max_segments(self) -> int:
        return max(act.segments for layer in self.layers for row in layer.activations for act in row)

    def evaluate(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.input_dim, "Kan input")
        for layer in self.layers:
            v = layer.apply(v)
        return v


def eval_kan(kan: Kan, x: Sequence[float]) -> Vector:
    return kan.evaluate(x)


class Activation(str, Enum):
    RELU = "relu"
    IDENTITY = "identity"


@dataclass(frozen=True)
class MlpLayer:
    """One affine layer of an MLP plus the activation applied after it.

    ``weight_tags``/``bias_tags`` mark entries as "structural" (a constant
    0/+1/-1 forced by a conversion pattern) or "free" (carries model data);
    they are None for hand-built layers.  ``source_params`` records how many
    independent source-model parameters a conversion routed into this layer.
    """

    weight: tuple[tuple[float, ...], ...]
    bias: tuple[float, ...]
    activation: Activation
    weight_tags: tuple[tuple[str, ...], ...] | None = None
    bias_tags: tuple[str, ...] | None = None
    source_params: int | None = None

    def __post_init__(self) -> None:
        rows, bias = _affine_params(self.weight, self.bias)
        object.__setattr__(self, "weight", rows)
        object.__setattr__(self, "bias", bias)
        object.__setattr__(self, "activation", Activation(self.activation))
        width = len(rows[0])
        if self.weight_tags is not None:
            tags = tuple(tuple(t) for t in self.weight_tags)
            object.__setattr__(self, "weight_tags", tags)
            if len(tags) != len(rows) or any(len(t) != width for t in tags):
                raise ValidationError("weight_tags must match weight shape")
        if self.bias_tags is not None:
            object.__setattr__(self, "bias_tags", tuple(self.bias_tags))
            if len(self.bias_tags) != len(self.bias):
                raise ValidationError("bias_tags must match bias length")

    @property
    def n_in(self) -> int:
        return len(self.weight[0])

    @property
    def n_out(self) -> int:
        return len(self.weight)

    @cached_property
    def nonzero_rows(self) -> SummationRows:
        """The distinct rows of nonzero weights, and each output row's index into them.

        Each distinct row holds the ``(column, weight)`` pairs whose weight
        is not ``±0.0``, columns ascending, in first-seen row order.  Rows
        that differ only in ``±0.0`` entries share one distinct row; their
        biases may differ.  A view derived from ``weight`` on first use, so
        building, counting and saving a layer never pay for it.
        """
        distinct: dict[tuple[tuple[int, float], ...], int] = {}
        index = tuple(
            distinct.setdefault(tuple((p, w) for p, w in enumerate(row) if w != 0.0), len(distinct))
            for row in self.weight
        )
        return tuple(distinct), index

    def summation_rows(self, finite_input: bool) -> SummationRows:
        """The rows a layer sum must visit, and each output row's index into them.

        A sum that starts at ``+0.0`` is never ``-0.0``, so adding a skipped
        ``0.0 * x`` term (``±0.0`` for finite ``x``) would leave it unchanged:
        over finite inputs the nonzero entries give the dense sum bit for
        bit, and rows with equal nonzero entries give equal sums, so each
        distinct row is summed once.  ``0.0 * inf`` is NaN, so a non-finite
        input visits every entry of every row.
        """
        if finite_input:
            return self.nonzero_rows
        return tuple(tuple(enumerate(row)) for row in self.weight), range(self.n_out)

    def apply(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.n_in, "MlpLayer input")
        rows, index = self.summation_rows(_all_finite(v))
        sums = []
        for row in rows:
            acc = 0.0
            for p, w in row:
                acc += w * v[p]
            sums.append(acc)
        # the bias goes last, after the shared row sum, as in the dense loop
        out = [sums[i] + bias for i, bias in zip(index, self.bias)]
        if self.activation is Activation.RELU:
            return tuple([y if y > 0.0 else 0.0 for y in out])
        return tuple(out)


@dataclass(frozen=True)
class Mlp:
    """A feedforward network: ReLU after every affine layer except the last."""

    layers: tuple[MlpLayer, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValidationError("an MLP needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.n_out != b.n_in:
                raise ValidationError(
                    f"layer widths must chain: {a.n_out} outputs feed {b.n_in} inputs"
                )
        if layers[-1].activation is not Activation.IDENTITY:
            raise ValidationError("last layer activation must be identity")
        for layer in layers[:-1]:
            if layer.activation is not Activation.RELU:
                raise ValidationError("non-last layer activation must be relu")

    @property
    def input_dim(self) -> int:
        return self.layers[0].n_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_out

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.layers[0].n_in,) + tuple(layer.n_out for layer in self.layers)

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.n_out for layer in self.layers[:-1])

    def evaluate(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.input_dim, "Mlp input")
        for layer in self.layers:
            v = layer.apply(v)
        return v


def eval_mlp(mlp: Mlp, x: Sequence[float]) -> Vector:
    return mlp.evaluate(x)
