"""Parameter accounting, region upper bounds and class embedding checks.

Counts come in three tiers because the published formulas switch
conventions: ``total`` counts every stored entry, ``nonzero`` counts entries
with nonzero value, and ``free`` counts independent model parameters.  For a
KAN every stored coefficient is a parameter (2 * segments per activation).
For an untagged MLP every nonzero entry is a parameter.  For a converted MLP
the conversion records how many independent source parameters each affine
layer carries, and ``free`` sums those records; this is the tier the
conversion-cost formulas describe.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .convert import ConversionMode, kan_to_mlp, mlp_to_kan
from .core import Kan, Mlp
from .errors import ValidationError


@dataclass(frozen=True)
class LayerCounts:
    total: int
    nonzero: int
    free: int


@dataclass(frozen=True)
class ParamReport:
    """Three-tier parameter counts, each the sum of a per-layer breakdown.

    ``closed_form`` holds the dimensional closed-form prediction when one
    applies (dense scalar-output MLPs, uniform-segment KANs), else None.
    """

    per_layer: tuple[LayerCounts, ...]
    closed_form: int | None = None

    def __post_init__(self) -> None:
        # free counts come from a file's source_params, so they are checked
        if self.nonzero_entries > self.total_entries or self.free_entries > self.total_entries:
            raise ValidationError("nonzero and free counts cannot exceed total_entries")

    @property
    def total_entries(self) -> int:
        return sum(c.total for c in self.per_layer)

    @property
    def nonzero_entries(self) -> int:
        return sum(c.nonzero for c in self.per_layer)

    @property
    def free_entries(self) -> int:
        return sum(c.free for c in self.per_layer)

    def to_dict(self) -> dict:
        return {
            "total_entries": self.total_entries,
            "nonzero_entries": self.nonzero_entries,
            "free_entries": self.free_entries,
            "per_layer": [asdict(c) for c in self.per_layer],
            "closed_form": self.closed_form,
        }


def mlp_dense_param_formula(input_dim: int, hidden_widths: Sequence[int]) -> int:
    """Closed-form dense entry count of a scalar-output MLP.

    1 + n*n_1 + 2*n_L + sum(n_i*n_{i+1} + n_i) over interior transitions;
    with no hidden layers this degenerates to n + 1.
    """
    widths = list(hidden_widths)
    if not widths:
        return input_dim + 1
    total = 1 + input_dim * widths[0] + 2 * widths[-1]
    for a, b in zip(widths, widths[1:]):
        total += a * b + a
    return total


def count_params_mlp(m: Mlp) -> ParamReport:
    per_layer = []
    for layer in m.layers:
        total = layer.n_out * layer.n_in + len(layer.bias)
        # count(0.0) also counts -0.0, since -0.0 == 0.0
        nonzero = total - sum(row.count(0.0) for row in layer.weight) - layer.bias.count(0.0)
        free = layer.source_params if layer.source_params is not None else nonzero
        per_layer.append(LayerCounts(total, nonzero, free))
    closed_form = None
    if m.output_dim == 1:
        closed_form = mlp_dense_param_formula(m.input_dim, m.hidden_widths)
    return ParamReport(tuple(per_layer), closed_form)


def uniform_segment_count(k: Kan) -> int | None:
    seen = {act.segments for layer in k.layers for row in layer.activations for act in row}
    return seen.pop() if len(seen) == 1 else None


def count_params_kan(k: Kan) -> ParamReport:
    per_layer = []
    for layer in k.layers:
        total = nonzero = 0
        for row in layer.activations:
            for act in row:
                stored = list(act.slopes) + list(act.breakpoints) + [act.intercept]
                total += len(stored)
                nonzero += sum(1 for v in stored if v != 0.0)
        per_layer.append(LayerCounts(total, nonzero, total))
    closed_form = None
    uniform = uniform_segment_count(k)
    if uniform is not None:
        closed_form = 2 * uniform * sum(layer.n_in * layer.n_out for layer in k.layers)
    return ParamReport(tuple(per_layer), closed_form)


def relu_to_kan_param_formula(m: Mlp) -> int:
    """Published parameter count of the MLP-to-KAN conversion.

    The source count plus four parameters per claimed relu application,
    n_1 + ... + n_L + 1 of them.  Exposed verbatim; compare against
    count_params_kan(mlp_to_kan(m)) for the tagged-count view.
    """
    if m.output_dim != 1:
        raise ValidationError("formula applies to scalar-output networks")
    hidden = m.hidden_widths
    return mlp_dense_param_formula(m.input_dim, hidden) + 4 * (sum(hidden) + 1)


def kan_to_relu_param_formula(k: Kan) -> int:
    """Published parameter count of the KAN-to-ReLU conversion.

    2 * k_seg * sum(n_in * n_out) for uniform segment count k_seg; for mixed
    segment counts the per-activation generalisation sum(2 * segments).
    """
    return 2 * sum(
        act.segments for layer in k.layers for row in layer.activations for act in row
    )


def relu_region_upper_bound(input_dim: int, hidden_widths: Sequence[int]) -> int:
    """Upper bound on linear regions of a scalar-output ReLU network.

    Product over hidden layers of sum_{j<=d_l} C(n_l, j) where d_l is the
    running minimum of the input and earlier hidden widths.  Exact integer.
    """
    if input_dim < 1 or any(w < 1 for w in hidden_widths):
        raise ValidationError("widths must be positive")
    bound = 1
    running_min = input_dim
    for w in hidden_widths:
        running_min = min(running_min, w)
        bound *= sum(math.comb(w, j) for j in range(running_min + 1))
    return bound


def kan_region_upper_bound(widths: Sequence[int], k: int) -> int:
    """Upper bound on linear regions of a KAN with at most k-segment activations.

    ``widths`` lists n_0..n_L for a network whose final layer maps R^{n_L}
    to R; the bound is k ** (n_L + sum n_i * n_{i+1}).  Exact big integer.
    """
    widths = list(widths)
    if k < 1:
        raise ValidationError("segment count k must be >= 1")
    if not widths or any(w < 1 for w in widths):
        raise ValidationError("widths must be positive")
    exponent = widths[-1] + sum(a * b for a, b in zip(widths, widths[1:]))
    return k ** exponent


@dataclass(frozen=True)
class ClassSignature:
    """Structural class membership data for a network.

    ``segment_bound`` follows the "at most segment_bound + 1 segments"
    convention and is None for the relu family.
    """

    family: str
    depth: int
    width: int
    segment_bound: int | None = None

    def __post_init__(self) -> None:
        if self.family not in ("kan", "relu"):
            raise ValidationError("family must be 'kan' or 'relu'")
        if (self.segment_bound is None) != (self.family == "relu"):
            raise ValidationError("segment_bound must be None exactly for the relu family")

    def to_dict(self) -> dict:
        return asdict(self)


def signature_of_kan(k: Kan) -> ClassSignature:
    return ClassSignature(
        family="kan",
        depth=len(k.layers),
        width=max(k.widths),
        segment_bound=k.max_segments() - 1,
    )


def signature_of_mlp(m: Mlp) -> ClassSignature:
    width = max(m.hidden_widths) if m.hidden_widths else max(m.widths)
    return ClassSignature(family="relu", depth=len(m.layers), width=width)


def regions_per_parameter(sig: ClassSignature, widths: Sequence[int]) -> tuple[int, int]:
    """Region bound and the matching parameter count, as an exact pair.

    For the kan family, with k = sig.segment_bound + 1 segments, the
    denominator is the published ratio's printed form
    2*k*(n_1 + ... + n_L + 1); the full per-activation count is available
    separately via kan_to_relu_param_formula.
    """
    widths = list(widths)
    if sig.family == "relu":
        bound = relu_region_upper_bound(widths[0], widths[1:])
        return bound, mlp_dense_param_formula(widths[0], widths[1:])
    k = sig.segment_bound + 1
    return kan_region_upper_bound(widths, k), 2 * k * (sum(widths[1:]) + 1)


@dataclass(frozen=True)
class EmbeddingReport:
    """Outcome of the structural class-embedding checks for one KAN.

    ``converted`` is the signature of the compact-mode conversion; widths of
    both conversion modes and their limits are recorded so the booleans are
    auditable.
    """

    source: ClassSignature
    converted: ClassSignature
    width_bound_satisfied: bool
    depth_bound_satisfied: bool
    segment_bound_satisfied: bool
    paper_mode_width: int
    exact_mode_width: int
    paper_width_limit: int
    exact_width_limit: int
    reconverted_max_segments: int

    def to_dict(self) -> dict:
        return asdict(self)


def class_embedding_check(k: Kan) -> EmbeddingReport:
    """Check the conversion against its claimed class containments.

    A KAN of depth L, width n and activations with at most kb+1 segments
    must convert to depth L+1, compact-mode width at most n^2*(kb+1) and
    exact-mode width at most n^2*kb + 2n, and its re-converted KAN must only
    use activations with at most 2 segments.
    """
    source = signature_of_kan(k)
    n, kb = source.width, source.segment_bound

    paper_mlp = kan_to_mlp(k, ConversionMode.PAPER)
    exact_mlp = kan_to_mlp(k, ConversionMode.EXACT)

    paper_width = max(paper_mlp.hidden_widths)
    exact_width = max(exact_mlp.hidden_widths)
    paper_limit = n * n * (kb + 1)
    exact_limit = n * n * kb + 2 * n

    depth_ok = (
        len(paper_mlp.layers) == source.depth + 1 and len(exact_mlp.layers) == source.depth + 1
    )
    width_ok = paper_width <= paper_limit and exact_width <= exact_limit

    reconverted = mlp_to_kan(paper_mlp)
    reconverted_max = reconverted.max_segments()
    segment_ok = reconverted_max <= 2

    return EmbeddingReport(
        source=source,
        converted=signature_of_mlp(paper_mlp),
        width_bound_satisfied=width_ok,
        depth_bound_satisfied=depth_ok,
        segment_bound_satisfied=segment_ok,
        paper_mode_width=paper_width,
        exact_mode_width=exact_width,
        paper_width_limit=paper_limit,
        exact_width_limit=exact_limit,
        reconverted_max_segments=reconverted_max,
    )
