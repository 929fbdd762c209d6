"""Conversions between KANs and ReLU MLPs.

Direction one lowers each univariate activation to a one-hidden-layer ReLU
block, assembles blocks into a layer-sized block, then chains layers by
folding each block's output affine map into the next block's input affine
map.  Direction two re-expresses an MLP as a KAN whose activations are
one- or two-segment piecewise linear functions.

Two lowering modes exist.  "exact" spends one shared hidden pair
(relu(x_p), relu(-x_p)) per input coordinate so the first-segment slope term
is reproduced on all of R; the result equals the source everywhere.  "paper"
is the compact single-sided form: one hidden unit per segment, correct only
where the converted activation's input is nonnegative.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .core import Activation, Kan, KanLayer, Mlp, MlpLayer, PiecewiseLinear, Vector, _as_vector
from .errors import ValidationError

STRUCTURAL = "structural"
FREE = "free"


class ConversionMode(str, Enum):
    EXACT = "exact"
    PAPER = "paper"


@dataclass(frozen=True)
class ReluBlock:
    """One-hidden-layer ReLU network x -> w2 @ relu(w1 @ x + b1) + b2.

    Every entry carries a provenance tag: "structural" entries are the
    0/+1/-1 constants forced by the construction pattern, "free" entries
    carry source-model parameters.  ``valid_lower`` is None when the block
    equals its source everywhere, or 0.0 when it is only guaranteed on
    inputs with all coordinates >= 0.
    """

    w1: tuple[tuple[float, ...], ...]
    b1: tuple[float, ...]
    w2: tuple[tuple[float, ...], ...]
    b2: tuple[float, ...]
    w1_tags: tuple[tuple[str, ...], ...]
    b1_tags: tuple[str, ...]
    w2_tags: tuple[tuple[str, ...], ...]
    b2_tags: tuple[str, ...]
    valid_lower: float | None = None

    def __post_init__(self) -> None:
        hidden = len(self.b1)
        if len(self.w1) != hidden or len(self.w1_tags) != hidden or len(self.b1_tags) != hidden:
            raise ValidationError("hidden stage shapes must agree")
        if len(self.b2) != len(self.w2) or len(self.b2_tags) != len(self.w2):
            raise ValidationError("output stage shapes must agree")
        for row, tags in zip(self.w2, self.w2_tags):
            if len(row) != hidden or len(tags) != hidden:
                raise ValidationError("w2 width must equal hidden width")

    @property
    def n_in(self) -> int:
        return len(self.w1[0])

    @property
    def n_out(self) -> int:
        return len(self.w2)

    @property
    def hidden_width(self) -> int:
        return len(self.b1)

    def apply(self, x: Sequence[float]) -> Vector:
        v = _as_vector(x, self.n_in, "ReluBlock input")
        hidden = []
        for row, b in zip(self.w1, self.b1):
            acc = b
            for p, w in enumerate(row):
                acc += w * v[p]
            hidden.append(acc if acc > 0.0 else 0.0)
        out = []
        for row, b in zip(self.w2, self.b2):
            acc = b
            for h, w in enumerate(row):
                acc += w * hidden[h]
            out.append(acc)
        return tuple(out)


def kan_layer_to_relu(layer: KanLayer, mode: ConversionMode | str) -> ReluBlock:
    """Lower a whole KAN layer to a single ReLU block.

    Hidden units read exactly one input coordinate each.  In exact mode the
    first 2*n_in units are the shared identity pairs, then one unit per
    activation breakpoint; hidden width is 2*n_in + sum(segments - 1).  In
    paper mode each activation gets one first-segment unit plus its
    breakpoint units; hidden width is sum(segments).
    """
    mode = ConversionMode(mode)
    n_in, n_out = layer.n_in, layer.n_out
    acts = layer.activations

    # hidden units: (input coordinate, sign, bias, bias tag)
    units: list[tuple[int, float, float, str]] = []
    # per activation, the hidden indices and weights its output row uses
    row_entries: list[list[tuple[int, float]]] = [[] for _ in range(n_out)]

    if mode is ConversionMode.EXACT:
        for p in range(n_in):
            units.append((p, 1.0, 0.0, STRUCTURAL))
            units.append((p, -1.0, 0.0, STRUCTURAL))
        for q in range(n_out):
            for p in range(n_in):
                act = acts[q][p]
                row_entries[q].append((2 * p, act.slopes[0]))
                row_entries[q].append((2 * p + 1, -act.slopes[0]))
                for i, b in enumerate(act.breakpoints):
                    row_entries[q].append((len(units), act.slopes[i + 1] - act.slopes[i]))
                    units.append((p, 1.0, -b, FREE))
        valid_lower = None
    else:
        for q in range(n_out):
            for p in range(n_in):
                act = acts[q][p]
                row_entries[q].append((len(units), act.slopes[0]))
                units.append((p, 1.0, 0.0, STRUCTURAL))
                for i, b in enumerate(act.breakpoints):
                    row_entries[q].append((len(units), act.slopes[i + 1] - act.slopes[i]))
                    units.append((p, 1.0, -b, FREE))
        valid_lower = 0.0

    hidden = len(units)
    w1 = []
    w1_tags = []
    b1 = []
    b1_tags = []
    for p, sign, bias, bias_tag in units:
        row = [0.0] * n_in
        row[p] = sign
        w1.append(tuple(row))
        w1_tags.append(tuple(STRUCTURAL for _ in range(n_in)))
        b1.append(bias)
        b1_tags.append(bias_tag)

    w2 = []
    w2_tags = []
    for q in range(n_out):
        row = [0.0] * hidden
        tags = [STRUCTURAL] * hidden
        for idx, weight in row_entries[q]:
            row[idx] = weight
            tags[idx] = FREE
        w2.append(tuple(row))
        w2_tags.append(tuple(tags))

    b2 = tuple(sum(acts[q][p].intercept for p in range(n_in)) for q in range(n_out))
    b2_tags = tuple(FREE for _ in range(n_out))

    return ReluBlock(
        w1=tuple(w1),
        b1=tuple(b1),
        w2=tuple(w2),
        b2=b2,
        w1_tags=tuple(w1_tags),
        b1_tags=tuple(b1_tags),
        w2_tags=tuple(w2_tags),
        b2_tags=b2_tags,
        valid_lower=valid_lower,
    )


def pl_to_relu_unit(f: PiecewiseLinear, mode: ConversionMode | str) -> ReluBlock:
    """Lower a single activation; the 1-by-1 layer case of kan_layer_to_relu."""
    return kan_layer_to_relu(KanLayer(((f,),)), mode)


def _merge_affine(
    w1: Sequence[Sequence[float]],
    w1_tags: Sequence[Sequence[str]],
    b1: Sequence[float],
    b1_tags: Sequence[str],
    w2_prev: Sequence[Sequence[float]],
    w2_prev_tags: Sequence[Sequence[str]],
    b2_prev: Sequence[float],
    b2_prev_tags: Sequence[str],
):
    """Fold a block's output affine map into the next block's input map.

    weight = w1 @ w2_prev, bias = w1 @ b2_prev + b1.  Every hidden unit of a
    lowered block reads one input coordinate, so each row of ``w1`` is a
    structural one-hot ``sign * e_p`` and the product selects row ``p`` of
    ``w2_prev``: weight row ``i`` is ``0.0 + sign * w2_prev[p]`` (the value
    the dense ascending-index sum gives) and keeps the tags of that row.  A
    bias stays structural only when both of its inputs are.
    """
    weight = []
    weight_tags = []
    bias = []
    bias_tags = []
    for i, (row, tags) in enumerate(zip(w1, w1_tags)):
        hits = [k for k, v in enumerate(row) if v != 0.0]
        if len(hits) != 1 or row[hits[0]] not in (1.0, -1.0) or any(t != STRUCTURAL for t in tags):
            raise ValidationError(f"w1 row {i} is not a structural one-hot +1/-1 row")
        p = hits[0]
        sign = row[p]
        weight.append(tuple([0.0 + sign * v for v in w2_prev[p]]))
        weight_tags.append(w2_prev_tags[p])
        bias.append(b1[i] + sign * b2_prev[p])
        bias_tags.append(STRUCTURAL if b1_tags[i] == STRUCTURAL and b2_prev_tags[p] == STRUCTURAL else FREE)
    return tuple(weight), tuple(weight_tags), tuple(bias), tuple(bias_tags)


def _source_params_per_affine(kan: Kan) -> list[int]:
    """Independent source parameters routed into each affine layer.

    Breakpoints surface in the affine layer of their own block; slopes and
    the per-activation intercept surface one affine layer later, after the
    output map of their block is folded forward.
    """
    depth = len(kan.layers)

    def breakpoint_count(t: int) -> int:
        return sum(act.segments - 1 for row in kan.layers[t].activations for act in row)

    def slope_intercept_count(t: int) -> int:
        return sum(act.segments + 1 for row in kan.layers[t].activations for act in row)

    counts = []
    for t in range(depth + 1):
        total = 0
        if t < depth:
            total += breakpoint_count(t)
        if t > 0:
            total += slope_intercept_count(t - 1)
        counts.append(total)
    return counts


def kan_to_mlp(kan: Kan, mode: ConversionMode | str) -> Mlp:
    """Convert a KAN to an MLP with one more affine layer than the KAN.

    Interior affine layers are the folded products of consecutive blocks.
    Entry provenance tags survive the fold, and each affine layer records
    how many independent source parameters it carries.
    """
    mode = ConversionMode(mode)
    blocks = [kan_layer_to_relu(layer, mode) for layer in kan.layers]
    source_counts = _source_params_per_affine(kan)

    layers = []
    first = blocks[0]
    layers.append(
        MlpLayer(
            weight=first.w1,
            bias=first.b1,
            activation=Activation.RELU,
            weight_tags=first.w1_tags,
            bias_tags=first.b1_tags,
            source_params=source_counts[0],
        )
    )
    for t in range(1, len(blocks)):
        prev, cur = blocks[t - 1], blocks[t]
        weight, weight_tags, bias, bias_tags = _merge_affine(
            cur.w1, cur.w1_tags, cur.b1, cur.b1_tags,
            prev.w2, prev.w2_tags, prev.b2, prev.b2_tags,
        )
        layers.append(
            MlpLayer(
                weight=weight,
                bias=bias,
                activation=Activation.RELU,
                weight_tags=weight_tags,
                bias_tags=bias_tags,
                source_params=source_counts[t],
            )
        )
    last = blocks[-1]
    layers.append(
        MlpLayer(
            weight=last.w2,
            bias=last.b2,
            activation=Activation.IDENTITY,
            weight_tags=last.w2_tags,
            bias_tags=last.b2_tags,
            source_params=source_counts[-1],
        )
    )
    return Mlp(tuple(layers))


def mlp_to_kan(mlp: Mlp) -> Kan:
    """Convert an MLP to a KAN with the same number of layers.

    The first KAN layer absorbs the first affine map into one-segment
    activations, with each row's bias carried entirely by the activation
    reading input 0.  Every later KAN layer realises "apply relu, then the
    next affine map" with two-segment activations kinked at zero.

    Activations with the same shape, weight and intercept are one shared
    immutable object, so each distinct activation is built and validated
    once.  The sharing key keeps -0.0 apart from 0.0.
    """
    shared: dict[tuple, PiecewiseLinear] = {}
    layers = []
    for t, lay in enumerate(mlp.layers):
        kinked = t > 0
        rows = []
        for weights, bias in zip(lay.weight, lay.bias):
            row = []
            for p, w in enumerate(weights):
                intercept = bias if p == 0 else 0.0
                # float.hex is exact and, unlike ==, tells -0.0 from 0.0
                key = (kinked, w.hex(), intercept.hex())
                act = shared.get(key)
                if act is None:
                    if kinked:
                        act = PiecewiseLinear((0.0,), (0.0, w), intercept)
                    else:
                        act = PiecewiseLinear((), (w,), intercept)
                    shared[key] = act
                row.append(act)
            rows.append(tuple(row))
        layers.append(KanLayer(tuple(rows)))
    return Kan(tuple(layers))
