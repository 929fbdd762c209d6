"""Conversions between KANs and ReLU MLPs.

Direction one lowers each KAN layer to a block, a two-layer ReLU MLP with
one hidden layer, then chains blocks by folding each block's output affine
map into the next block's input affine map.  Direction two re-expresses an MLP as a KAN whose activations are
one- or two-segment piecewise linear functions.

Two lowering modes exist.  "exact" spends one shared hidden pair
(relu(x_p), relu(-x_p)) per input coordinate so the first-segment slope term
is reproduced on all of R; the result equals the source everywhere.  "paper"
is the compact single-sided form: one hidden unit per segment, correct only
where the converted activation's input is nonnegative.
"""
from __future__ import annotations

from dataclasses import replace
from enum import Enum
from typing import Sequence

from .core import Activation, Kan, KanLayer, Mlp, MlpLayer, PiecewiseLinear
from .errors import ValidationError

STRUCTURAL = "structural"
FREE = "free"


class ConversionMode(str, Enum):
    """How a KAN layer is lowered to ReLU units.

    ``EXACT`` equals the source layer on all of R.  ``PAPER`` is the compact
    single-sided form and is only correct for inputs >= 0.
    """

    EXACT = "exact"
    PAPER = "paper"


def kan_layer_to_relu(layer: KanLayer, mode: ConversionMode | str) -> Mlp:
    """Lower a whole KAN layer to a one-hidden-layer ReLU network.

    The result is a two-layer ``Mlp``: a ReLU layer ``(w1, b1)`` whose hidden
    units each read exactly one input coordinate, then an identity layer
    ``(w2, b2)``.  Every entry carries a provenance tag: "structural" entries
    are the 0/+1/-1 constants forced by the construction pattern, "free"
    entries carry source-model parameters.

    In exact mode the first 2*n_in units are the shared identity pairs
    relu(x_p), relu(-x_p), then one unit per activation breakpoint; hidden
    width is 2*n_in + sum(segments - 1).  In paper mode each activation gets
    one first-segment unit relu(x_p) plus its breakpoint units; hidden width
    is sum(segments).
    """
    exact = ConversionMode(mode) is ConversionMode.EXACT
    n_in = layer.n_in

    # hidden units: (input coordinate, sign, bias, bias tag)
    units: list[tuple[int, float, float, str]] = []
    if exact:
        for p in range(n_in):
            units.append((p, 1.0, 0.0, STRUCTURAL))
            units.append((p, -1.0, 0.0, STRUCTURAL))
    # per output row, the hidden indices and weights it uses
    row_entries: list[list[tuple[int, float]]] = []
    for acts in layer.activations:
        entries = []
        for p, act in enumerate(acts):
            if exact:
                entries.append((2 * p, act.slopes[0]))
                entries.append((2 * p + 1, -act.slopes[0]))
            else:
                entries.append((len(units), act.slopes[0]))
                units.append((p, 1.0, 0.0, STRUCTURAL))
            for i, b in enumerate(act.breakpoints):
                entries.append((len(units), act.slopes[i + 1] - act.slopes[i]))
                units.append((p, 1.0, -b, FREE))
        row_entries.append(entries)

    w1 = []
    for p, sign, _bias, _tag in units:
        row = [0.0] * n_in
        row[p] = sign
        w1.append(tuple(row))

    hidden = len(units)
    w2 = []
    w2_tags = []
    for entries in row_entries:
        row = [0.0] * hidden
        tags = [STRUCTURAL] * hidden
        for idx, weight in entries:
            row[idx] = weight
            tags[idx] = FREE
        w2.append(tuple(row))
        w2_tags.append(tuple(tags))

    return Mlp(
        (
            MlpLayer(
                weight=tuple(w1),
                bias=tuple(u[2] for u in units),
                activation=Activation.RELU,
                weight_tags=((STRUCTURAL,) * n_in,) * hidden,
                bias_tags=tuple(u[3] for u in units),
            ),
            MlpLayer(
                weight=tuple(w2),
                bias=tuple(sum(act.intercept for act in acts) for acts in layer.activations),
                activation=Activation.IDENTITY,
                weight_tags=tuple(w2_tags),
                bias_tags=(FREE,) * layer.n_out,
            ),
        )
    )


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

    # only the end layers are re-validated; each folded layer is built once
    layers = [replace(blocks[0].layers[0], source_params=source_counts[0])]
    for t in range(1, len(blocks)):
        prev, cur = blocks[t - 1].layers[1], blocks[t].layers[0]
        weight, weight_tags, bias, bias_tags = _merge_affine(
            cur.weight, cur.weight_tags, cur.bias, cur.bias_tags,
            prev.weight, prev.weight_tags, prev.bias, prev.bias_tags,
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
    layers.append(replace(blocks[-1].layers[1], source_params=source_counts[-1]))
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
