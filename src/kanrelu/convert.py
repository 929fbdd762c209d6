"""Conversions between KANs and ReLU MLPs.

Direction one lowers each KAN layer to a block, a two-layer ReLU MLP with
one hidden layer, and folds each block's input affine map into the output
affine map of the block before it.  A lowering or fold that overflows (a
slope change, an output's intercept sum, or a folded bias, which names its
input and breakpoint) raises ``ValidationError`` naming the KAN layer.
Direction two re-expresses an MLP as a KAN whose activations are one- or
two-segment piecewise linear functions.

Two lowering modes exist.  "exact" spends one shared hidden pair
(relu(x_p), relu(-x_p)) per input coordinate so the first-segment slope term
is reproduced on all of R, up to rounding: like ``Kan.evaluate``, the MLP
uses the rounded slope changes ``slopes[i+1] - slopes[i]`` of
``PiecewiseLinear.kinks``, the one place they are computed, and it sums in
another order.  Both thus miss the exact value of the stored parameters by
an error that grows with |x|: with 3-decimal slopes at |x| <= 1e9, any two
of the MLP, ``Kan.evaluate`` and the exact value differ by under 1e-15 * M
(at most 4e-16 * M measured; M: the network on absolute values with every
breakpoint passed).  "paper" is the compact single-sided form: one hidden
unit per segment, correct only where the converted activation's input is
nonnegative.
"""
from __future__ import annotations

import math
from dataclasses import replace
from enum import Enum
from typing import Iterable, Sequence

from .core import FREE, STRUCTURAL, Activation, Kan, KanLayer, Mlp, MlpLayer, PiecewiseLinear
from .errors import ValidationError


class ConversionMode(str, Enum):
    """How a KAN layer is lowered to ReLU units.

    ``EXACT`` follows the source layer on all of R, up to the rounding of
    its slope changes, which it reads from ``PiecewiseLinear.kinks``, and of
    its sums (see the module docstring).  ``PAPER`` is the
    compact single-sided form and is only correct for inputs >= 0.
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
    is sum(segments).  A slope change or an output's intercept sum that
    overflows raises ``ValidationError`` naming its activation or output.
    """
    exact = ConversionMode(mode) is ConversionMode.EXACT
    n_in = layer.n_in

    # hidden units: (input coordinate, sign, bias, bias tag)
    units = [(p, sign, 0.0, STRUCTURAL) for p in range(n_in) for sign in (1.0, -1.0)] if exact else []
    # per output row, the hidden indices and weights it uses
    row_entries: list[list[tuple[int, float]]] = []
    for q, acts in enumerate(layer.activations):
        entries = []
        for p, act in enumerate(acts):
            if exact:
                entries.append((2 * p, act.slopes[0]))
                entries.append((2 * p + 1, -act.slopes[0]))
            else:
                entries.append((len(units), act.slopes[0]))
                units.append((p, 1.0, 0.0, STRUCTURAL))
            for b, d in act.kinks:
                if not math.isfinite(d):  # finite slopes such as (-1e308, 1e308)
                    raise ValidationError(
                        f"activation q={q}, p={p}: the slope change at breakpoint {b!r} overflows to {d!r}"
                    )
                entries.append((len(units), d))
                units.append((p, 1.0, -b, FREE))
        row_entries.append(entries)

    # one row object per (input coordinate, sign), shared by every unit reading it
    one_hot = {
        (p, sign): tuple(sign if c == p else 0.0 for c in range(n_in))
        for p, sign in {(u[0], u[1]) for u in units}
    }
    w1 = tuple([one_hot[u[0], u[1]] for u in units])

    bias = tuple(_ascending_sum(act.intercept for act in acts) for acts in layer.activations)
    for q, total in enumerate(bias):
        if not math.isfinite(total):
            raise ValidationError(f"output q={q}: the activation intercepts sum to {total!r}")

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
                weight=w1,
                bias=tuple(u[2] for u in units),
                activation=Activation.RELU,
                weight_tags=((STRUCTURAL,) * n_in,) * hidden,
                bias_tags=tuple(u[3] for u in units),
            ),
            MlpLayer(
                weight=tuple(w2),
                bias=bias,
                activation=Activation.IDENTITY,
                weight_tags=tuple(w2_tags),
                bias_tags=(FREE,) * layer.n_out,
            ),
        )
    )


def _ascending_sum(values: Iterable[float]) -> float:
    """``values`` added left to right to ``0.0``: what builtin ``sum`` gives
    before Python 3.12, whose ``sum`` of floats compensates rounding."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


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
    bias stays structural only when both of its inputs are; one that
    overflows raises ``ValidationError`` naming ``p`` and the unit's
    breakpoint ``-b1[i]``.  Each distinct pair of ``w1`` row and tag row
    objects is checked and folded once, and every hidden unit holding it
    shares the folded row; a lowered block holds one per ``(p, sign)``.
    """
    folded: dict[tuple[int, int], tuple[int, float, tuple[float, ...]]] = {}
    weight = []
    weight_tags = []
    bias = []
    bias_tags = []
    for i, (row, tags) in enumerate(zip(w1, w1_tags)):
        key = (id(row), id(tags))  # ``w1`` and ``w1_tags`` hold both
        if key not in folded:
            hits = [k for k, v in enumerate(row) if v != 0.0]
            if len(hits) != 1 or row[hits[0]] not in (1.0, -1.0) or any(t != STRUCTURAL for t in tags):
                raise ValidationError(f"w1 row {i} is not a structural one-hot +1/-1 row")
            p = hits[0]
            folded[key] = (p, row[p], tuple([0.0 + row[p] * v for v in w2_prev[p]]))
        p, sign, folded_row = folded[key]
        weight.append(folded_row)
        weight_tags.append(w2_prev_tags[p])
        total = b1[i] + sign * b2_prev[p]
        if not math.isfinite(total):
            raise ValidationError(
                f"input p={p}: the folded bias of the unit at breakpoint {-b1[i]!r} overflows to {total!r}"
            )
        bias.append(total)
        bias_tags.append(STRUCTURAL if b1_tags[i] == STRUCTURAL and b2_prev_tags[p] == STRUCTURAL else FREE)
    return tuple(weight), tuple(weight_tags), tuple(bias), tuple(bias_tags)


def _source_params_per_affine(kan: Kan) -> list[int]:
    """Independent source parameters routed into each affine layer.

    Breakpoints surface in the affine layer of their own block; slopes and
    the per-activation intercept surface one affine layer later, after the
    output map of their block is folded forward.
    """
    counts = [0] * (len(kan.layers) + 1)
    for t, layer in enumerate(kan.layers):
        for row in layer.activations:
            for act in row:
                counts[t] += act.segments - 1
                counts[t + 1] += act.segments + 1
    return counts


def kan_to_mlp(kan: Kan, mode: ConversionMode | str) -> Mlp:
    """Convert a KAN to an MLP with one more affine layer than the KAN.

    Each KAN layer is lowered to a block whose input map is folded into the
    output map of the block before it, so interior affine layers are the
    folded products of consecutive blocks; an error in either step names
    its KAN layer.  Entry provenance tags survive the fold, and each affine
    layer records how many independent source parameters it carries.
    """
    mode = ConversionMode(mode)
    source_counts = _source_params_per_affine(kan)
    layers: list[MlpLayer] = []
    for t, layer in enumerate(kan.layers):
        try:
            cur, out = kan_layer_to_relu(layer, mode).layers
            if layers:  # fold into the previous block's output map, built once
                prev = layers.pop()
                weight, weight_tags, bias, bias_tags = _merge_affine(
                    cur.weight, cur.weight_tags, cur.bias, cur.bias_tags,
                    prev.weight, prev.weight_tags, prev.bias, prev.bias_tags,
                )
                cur = MlpLayer(weight, bias, Activation.RELU, weight_tags, bias_tags, source_counts[t])
            else:
                cur = replace(cur, source_params=source_counts[t])
        except ValidationError as e:
            raise ValidationError(f"KAN layer {t}: {e}") from None
        layers += [cur, out]
    layers[-1] = replace(out, source_params=source_counts[-1])
    return Mlp(tuple(layers))


def mlp_to_kan(mlp: Mlp) -> Kan:
    """Convert an MLP to a KAN with the same number of layers.

    The first KAN layer absorbs the first affine map into one-segment
    activations, with each row's bias carried entirely by the activation
    reading input 0.  Every later KAN layer realises "apply relu, then the
    next affine map" with two-segment activations kinked at zero.

    Activations with the same shape, weight and intercept are one shared
    immutable object, so each distinct activation is built and validated
    once.  The sharing key keeps -0.0 apart from 0.0.  Only column 0 reads
    the bias, so the activations of columns 1 and up are built once per
    distinct row object of the MLP.
    """
    shared: dict[tuple, PiecewiseLinear] = {}

    def activation(kinked: bool, w: float, intercept: float) -> PiecewiseLinear:
        # float.hex is exact and, unlike ==, tells -0.0 from 0.0
        key = (kinked, w.hex(), intercept.hex())
        if key not in shared:
            if kinked:
                shared[key] = PiecewiseLinear((0.0,), (0.0, w), intercept)
            else:
                shared[key] = PiecewiseLinear((), (w,), intercept)
        return shared[key]

    layers = []
    for t, lay in enumerate(mlp.layers):
        kinked = t > 0
        # the layer holds every row, so ids stay unique
        tails: dict[int, tuple[PiecewiseLinear, ...]] = {}
        rows = []
        for weights, bias in zip(lay.weight, lay.bias):
            if id(weights) not in tails:
                tails[id(weights)] = tuple([activation(kinked, w, 0.0) for w in weights[1:]])
            rows.append((activation(kinked, weights[0], bias),) + tails[id(weights)])
        layers.append(KanLayer(tuple(rows)))
    return Kan(tuple(layers))
