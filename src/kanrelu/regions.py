"""Linear-region extraction: exact in one input dimension, gridded in two.

The 1-D extractor propagates a symbolic piecewise-affine form of every
intermediate coordinate through the network, inserting a cut point wherever
an affine piece crosses an activation breakpoint (or zero, for relu).  A KAN
carries one form per coordinate on each interval.  An MLP carries one form
per distinct row sum of its last layer (``MlpLayer.summation_rows``) and,
after a ReLU, one activity flag per unit: a unit's form is its sum's form
plus its bias, computed where it is read, and the next layer sums over the
active units only.  The result is the network's polyhedral complex
restricted to the line and serves as the oracle for the region-count bounds.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Sequence

from .core import _HALF, Activation, Kan, Mlp, MlpLayer, Vector, _check_increasing, _finite_floats
from .errors import UnsupportedDimensionError, ValidationError

CUT_MERGE_TOL = 1e-12
PIECE_MERGE_TOL = 1e-10
CONTINUITY_TOL = 1e-10


@dataclass(frozen=True)
class Piece:
    """Affine data of one maximal interval: one slope/intercept per output."""

    slopes: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.slopes) != len(self.intercepts):
            raise ValidationError("piece slopes and intercepts must have equal length")

    def value(self, x: float) -> Vector:
        return tuple(a * x + b for a, b in zip(self.slopes, self.intercepts))


@dataclass(frozen=True)
class Complex1D:
    """Polyhedral complex of a piecewise linear map on the real line."""

    cut_points: tuple[float, ...]
    pieces: tuple[Piece, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cut_points", _finite_floats(self.cut_points, "cut points"))
        if len(self.pieces) != len(self.cut_points) + 1:
            raise ValidationError("piece count must be cut count + 1")
        _check_increasing(self.cut_points, "cut points")
        for i, c in enumerate(self.cut_points):
            left = self.pieces[i].value(c)
            right = self.pieces[i + 1].value(c)
            for lv, rv in zip(left, right):
                if abs(lv - rv) > CONTINUITY_TOL * max(1.0, abs(lv), abs(rv)):
                    raise ValidationError(f"complex is discontinuous at cut {c!r}")

    @property
    def region_count(self) -> int:
        return len(self.pieces)

    @property
    def output_dim(self) -> int:
        return len(self.pieces[0].slopes)

    def evaluate(self, x: float) -> Vector:
        idx = bisect_right(self.cut_points, x)
        return self.pieces[idx].value(x)

    def to_dict(self) -> dict:
        return {
            "cuts": list(self.cut_points),
            "pieces": [
                {"slopes": list(p.slopes), "intercepts": list(p.intercepts)}
                for p in self.pieces
            ],
        }


def _close(a: float, b: float, tol: float) -> bool:
    # an infinite bound would make inf "close" to every number, so a number
    # is never close to an inf or a NaN, not even to itself
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b)) < math.inf


def _midpoint(cuts: Sequence[float], index: int) -> float:
    """A finite point inside piece ``index``, strictly inside wherever a float is.

    An end piece takes the point one unit out from its cut, an inner piece
    the mean of its cuts.  Past 2**53 a unit step rounds back onto the cut,
    so the next float out is taken; past about 9e307 the sum of two cuts
    overflows, so their halves are added.
    """
    if not cuts:
        return 0.0
    if index == 0:
        m = cuts[0] - 1.0
        return m if m < cuts[0] else max(math.nextafter(m, -math.inf), -sys.float_info.max)
    if index == len(cuts):
        m = cuts[-1] + 1.0
        return m if m > cuts[-1] else min(math.nextafter(m, math.inf), sys.float_info.max)
    a, b = cuts[index - 1], cuts[index]
    m = 0.5 * (a + b)
    return m if math.isfinite(m) else 0.5 * a + 0.5 * b


def _merge_cuts(cuts: Sequence[float], candidates: Sequence[float]) -> list[float]:
    merged: list[float] = []
    for v in sorted(list(cuts) + list(candidates)):
        if merged and _close(v, merged[-1], CUT_MERGE_TOL):
            continue
        merged.append(v)
    return merged


# A form is the affine data (slope, intercept) of one coordinate on one interval.
Forms = list[tuple[float, float]]
# Each unit's (sum index, bias), from ``MlpLayer.summation_rows``: on an
# interval whose row sums have the forms ``s``, unit ``i`` with
# ``units[i] == (j, bias)`` has the form ``(s[j][0], s[j][1] + bias)``.
Units = Sequence[tuple[int, float]]


def _refine(cuts: list[float], forms: list, candidates: list[float]):
    """The cuts merged with ``candidates``, and each new interval's data: the
    one of the interval it lies in, shared, not copied."""
    if not candidates:
        return cuts, forms
    new_cuts = _merge_cuts(cuts, candidates)
    new_forms = []
    for i in range(len(new_cuts) + 1):
        m = _midpoint(new_cuts, i)
        new_forms.append(forms[bisect_right(cuts, m)])
    return new_cuts, new_forms


def _crossing_candidates(
    cuts: list[float], forms: list[Forms], thresholds: Sequence[tuple[int, Sequence[float]]]
) -> list[float]:
    """The points inside each interval where form ``j`` of the interval,
    ``(a, b)``, takes a value ``t``, at ``(t - b) / a``, for each ``(j, ts)``
    of ``thresholds`` and ``t`` of ``ts``, in that order."""
    candidates = []
    for i, interval_forms in enumerate(forms):
        lo = -math.inf if i == 0 else cuts[i - 1]
        hi = math.inf if i == len(cuts) else cuts[i]
        for j, ts in thresholds:
            a, b = interval_forms[j]
            if a == 0.0:
                continue  # constant piece: lies entirely on one side
            for t in ts:
                root = (t - b) / a
                if lo < root < hi:
                    candidates.append(root)
    return candidates


def _apply_grid(cuts: list[float], forms: list[Forms], grid) -> tuple[list[float], list[Forms]]:
    n_out, n_in = len(grid), len(grid[0])
    thresholds: list[list[float]] = [[] for _ in range(n_in)]
    segment_data = []
    for q in range(n_out):
        row = []
        for p in range(n_in):
            act = grid[q][p]
            thresholds[p].extend(act.breakpoints)
            row.append((act.breakpoints, act.slopes, act.segment_intercepts()))
        segment_data.append(row)
    cuts, forms = _refine(cuts, forms, _crossing_candidates(cuts, forms, list(enumerate(thresholds))))

    new_forms = []
    for i, interval_forms in enumerate(forms):
        m = _midpoint(cuts, i)
        out: Forms = []
        for q in range(n_out):
            acc_a = acc_b = 0.0
            for p in range(n_in):
                a, b = interval_forms[p]
                breakpoints, slopes, offsets = segment_data[q][p]
                # breakpoint values belong to the right segment, so a flat
                # piece sitting exactly on a breakpoint picks the right side
                seg = bisect_right(breakpoints, a * m + b)
                acc_a += slopes[seg] * a
                acc_b += slopes[seg] * b + offsets[seg]
            out.append((acc_a, acc_b))
        new_forms.append(out)
    return cuts, new_forms


def _unit_forms(sums: Forms, active: Sequence[bool], units: Units) -> Forms:
    """Each unit's form on one interval; an inactive unit's is (0.0, 0.0)."""
    return [(sums[j][0], sums[j][1] + bias) if on else (0.0, 0.0) for (j, bias), on in zip(units, active)]


def _apply_affine(
    forms: list[Forms], active: list[list[bool]], units: Units, layer: MlpLayer
) -> tuple[list[Forms], Units]:
    """Each interval's row sums of ``layer``, and the layer's units.

    The inputs are the units of the layer before: ``forms`` holds each
    interval's row sums, ``active`` its flag per unit.  An inactive unit's
    form is ``(0.0, 0.0)``, and adding ``w * 0.0`` to a sum that starts at
    ``+0.0`` leaves it unchanged, as for the zero weights ``summation_rows``
    skips, so only active units are summed.  The grouped rows need every
    unit's form to be finite: each is when every row sum and every bias lies
    in ``[-_HALF, _HALF]``, and otherwise each active unit's form is checked.
    Intervals cut from one source share its list of row sums, so each
    distinct list is scanned once.
    """
    distinct = {id(sums): sums for sums in forms}.values()
    finite = all(-_HALF <= bias <= _HALF for _, bias in units) and all(
        -_HALF <= v <= _HALF for v in chain.from_iterable(chain.from_iterable(distinct))
    )
    if not finite:
        finite = all(
            math.isfinite(a) and math.isfinite(b)
            for sums, on in zip(forms, active)
            for a, b in _unit_forms(sums, on, units)
        )
    rows, pairs, index_bias = layer.summation_rows(finite)
    # each entry with its unit's sum index and bias, looked up once per layer
    rows = [[(p, w, *units[p]) for p, w in row] for row in rows]
    new_forms = []
    for sums, on in zip(forms, active):
        out = []
        for row in rows:
            acc_a = acc_b = 0.0
            for p, w, j, bias in row:
                if on[p]:
                    a, b = sums[j]
                    acc_a += w * a
                    acc_b += w * (b + bias)
            out.append((acc_a, acc_b))
        out += [(0.0 - a, 0.0 - b) for a, b in out[:pairs]]
        new_forms.append(out)
    return new_forms, index_bias


def _apply_relu(
    cuts: list[float], forms: list[Forms], units: Units
) -> tuple[list[float], list[Forms], list[list[bool]]]:
    """The cuts where a unit's form crosses zero added, each new interval's
    row sums, and one flag per unit: whether it is active there."""
    # consecutive units on one sum form a run, which keeps unit order
    runs = [(j, [bias for _, bias in run]) for j, run in groupby(units, itemgetter(0))]
    # unit (j, bias) is zero where sum j is -bias: (0.0 - bias) - b is
    # 0.0 - (b + bias) bit for bit, as negation is exact, rounding is
    # symmetric and an exact zero is +0.0 either way
    thresholds = [(j, [0.0 - bias for bias in biases]) for j, biases in runs]
    cuts, forms = _refine(cuts, forms, _crossing_candidates(cuts, forms, thresholds))
    active = []
    for i, sums in enumerate(forms):
        m = _midpoint(cuts, i)
        at = [(a * m, b) for a, b in sums]
        # constant pieces sitting exactly on the kink count as active
        active.append([am + (b + bias) >= 0.0 for j, biases in runs for am, b in (at[j],) for bias in biases])
    return cuts, forms, active


def _normalize(cuts: list[float], forms: list[Forms]) -> tuple[list[float], list[Forms]]:
    out_cuts: list[float] = []
    out_forms = [forms[0]]
    # a merged piece keeps its first form up to the next cut, so that form
    # must meet the next piece there as ``form`` does: slopes within
    # PIECE_MERGE_TOL drift apart far from the origin
    for cut, form, end in zip(cuts, forms[1:], chain(cuts[1:], [None])):
        prev = out_forms[-1]
        same = all(
            _close(a1, a2, PIECE_MERGE_TOL) and _close(b1, b2, PIECE_MERGE_TOL)
            and (end is None or _close(a1 * end + b1, a2 * end + b2, CONTINUITY_TOL))
            for (a1, b1), (a2, b2) in zip(prev, form)
        )
        if same:
            continue
        out_cuts.append(cut)
        out_forms.append(form)
    return out_cuts, out_forms


def exact_regions_1d(net: Kan | Mlp) -> Complex1D:
    """Extract the exact polyhedral complex of a 1-input network.

    Raises UnsupportedDimensionError for input dimension other than 1.
    """
    if net.input_dim != 1:
        raise UnsupportedDimensionError(
            f"exact region extraction needs input dimension 1, got {net.input_dim}"
        )
    cuts: list[float] = []
    forms: list[Forms] = [[(1.0, 0.0)]]

    if isinstance(net, Kan):
        for layer in net.layers:
            cuts, forms = _apply_grid(cuts, forms, layer.activations)
    elif isinstance(net, Mlp):
        # one form per distinct row sum of the last layer, one flag per unit;
        # the input is one unit whose bias, -0.0, leaves every float as it is
        units: Units = ((0, -0.0),)
        active = [[True]]
        for layer in net.layers:
            forms, units = _apply_affine(forms, active, units, layer)
            if layer.activation is Activation.RELU:
                cuts, forms, active = _apply_relu(cuts, forms, units)
            else:
                active = [[True] * len(units)] * len(forms)
        forms = [_unit_forms(sums, on, units) for sums, on in zip(forms, active)]
    else:
        raise ValidationError(f"unsupported network type {type(net).__name__}")

    cuts, forms = _normalize(cuts, forms)
    pieces = tuple(
        Piece(tuple(a for a, _ in f), tuple(b for _, b in f)) for f in forms
    )
    return Complex1D(tuple(cuts), pieces)


def composition_segment_bound(k: int, k_prime: int) -> int:
    """Segment bound for composing a k-segment map with a k'-segment map."""
    if k < 1 or k_prime < 1:
        raise ValidationError("segment counts must be >= 1")
    return k * k_prime


GRADIENT_QUANTUM = 1e-6


@dataclass(frozen=True)
class RegionGrid:
    """Grid fingerprint of a 2-input network's linear-region structure.

    Cells are indexed [iy][ix]; each holds the id of its quantized gradient
    fingerprint, or -1 for cells whose probe cross straddles a region
    boundary (one-sided gradient estimates disagree).  ``estimated_regions``
    counts 4-connected components of equal-fingerprint non-boundary cells
    and is a heuristic lower bound on the true region count over the box.
    """

    box: tuple[float, float, float, float]
    resolution: int
    fingerprints: tuple[tuple[int, ...], ...]
    estimated_regions: int

    def cell_center(self, ix: int, iy: int) -> tuple[float, float]:
        x0, x1, y0, y1 = self.box
        dx = (x1 - x0) / self.resolution
        dy = (y1 - y0) / self.resolution
        return (x0 + (ix + 0.5) * dx, y0 + (iy + 0.5) * dy)

    def to_csv(self) -> str:
        lines = ["x,y,fingerprint_id"]
        for iy in range(self.resolution):
            for ix in range(self.resolution):
                x, y = self.cell_center(ix, iy)
                lines.append(f"{x:.17g},{y:.17g},{self.fingerprints[iy][ix]}")
        return "\n".join(lines) + "\n"


def _connected_components(ids: list[list[int]], res: int) -> int:
    seen = [[False] * res for _ in range(res)]
    count = 0
    for sy in range(res):
        for sx in range(res):
            if seen[sy][sx] or ids[sy][sx] < 0:
                continue
            count += 1
            stack = [(sy, sx)]
            seen[sy][sx] = True
            target = ids[sy][sx]
            while stack:
                cy, cx = stack.pop()
                for ny, nx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                    if 0 <= ny < res and 0 <= nx < res and not seen[ny][nx] and ids[ny][nx] == target:
                        seen[ny][nx] = True
                        stack.append((ny, nx))
    return count


def _grid_box(box: Sequence[float], resolution: int) -> tuple[float, float, float, float]:
    """``box`` as floats ``(x0, x1, y0, y1)``, once it and ``resolution`` pass ``grid_fingerprint_2d``'s checks."""
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
    x0, x1, y0, y1 = (float(v) for v in box)
    # an infinite bound or extent would make the cell centers and gradients
    # NaN, and a subnormal extent a quarter-cell probe step of 0.0
    try:
        steps = ((x1 - x0) / resolution / 4.0, (y1 - y0) / resolution / 4.0)
    except OverflowError:  # an int beyond the float range
        raise ValidationError("resolution is too large to convert to a float") from None
    if not all(0.0 < h < math.inf for h in steps):
        raise ValidationError(
            "box must have a positive, finite extent in x and in y and a nonzero"
            f" quarter-cell step at resolution {resolution}, got {(x0, x1, y0, y1)!r}"
        )
    return x0, x1, y0, y1


def grid_fingerprint_2d(net, box: Sequence[float], resolution: int) -> RegionGrid:
    """Fingerprint the gradient field of a 2-input network on a box grid.

    Gradients are central finite differences at cell centers with step a
    quarter of the cell size, quantized to 1e-6.  A cell whose forward and
    backward differences disagree has a kink inside its probe cross; such
    boundary cells get id -1 and do not contribute regions, which keeps the
    estimate a lower bound.  A non-finite gradient (an output that
    overflows) raises ValidationError naming the cell.
    """
    if net.input_dim != 2:
        raise UnsupportedDimensionError(
            f"grid fingerprint needs input dimension 2, got {net.input_dim}"
        )
    x0, x1, y0, y1 = _grid_box(box, resolution)

    dx = (x1 - x0) / resolution
    dy = (y1 - y0) / resolution
    hx, hy = dx / 4.0, dy / 4.0

    def quantize(g: float) -> int:
        return int(round(g / GRADIENT_QUANTUM))

    fingerprint_ids: dict[tuple[int, ...], int] = {}
    ids_grid: list[list[int]] = []
    for iy in range(resolution):
        row = []
        cy = y0 + (iy + 0.5) * dy
        for ix in range(resolution):
            cx = x0 + (ix + 0.5) * dx
            center = net.evaluate((cx, cy))
            right = net.evaluate((cx + hx, cy))
            left = net.evaluate((cx - hx, cy))
            up = net.evaluate((cx, cy + hy))
            down = net.evaluate((cx, cy - hy))
            fp = []
            pure = True
            try:
                for o in range(len(right)):
                    for plus, minus, h in ((right, left, hx), (up, down, hy)):
                        # a pure cell's one-sided differences quantize to its central one
                        g = quantize((plus[o] - minus[o]) / (2.0 * h))
                        if g != quantize((plus[o] - center[o]) / h) or g != quantize((center[o] - minus[o]) / h):
                            pure = False
                        fp.append(g)
            except (ValueError, OverflowError):
                # round() of an inf raises OverflowError, of a NaN ValueError
                raise ValidationError(
                    f"non-finite gradient in grid cell ix={ix}, iy={iy} centered at {(cx, cy)!r}"
                ) from None
            if pure:
                key = tuple(fp)
                row.append(fingerprint_ids.setdefault(key, len(fingerprint_ids)))
            else:
                row.append(-1)
        ids_grid.append(row)

    regions = _connected_components(ids_grid, resolution)
    return RegionGrid(
        box=(x0, x1, y0, y1),
        resolution=resolution,
        fingerprints=tuple(tuple(r) for r in ids_grid),
        estimated_regions=regions,
    )
