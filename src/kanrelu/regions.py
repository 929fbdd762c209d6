"""Linear-region extraction: exact in one input dimension, gridded in two.

The 1-D extractor propagates a symbolic piecewise-affine form of every
intermediate coordinate through the network, inserting a cut point wherever
an affine piece crosses an activation breakpoint (or zero, for relu).  The
result is the network's polyhedral complex restricted to the line and serves
as the oracle for the region-count bounds.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .core import Activation, Kan, Mlp, MlpLayer, Vector, _all_finite
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
        if len(self.pieces) != len(self.cut_points) + 1:
            raise ValidationError("piece count must be cut count + 1")
        for a, b in zip(self.cut_points, self.cut_points[1:]):
            if not a < b:
                raise ValidationError("cut points must be strictly increasing")
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
    if not cuts:
        return 0.0
    if index == 0:
        return cuts[0] - 1.0
    if index == len(cuts):
        return cuts[-1] + 1.0
    return 0.5 * (cuts[index - 1] + cuts[index])


def _merge_cuts(cuts: Sequence[float], candidates: Sequence[float]) -> list[float]:
    merged: list[float] = []
    for v in sorted(list(cuts) + list(candidates)):
        if merged and _close(v, merged[-1], CUT_MERGE_TOL):
            continue
        merged.append(v)
    return merged


# A form is the affine data (slope, intercept) of one coordinate on one interval.
Forms = list[tuple[float, float]]


def _refine(cuts: list[float], forms: list[Forms], candidates: list[float]):
    if not candidates:
        return cuts, forms
    new_cuts = _merge_cuts(cuts, candidates)
    new_forms = []
    for i in range(len(new_cuts) + 1):
        m = _midpoint(new_cuts, i)
        src = bisect_right(cuts, m)
        new_forms.append(list(forms[src]))
    return new_cuts, new_forms


def _crossing_candidates(
    cuts: list[float], forms: list[Forms], thresholds_per_coord: list[list[float]]
) -> list[float]:
    candidates = []
    for i, interval_forms in enumerate(forms):
        lo = -math.inf if i == 0 else cuts[i - 1]
        hi = math.inf if i == len(cuts) else cuts[i]
        for (a, b), thresholds in zip(interval_forms, thresholds_per_coord):
            if a == 0.0:
                continue  # constant piece: lies entirely on one side
            for t in thresholds:
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
    cuts, forms = _refine(cuts, forms, _crossing_candidates(cuts, forms, thresholds))

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


def _apply_affine(forms: list[Forms], layer: MlpLayer) -> list[Forms]:
    rows, index = layer.summation_rows(
        _all_finite(chain.from_iterable(chain.from_iterable(forms)))
    )
    new_forms = []
    for interval_forms in forms:
        sums = []
        for row in rows:
            acc_a = acc_b = 0.0
            for p, w in row:
                a, b = interval_forms[p]
                acc_a += w * a
                acc_b += w * b
            sums.append((acc_a, acc_b))
        new_forms.append(
            [(a, b + bias) for (a, b), bias in zip(map(sums.__getitem__, index), layer.bias)]
        )
    return new_forms


def _apply_relu(cuts: list[float], forms: list[Forms]) -> tuple[list[float], list[Forms]]:
    width = len(forms[0])
    thresholds = [[0.0]] * width
    cuts, forms = _refine(cuts, forms, _crossing_candidates(cuts, forms, thresholds))
    new_forms = []
    for i, interval_forms in enumerate(forms):
        m = _midpoint(cuts, i)
        out: Forms = []
        for form in interval_forms:
            a, b = form
            # constant pieces sitting exactly on the kink count as active; an
            # active form keeps its tuple, which saves a copy of every form
            out.append(form if a * m + b >= 0.0 else (0.0, 0.0))
        new_forms.append(out)
    return cuts, new_forms


def _normalize(cuts: list[float], forms: list[Forms]) -> tuple[list[float], list[Forms]]:
    out_cuts: list[float] = []
    out_forms = [forms[0]]
    for cut, form in zip(cuts, forms[1:]):
        prev = out_forms[-1]
        same = all(
            _close(a1, a2, PIECE_MERGE_TOL) and _close(b1, b2, PIECE_MERGE_TOL)
            for (a1, b1), (a2, b2) in zip(prev, form)
        )
        if same:
            continue
        out_cuts.append(cut)
        out_forms.append(form)
    return out_cuts, out_forms


def exact_regions_1d(net: Kan | Mlp, normalize: bool = True) -> Complex1D:
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
        for layer in net.layers:
            forms = _apply_affine(forms, layer)
            if layer.activation is Activation.RELU:
                cuts, forms = _apply_relu(cuts, forms)
    else:
        raise ValidationError(f"unsupported network type {type(net).__name__}")

    if normalize:
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


def grid_fingerprint_2d(net, box: Sequence[float], resolution: int) -> RegionGrid:
    """Fingerprint the gradient field of a 2-input network on a box grid.

    Gradients are central finite differences at cell centers with step a
    quarter of the cell size, quantized to 1e-6.  A cell whose forward and
    backward differences disagree has a kink inside its probe cross; such
    boundary cells get id -1 and do not contribute regions, which keeps the
    estimate a lower bound.
    """
    if net.input_dim != 2:
        raise UnsupportedDimensionError(
            f"grid fingerprint needs input dimension 2, got {net.input_dim}"
        )
    if resolution < 8:
        raise ValidationError("resolution must be at least 8")
    x0, x1, y0, y1 = (float(v) for v in box)
    if not (x0 < x1 and y0 < y1):
        raise ValidationError("box must have positive extent")

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
            for o in range(len(right)):
                gx = quantize((right[o] - left[o]) / (2.0 * hx))
                gy = quantize((up[o] - down[o]) / (2.0 * hy))
                if gx != quantize((right[o] - center[o]) / hx) or gx != quantize(
                    (center[o] - left[o]) / hx
                ):
                    pure = False
                if gy != quantize((up[o] - center[o]) / hy) or gy != quantize(
                    (center[o] - down[o]) / hy
                ):
                    pure = False
                fp.append(gx)
                fp.append(gy)
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
