"""Semantic-equivalence harness for network pairs.

Sampled mode sweeps a Halton low-discrepancy point set over a box plus
deterministic probes just left and right of every first-layer breakpoint.
Exact 1-D mode compares normalized polyhedral complexes piece by piece and
is strictly stronger than sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Kan, Mlp
from .errors import ShapeError, ValidationError
from .regions import _midpoint, exact_regions_1d

DEFAULT_SEED = 0
BREAKPOINT_PROBE_OFFSET = 1e-6
CUT_PAIRING_TOL = 1e-9


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class EquivReport:
    max_abs_error: float
    max_rel_error: float
    worst_point: tuple[float, ...]
    samples: int
    passed: bool
    mode: str

    def to_dict(self) -> dict:
        """Report fields in a fixed order; a non-finite error is None (JSON null)."""
        return {
            "max_abs_error": _finite_or_none(self.max_abs_error),
            "max_rel_error": _finite_or_none(self.max_rel_error),
            "worst_point": list(self.worst_point),
            "samples": self.samples,
            "passed": self.passed,
            "mode": self.mode,
        }


def _radical_inverse(base: int, index: int) -> float:
    scale = 1.0
    value = 0.0
    while index > 0:
        scale /= base
        value += scale * (index % base)
        index //= base
    return value


def _first_primes(count: int) -> list[int]:
    """The first ``count`` primes, one Halton base per dimension."""
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    return primes


def halton_points(dim: int, count: int, seed: int = DEFAULT_SEED) -> list[tuple[float, ...]]:
    """Deterministic low-discrepancy points in [0,1)^dim.

    Coordinate d is the radical inverse in the d-th prime base, so the first
    coordinates of a point do not depend on ``dim``.

    The seed offsets the start index of the sequence, so reports are
    reproducible and a different seed gives a fresh but still deterministic
    sweep.
    """
    bases = _first_primes(dim)
    start = 1 + max(0, int(seed))
    return [
        tuple(_radical_inverse(base, start + i) for base in bases)
        for i in range(count)
    ]


def first_layer_input_breakpoints(net) -> dict[int, list[float]]:
    """Input-space kink locations induced by the first layer, per coordinate."""
    points: dict[int, set[float]] = {}
    if isinstance(net, Kan):
        layer = net.layers[0]
        for row in layer.activations:
            for p, act in enumerate(row):
                if act.breakpoints:
                    points.setdefault(p, set()).update(act.breakpoints)
    elif isinstance(net, Mlp):
        if net.input_dim == 1 and len(net.layers) > 1:
            layer = net.layers[0]
            for q in range(layer.n_out):
                w = layer.weight[q][0]
                if w != 0.0:
                    points.setdefault(0, set()).add(-layer.bias[q] / w)
    return {p: sorted(vals) for p, vals in points.items()}


def _normalize_box(box, dim: int) -> list[tuple[float, float]]:
    box = list(box)
    if box and isinstance(box[0], (int, float)):
        if len(box) != 2:
            raise ValidationError("scalar box must be a (lo, hi) pair")
        box = [(float(box[0]), float(box[1]))] * dim
    if len(box) != dim:
        raise ValidationError(f"box needs one (lo, hi) pair per dimension ({dim})")
    out = []
    for lo, hi in box:
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValidationError("box intervals must have lo < hi")
        out.append((lo, hi))
    return out


def _probe_points(a, b, box: list[tuple[float, float]]) -> list[tuple[float, ...]]:
    center = tuple(0.5 * (lo + hi) for lo, hi in box)
    probes = []
    for net in (a, b):
        for p, values in first_layer_input_breakpoints(net).items():
            for v in values:
                for offset in (-BREAKPOINT_PROBE_OFFSET, BREAKPOINT_PROBE_OFFSET):
                    point = list(center)
                    point[p] = v + offset
                    probes.append(tuple(point))
    return probes


def assert_equiv(a, b, box, samples: int = 1000, tol: float = 1e-8, seed: int = DEFAULT_SEED) -> EquivReport:
    """Compare two networks on a box and report the worst disagreement.

    The error metric is |a(x) - b(x)| / (1 + max(|a(x)|, |b(x)|)) per output
    coordinate, so the tolerance is meaningful across output magnitudes.
    Ties on the worst point go to the lexicographically smallest point.
    """
    if a.input_dim != b.input_dim or a.output_dim != b.output_dim:
        raise ShapeError(
            f"network shapes differ: {a.input_dim}->{a.output_dim} vs {b.input_dim}->{b.output_dim}"
        )
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    box = _normalize_box(box, a.input_dim)

    points = [
        tuple(lo + u * (hi - lo) for u, (lo, hi) in zip(unit, box))
        for unit in halton_points(a.input_dim, samples, seed)
    ]
    points.extend(_probe_points(a, b, box))

    max_abs = 0.0
    max_rel = 0.0
    worst = points[0]
    for point in points:
        ya = a.evaluate(point)
        yb = b.evaluate(point)
        point_rel = 0.0
        for va, vb in zip(ya, yb):
            abs_err = abs(va - vb)
            if math.isfinite(abs_err):
                rel_err = abs_err / (1.0 + max(abs(va), abs(vb)))
            else:
                # an inf or nan output must fail: inf/(1+inf) is nan, and nan
                # never compares greater than the running maximum
                abs_err = rel_err = math.inf
            if abs_err > max_abs:
                max_abs = abs_err
            if rel_err > point_rel:
                point_rel = rel_err
        if point_rel > max_rel or (point_rel == max_rel and point < worst):
            max_rel = point_rel
            worst = point

    return EquivReport(
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        worst_point=worst,
        samples=len(points),
        passed=max_rel <= tol,
        mode="sampled",
    )


def _first_unpaired_cut(cuts_a, cuts_b) -> float | None:
    """Walk both ascending cut lists, pairing cuts within CUT_PAIRING_TOL.

    Returns the smallest cut of either list left without a partner, or None
    when every cut is paired.
    """
    i = j = 0
    while i < len(cuts_a) and j < len(cuts_b):
        a, b = cuts_a[i], cuts_b[j]
        if abs(a - b) <= CUT_PAIRING_TOL * max(1.0, abs(a), abs(b)):
            i += 1
            j += 1
        else:
            return min(a, b)
    rest = cuts_a[i:] or cuts_b[j:]
    return rest[0] if rest else None


def equiv_exact_1d(a, b, tol: float = 1e-9) -> EquivReport:
    """Certify equivalence of two 1-input networks by comparing complexes.

    Passes only when both normalized complexes have matching cut sets
    (paired within 1e-9) and per-piece affine coefficients within ``tol``
    under the combined absolute/relative metric.  A non-finite coefficient
    on either side fails with infinite errors.
    """
    ca = exact_regions_1d(a)
    cb = exact_regions_1d(b)
    if ca.output_dim != cb.output_dim:
        raise ShapeError("networks have different output dimensions")

    unpaired = _first_unpaired_cut(ca.cut_points, cb.cut_points)
    if unpaired is not None:
        return EquivReport(math.inf, math.inf, (unpaired,), 0, False, "exact_1d")

    max_abs = 0.0
    max_rel = 0.0
    worst_piece = 0
    compared = 0
    for i, (pa, pb) in enumerate(zip(ca.pieces, cb.pieces)):
        piece_rel = 0.0
        for va, vb in zip(pa.slopes + pa.intercepts, pb.slopes + pb.intercepts):
            compared += 1
            abs_err = abs(va - vb)
            if math.isfinite(abs_err):
                rel_err = abs_err / max(1.0, abs(va), abs(vb))
            else:
                # an inf or nan coefficient must fail, as in assert_equiv
                abs_err = rel_err = math.inf
            max_abs = max(max_abs, abs_err)
            piece_rel = max(piece_rel, rel_err)
        if piece_rel > max_rel:
            max_rel = piece_rel
            worst_piece = i
    return EquivReport(
        max_abs_error=max_abs,
        max_rel_error=max_rel,
        worst_point=(_midpoint(ca.cut_points, worst_piece),),
        samples=compared,
        passed=max_rel <= tol,
        mode="exact_1d",
    )
