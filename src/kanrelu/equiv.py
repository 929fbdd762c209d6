"""Semantic-equivalence harness for network pairs.

Sampled mode sweeps a Halton low-discrepancy point set over a box plus
deterministic probes just left and right of every first-layer breakpoint,
each kept only when it lies in the box.
Exact 1-D mode compares normalized polyhedral complexes piece by piece and
is strictly stronger than sampling.

Both modes feed one comparison scan.  Each location (a checked point, or a
piece's midpoint) scores its largest relative error over the output pairs,
and an inf or NaN difference scores inf.  The report names the worst
location; a tie goes to the smallest location, which in exact mode, where
the midpoints ascend, is the first piece.  The pair passes when the worst
error is at most ``tol``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Kan, Mlp
from .errors import ShapeError, ValidationError
from .regions import _close, _midpoint, exact_regions_1d

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
    sweep.  A negative seed raises ``ValidationError``.
    """
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    bases = _first_primes(dim)
    start = 1 + seed
    return [
        tuple(_radical_inverse(base, start + i) for base in bases)
        for i in range(count)
    ]


def first_layer_input_breakpoints(net) -> dict[int, list[float]]:
    """Input-space kink locations induced by the first layer, per coordinate."""
    if isinstance(net, Kan):
        kinks = (
            (p, v)
            for row in net.layers[0].activations
            for p, act in enumerate(row)
            for v in act.breakpoints
        )
    elif isinstance(net, Mlp) and net.input_dim == 1 and len(net.layers) > 1:
        layer = net.layers[0]
        kinks = ((0, -b / row[0]) for row, b in zip(layer.weight, layer.bias) if row[0] != 0.0)
    else:
        kinks = ()
    points: dict[int, set[float]] = {}
    for p, v in kinks:
        points.setdefault(p, set()).add(v)
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
        # an infinite bound or extent would make every sample point -inf + u * inf, NaN
        if not (lo < hi and math.isfinite(hi - lo)):
            raise ValidationError(f"box intervals must have lo < hi and a finite extent hi - lo, got ({lo!r}, {hi!r})")
        out.append((lo, hi))
    return out


def _check_tol(tol: float) -> None:
    if not tol >= 0.0:  # also rejects NaN
        raise ValidationError(f"tol must be >= 0, got {tol}")


def _probe_points(a, b, box: list[tuple[float, float]]) -> list[tuple[float, ...]]:
    """The box center moved to just left and right of each first-layer
    breakpoint in one coordinate, kept only when that coordinate stays in the box."""
    center = tuple(0.5 * (lo + hi) for lo, hi in box)
    probes = []
    for net in (a, b):
        for p, values in first_layer_input_breakpoints(net).items():
            lo, hi = box[p]
            for v in values:
                for offset in (-BREAKPOINT_PROBE_OFFSET, BREAKPOINT_PROBE_OFFSET):
                    if lo <= v + offset <= hi:
                        point = list(center)
                        point[p] = v + offset
                        probes.append(tuple(point))
    return probes


def _scan(compared, tol: float, samples: int, mode: str) -> EquivReport:
    """The one comparison behind every report.

    ``compared`` yields ``(location, outputs of a, outputs of b)``.  An output
    pair's error is |va - vb| / (1 + max(|va|, |vb|)) in sampled mode and
    |va - vb| / max(1, |va|, |vb|) in exact mode.  An inf or nan difference
    counts as inf: inf/(1+inf) is nan, and nan never compares greater than
    the running maximum.
    """
    sampled = mode == "sampled"
    max_abs = 0.0
    max_rel = 0.0
    worst = None
    for location, ya, yb in compared:
        location_rel = 0.0
        for va, vb in zip(ya, yb):
            abs_err = abs(va - vb)
            if math.isfinite(abs_err):
                big = max(abs(va), abs(vb))
                rel_err = abs_err / (1.0 + big if sampled else max(1.0, big))
            else:
                abs_err = rel_err = math.inf
            if abs_err > max_abs:
                max_abs = abs_err
            if rel_err > location_rel:
                location_rel = rel_err
        if worst is None or location_rel > max_rel or (location_rel == max_rel and location < worst):
            max_rel = location_rel
            worst = location
    return EquivReport(max_abs, max_rel, worst, samples, max_rel <= tol, mode)


def assert_equiv(a, b, box, samples: int = 1000, tol: float = 1e-8, seed: int = DEFAULT_SEED) -> EquivReport:
    """Compare two networks on a box and report the worst disagreement.

    The error metric is |a(x) - b(x)| / (1 + max(|a(x)|, |b(x)|)) per output
    coordinate, so the tolerance is meaningful across output magnitudes.
    A negative ``seed`` raises ``ValidationError``, as in ``halton_points``,
    and so does a negative or NaN ``tol``.
    """
    _check_tol(tol)
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
    compared = ((point, a.evaluate(point), b.evaluate(point)) for point in points)
    return _scan(compared, tol, len(points), "sampled")


def _first_unpaired_cut(cuts_a, cuts_b) -> float | None:
    """Walk both ascending cut lists, pairing cuts within CUT_PAIRING_TOL.

    Returns the smallest cut of either list left without a partner, or None
    when every cut is paired.
    """
    i = j = 0
    while i < len(cuts_a) and j < len(cuts_b):
        a, b = cuts_a[i], cuts_b[j]
        if _close(a, b, CUT_PAIRING_TOL):
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
    on either side fails with infinite errors.  A negative or NaN ``tol``
    raises ``ValidationError``.
    """
    _check_tol(tol)
    ca = exact_regions_1d(a)
    cb = exact_regions_1d(b)
    if ca.output_dim != cb.output_dim:
        raise ShapeError("networks have different output dimensions")

    unpaired = _first_unpaired_cut(ca.cut_points, cb.cut_points)
    if unpaired is not None:
        return EquivReport(math.inf, math.inf, (unpaired,), 0, False, "exact_1d")

    cuts = ca.cut_points
    compared = (
        ((_midpoint(cuts, i),), pa.slopes + pa.intercepts, pb.slopes + pb.intercepts)
        for i, (pa, pb) in enumerate(zip(ca.pieces, cb.pieces))
    )
    return _scan(compared, tol, 2 * ca.output_dim * len(ca.pieces), "exact_1d")
