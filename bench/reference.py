"""Independent reference evaluators for checking the program's outputs.

Everything here reads model files with the standard ``json`` module and
never imports kanrelu, so a defect in the package's parser, evaluator or
spline lowering cannot hide itself.  The arithmetic deliberately differs from
the package's (segment intercepts instead of running sums, de Boor instead
of monomial pieces), so comparisons use a tolerance.
"""
from __future__ import annotations

from bisect import bisect_right


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def pl_value(act: dict, x: float) -> float:
    """A PL activation from a kan file: slope*x + intercept of x's segment."""
    bps, slopes = act["breakpoints"], act["slopes"]
    seg = bisect_right(bps, x)
    intercept = act["intercept"]
    for i in range(seg):
        # continuity at bps[i] fixes the next segment's intercept
        intercept += (slopes[i] - slopes[i + 1]) * bps[i]
    return slopes[seg] * x + intercept


def kan_eval(doc: dict, x) -> list[float]:
    v = list(x)
    for layer in doc["payload"]["layers"]:
        v = [sum(pl_value(act, v[p]) for p, act in enumerate(row)) for row in layer["activations"]]
    return v


def mlp_rows(layer: dict) -> list[list[tuple[int, float]]]:
    """Nonzero (column, value) pairs per row of a dense or sparse mlp layer."""
    if "weight_sparse" in layer:
        rows_n, _ = layer["weight_sparse"]["shape"]
        rows: list[list[tuple[int, float]]] = [[] for _ in range(rows_n)]
        for r, c, value, _tag in layer["weight_sparse"]["triplets"]:
            if value != 0:
                rows[r].append((c, value))
        return rows
    return [[(c, w) for c, w in enumerate(row) if w != 0] for row in layer["weight"]]


def mlp_shape(layer: dict) -> tuple[int, int]:
    if "weight_sparse" in layer:
        rows, cols = layer["weight_sparse"]["shape"]
        return rows, cols
    return len(layer["weight"]), len(layer["weight"][0])


def mlp_eval(doc: dict, x) -> list[float]:
    v = list(x)
    for layer in doc["payload"]["layers"]:
        out = []
        for row, b in zip(mlp_rows(layer), layer["bias"]):
            acc = b + sum(w * v[c] for c, w in row)
            out.append(max(acc, 0.0) if layer["activation"] == "relu" else acc)
        v = out
    return v


def deboor(knots: list[float], coeffs: list[float], degree: int, x: float) -> float:
    """B-spline value by de Boor's algorithm; end polynomials extend outward."""
    n = len(coeffs)
    span = bisect_right(knots, x) - 1
    span = min(max(span, degree), n - 1)
    d = [coeffs[j + span - degree] for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = j + span - degree
            alpha = (x - knots[i]) / (knots[i + degree + 1 - r] - knots[i])
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[degree]
