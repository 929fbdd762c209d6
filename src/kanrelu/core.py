"""Core model types: piecewise linear and spline functions, KANs and ReLU MLPs.

All types are immutable value objects.  Evaluation is pure, uses 64-bit
floats throughout, and sums contributions in ascending input index order so
results are bit-reproducible, except for the sign of a NaN, which CPython
does not fix: adding two NaNs may return either one.  A row whose weights
are the negations of another row's gets its sum as ``0.0 - s`` from the
other's sum ``s``: round-to-nearest is symmetric, so each partial sum is
negated exactly, and an exact zero is ``+0.0`` in both sums.

A network that keeps being evaluated compiles its layers into kernels: per
layer, one Python function built once from generated straight-line source
that takes the layer's inputs as its arguments and does the float
operations of the layer's loop, in the same order, so every output bit is
the loop's.  Between two compiled MLP layers the second one's kept row
sums pass instead of the first one's outputs: an active ReLU unit adds
into them, and an inactive one costs one comparison.  A kernel returns None
when an output is not finite, so each kernel gets finite inputs only; the
network then runs again through the loops, as it does for a non-finite
input.  One point through the 4-88-88-88-4 MLP of a converted 4/3/6 KAN
takes about 9-10 µs compiled against about 33 µs in the loops (2 vCPU,
Python 3.11).  Compiling costs 10-25 µs per unit of straight-line size
against about 0.1 µs per unit for one interpreted apply, so a network
compiles only after ``KERNEL_AFTER`` evaluations at a finite input, each
layer in its own ``compile`` call and only when its size is at most
``KERNEL_MAX_UNITS``, which covers every layer of an exact conversion up to
a 16/3/8 KAN (4,128 units at most) and leaves out the 66,816-unit hidden
layers of a round-tripped 8/3/8 KAN; such a layer runs its loop in its
kernel's place.  Spline layers have no kernel.
"""
from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, ClassVar, Iterable, Sequence

from .errors import DomainError, ShapeError, ValidationError

Vector = tuple[float, ...]
_Row = tuple[tuple[int, float], ...]  # (column, weight) pairs
# (rows to sum, the first ``pairs`` of which also give their negated sums,
# each output row's (index into the sums then the negated sums, bias))
GroupedRows = tuple[tuple[_Row, ...], int, Sequence[tuple[int, float]]]

# provenance tags of MLP entries
STRUCTURAL = "structural"
FREE = "free"
_TAGS = frozenset((STRUCTURAL, FREE))
_FLOAT = frozenset((float,))

MAX_DEGREE = 5
CONTINUITY_REL_TOL = 1e-9

# a network compiles after this many evaluations at a finite input ...
KERNEL_AFTER = 256
# ... each layer whose straight-line size is at most this many units
KERNEL_MAX_UNITS = 8192
# at most this many terms per generated statement, so no expression nests deeply
_KERNEL_TERMS = 64
# at most this many kink tests nest in one chunk, well below the
# interpreter's limit of 100 indentation levels
_KERNEL_NEST = 32


def _finite_floats(values: Iterable[float], name: str) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats; a tuple of floats is kept, not copied."""
    if type(values) is tuple and _FLOAT.issuperset(map(type, values)):
        out = values
    else:
        out = tuple(map(float, values))
    if not all(map(math.isfinite, out)):
        bad = next(v for v in out if not math.isfinite(v))
        raise ValidationError(f"{name} must be finite, got {bad!r}")
    return out


def _affine_params(
    weight: Iterable[Iterable[float]], bias: Iterable[float], prefix: str = ""
) -> tuple[tuple[tuple[float, ...], ...], Vector]:
    """An affine map's weight rows and bias as float tuples, validated.

    The weight must be a non-empty rectangular matrix with one bias entry per
    row, and every entry must be finite.  ``prefix`` names the map in errors.
    Converted layers repeat row objects, so each distinct row object is
    checked once and every place it fills gets the same tuple.
    """
    weight = tuple(weight)  # holds every row, so ids stay unique
    checked: dict[int, tuple[float, ...]] = {}
    for row in weight:
        if id(row) not in checked:
            checked[id(row)] = _finite_floats(row, f"{prefix}weight row")
    rows = tuple([checked[id(row)] for row in weight])
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


def _check_tags(rows: Iterable[Iterable[str]], name: str) -> None:
    try:
        ok = _TAGS.issuperset(chain.from_iterable(rows))
    except TypeError:  # an unhashable entry is no tag either
        ok = False
    if not ok:
        raise ValidationError(f"{name} must be {STRUCTURAL!r} or {FREE!r}")


def _as_vector(x: Sequence[float], expected: int, what: object) -> Vector:
    """``x`` as a tuple of floats; a tuple of floats is kept, not copied.

    ``what`` names ``x`` in the length error: a string, or the model whose
    input ``x`` is, so that the name is only formatted for the error.
    """
    if len(x) != expected:
        name = what if isinstance(what, str) else f"{type(what).__name__} input"
        raise ShapeError(f"{name}: expected length {expected}, got {len(x)}")
    if type(x) is tuple and _FLOAT.issuperset(map(type, x)):
        return x
    return tuple(map(float, x))


_Kernel = Callable[..., "Vector | None"]

# a kernel output is finite when it lies in [-_MAX, _MAX]; an MLP row sum
# and a bias that each lie in [-_HALF, _HALF] add up to a finite output
_MAX = sys.float_info.max
_HALF = _MAX / 2


def _build_kernel(n_in: int, body: Iterable[str], name: str = "x") -> _Kernel:
    """The function ``kernel(x0, ..., x{n_in-1})``, its arguments named
    ``name`` then an index, whose body is the generated lines ``body``,
    which carry their own nesting.

    The lines hold only ``repr`` of floats, integer indices and generated
    names.  The floats are the checked-finite parameters, their finiteness
    bounds, and the slope changes ``kinks``, which are ``inf`` or ``-inf``
    where the difference of two finite slopes overflows.  The source runs
    with its own globals, which have no builtins but bind ``inf``, and its
    own locals, so the function and its namespaces form no reference cycle
    and are freed with the network that holds the function.
    """
    params = ", ".join(f"{name}{p}" for p in range(n_in))
    source = f"def kernel({params}):\n" + "".join(f" {line}\n" for line in body)
    namespace: dict = {}
    exec(compile(source, "<kanrelu kernel>", "exec"), {"__builtins__": {}, "inf": math.inf}, namespace)
    return namespace["kernel"]


def _none_unless_within(names: Sequence[str], bound: float) -> list[str]:
    """Lines that return ``None`` unless each of ``names`` lies in
    ``[-bound, bound]``, which a NaN never does."""
    lines = []
    for start in range(0, len(names), _KERNEL_TERMS):
        tests = " and ".join(f"{-bound!r} <= {name} <= {bound!r}" for name in names[start:start + _KERNEL_TERMS])
        lines.append(f"if not ({tests}): return None")
    return lines


def _returns(name: str, count: int) -> str:
    return "return (" + "".join(f"{name}{i}, " for i in range(count)) + ")"


def _finite_loop(forward: Callable[[Vector, bool], Vector]) -> _Kernel:
    """A layer loop ``forward`` in a kernel's place, at inputs that are all
    finite: its output, or ``None`` when one of its outputs is not finite or
    their sum overflows."""
    def loop(*v: float) -> Vector | None:
        y = forward(v, True)
        return y if math.isfinite(sum(y)) else None
    return loop


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
        _check_increasing(self.breakpoints, "breakpoints")

    @property
    def segments(self) -> int:
        return len(self.slopes)

    def segment_intercepts(self) -> tuple[float, ...]:
        """Per-segment intercepts g_i so the function is slopes[i]*x + g_i on segment i."""
        out = [self.intercept]
        for i, b in enumerate(self.breakpoints):
            out.append(out[i] + (self.slopes[i] - self.slopes[i + 1]) * b)
        return tuple(out)

    @cached_property
    def kinks(self) -> tuple[tuple[float, float], ...]:
        """``(b, slopes[i+1] - slopes[i])`` per breakpoint ``b``; built on first use.

        These rounded slope changes are what ``evaluate``, the ReLU lowering
        and ``normalize_pl`` read, so each is computed in this one place.
        """
        s = self.slopes
        return tuple((b, s[i + 1] - s[i]) for i, b in enumerate(self.breakpoints))

    @cached_property
    def is_zero(self) -> bool:
        """True when every slope and the intercept are ``±0.0`` and no ``x - b``
        overflows (``0.0 * inf`` is NaN): ``±0.0`` at every finite input."""
        return (
            not any(self.slopes)
            and self.intercept == 0.0
            and (not self.breakpoints or math.isfinite(sys.float_info.max - self.breakpoints[0]))
        )

    def evaluate(self, x: float) -> float:
        """The function at ``x``, in the running-sum form.

        Slope-change terms activate once a breakpoint is reached (breakpoint
        values count toward the right segment).
        """
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"x must be finite, got {x!r}")
        y = self.slopes[0] * x + self.intercept
        for b, d in self.kinks:
            if b <= x:
                y += d * (x - b)
            else:
                break
        return y

    __call__ = evaluate


eval_pl = PiecewiseLinear.evaluate  # eval_pl(f, x) is f.evaluate(x)


def normalize_pl(f: PiecewiseLinear) -> PiecewiseLinear:
    """``f`` without the breakpoints whose slope change in ``f.kinks`` is
    ``±0.0``: each such breakpoint's two segments merge into one.

    Conversions deliberately keep structural breakpoints around; this is the
    explicit cleanup step for callers that want minimal representations.
    """
    kept = [(b, s) for (b, d), s in zip(f.kinks, f.slopes[1:]) if d != 0.0]
    return PiecewiseLinear(tuple(b for b, _ in kept), (f.slopes[0], *(s for _, s in kept)), f.intercept)


def poly_eval(coeffs: Sequence[float], x: float) -> float:
    """Evaluate a polynomial given ascending-power coefficients."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_int(value, name: str) -> None:
    # bool is an int subclass, but a model file cannot hold one here
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_degree(value, name: str) -> None:
    """``value`` must be an integer from 0 to ``MAX_DEGREE``."""
    _check_int(value, name)
    if value < 0 or value > MAX_DEGREE:
        raise ValidationError(f"{name} must be between 0 and {MAX_DEGREE}")


def _check_increasing(values: Sequence[float], name: str) -> None:
    """Each of ``values`` must be less than the next; a NaN never is."""
    if not all(map(operator.lt, values, values[1:])):
        raise ValidationError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class PolySegmentSpline:
    """Univariate continuous spline stored as per-piece monomial coefficients.

    Piece i applies on [breakpoints[i-1], breakpoints[i]); breakpoint values
    belong to the piece on their right.  The end pieces extend their
    polynomials to the whole line.
    """

    breakpoints: tuple[float, ...]
    piece_coeffs: tuple[tuple[float, ...], ...]
    degree_bound: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", _finite_floats(self.breakpoints, "breakpoints"))
        pieces = tuple(_finite_floats(c, "piece coefficients") for c in self.piece_coeffs)
        object.__setattr__(self, "piece_coeffs", pieces)
        _check_degree(self.degree_bound, "degree bound")
        if len(pieces) != len(self.breakpoints) + 1:
            raise ValidationError("piece count must be breakpoint count + 1")
        _check_increasing(self.breakpoints, "breakpoints")
        for coeffs in pieces:
            if not coeffs:
                raise ValidationError("each piece needs at least one coefficient")
            if len(coeffs) > self.degree_bound + 1:
                raise ValidationError("piece degree exceeds the spline's degree bound")
        for i, b in enumerate(self.breakpoints):
            # rounding grows with the terms |c_j| |b|^j, not with their sum;
            # summed in Horner's form, as ``**`` can raise OverflowError
            size = sum(poly_eval([abs(c) for c in pieces[k]], abs(b)) for k in (i, i + 1))
            if abs(poly_eval(pieces[i], b) - poly_eval(pieces[i + 1], b)) > CONTINUITY_REL_TOL * max(1.0, size):
                raise ValidationError(f"spline is discontinuous at breakpoint {b!r}")

    @property
    def pieces(self) -> int:
        return len(self.piece_coeffs)

    @cached_property
    def is_zero(self) -> bool:
        """True when every coefficient is ``±0.0``: ``±0.0`` at every finite input."""
        return not any(map(any, self.piece_coeffs))

    def evaluate(self, x: float) -> float:
        idx = bisect_right(self.breakpoints, x)
        return poly_eval(self.piece_coeffs[idx], x)

    __call__ = evaluate


@dataclass(frozen=True)
class KanLayer:
    """One KAN layer: an n_out-by-n_in grid of univariate activations.

    Output coordinate q is the sum over inputs p of activations[q][p](x_p).
    The activations are all ``PiecewiseLinear`` or all ``PolySegmentSpline``.
    """

    activations: tuple[tuple[PiecewiseLinear | PolySegmentSpline, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.activations)
        object.__setattr__(self, "activations", rows)
        if not rows or not rows[0]:
            raise ValidationError("layer must have at least one input and one output")
        kind = PolySegmentSpline if isinstance(rows[0][0], PolySegmentSpline) else PiecewiseLinear
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValidationError("activation grid must be rectangular")
            for act in row:
                if not isinstance(act, kind):
                    raise ValidationError("activations must be all PiecewiseLinear or all PolySegmentSpline")

    @property
    def n_in(self) -> int:
        return len(self.activations[0])

    @property
    def n_out(self) -> int:
        return len(self.activations)

    @cached_property
    def live_columns(self) -> tuple[tuple[int, ...], ...]:
        """Per row, the ascending columns whose activation is not ``is_zero``; built on first use.

        Converted layers share one object per distinct activation, and each
        activation caches ``is_zero``, so it is computed once per object.
        """
        return tuple(tuple(p for p, act in enumerate(row) if not act.is_zero) for row in self.activations)

    @property
    def _kernel_units(self) -> int | None:
        """Live activations plus kinks of a PL layer, None for a spline layer."""
        if not isinstance(self.activations[0][0], PiecewiseLinear):
            return None
        rows = zip(self.activations, self.live_columns)
        return sum(1 + len(row[p].kinks) for row, live in rows for p in live)

    def _kernel_lines(self) -> list[str]:
        """``PiecewiseLinear.evaluate`` over ``live_columns``, unrolled.

        The kink tests of an activation nest, so a failed test skips the
        rest as ``evaluate``'s ``break`` does.  They nest in chunks of
        ``_KERNEL_NEST``: a chunk after a failed test fails its first test
        too, as breakpoints strictly increase.
        """
        lines = []
        for q, (row, live) in enumerate(zip(self.activations, self.live_columns)):
            lines.append(f"a{q} = 0.0")
            for p in live:
                act = row[p]
                lines.append(f"y = {act.slopes[0]!r}*x{p} + {act.intercept!r}")
                for start in range(0, len(act.kinks), _KERNEL_NEST):
                    for depth, (b, d) in enumerate(act.kinks[start:start + _KERNEL_NEST]):
                        lines.append(f"{' ' * depth}if {b!r} <= x{p}:")
                        lines.append(f"{' ' * depth} y += {d!r}*(x{p} - {b!r})")
                lines.append(f"a{q} += y")
        lines += _none_unless_within([f"a{q}" for q in range(self.n_out)], _MAX)
        lines.append(_returns("a", self.n_out))
        return lines

    def apply(self, x: Sequence[float]) -> Vector:
        """Row sums in ascending column order, each started at ``+0.0``.

        Such a sum is never ``-0.0``, so adding the ``±0.0`` of a zero
        activation at a finite input would not change it: only
        ``live_columns`` are visited.  A finite sum of the inputs means every
        input is finite; otherwise every activation is visited, where a PL
        one raises ``DomainError`` at a non-finite input and a spline gives
        NaN.  Each activation is evaluated by its own ``evaluate``; a
        network's kernel of a PL layer does the same operations in the same
        order.
        """
        return self._forward(_as_vector(x, self.n_in, "KanLayer input"))

    def _forward(self, v: Vector, finite: bool | None = None) -> Vector:
        """``apply`` on a float tuple of length ``n_in``; ``finite`` says that
        every input is finite, and is found from their sum when None."""
        if finite is None:
            finite = math.isfinite(sum(v))
        columns = self.live_columns if finite else (range(self.n_in),) * self.n_out
        out = []
        for row, live in zip(self.activations, columns):
            acc = 0.0
            for p in live:
                acc += row[p].evaluate(v[p])
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class _Chain:
    """Layers applied left to right, each one's outputs feeding the next one's inputs.

    Evaluation is tiered: the layer loops serve until ``KERNEL_AFTER``
    evaluations at a finite input, then the network compiles, one
    ``compile`` per layer, each layer whose ``_kernel_units`` (its
    straight-line size, None for a layer with no kernel) is at most
    ``KERNEL_MAX_UNITS``.  A kernel takes its layer's inputs and returns
    its outputs, except that an ``Mlp`` passes the kept row sums of the
    second of two compiled layers between their kernels.  The call count
    and the kernels sit in the instance ``__dict__``, and are neither
    compared nor pickled.  Two threads racing on the count may at worst
    both compile; either set of kernels is right.
    """

    layers: tuple
    layer_type: ClassVar[type]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        object.__setattr__(self, "layers", layers)
        if not layers:
            raise ValidationError(f"{type(self).__name__} needs at least one layer")
        for layer in layers:
            self._check_layer(layer)
        for a, b in zip(layers, layers[1:]):
            if a.n_out != b.n_in:
                raise ValidationError(
                    f"layer widths must chain: {a.n_out} outputs feed {b.n_in} inputs"
                )

    def _check_layer(self, layer) -> None:
        if not isinstance(layer, self.layer_type):
            raise ValidationError(f"{type(self).__name__} layers must be {self.layer_type.__name__}s")

    @property
    def input_dim(self) -> int:
        return self.layers[0].n_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].n_out

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.layers[0].n_in,) + tuple(layer.n_out for layer in self.layers)

    def evaluate(self, x: Sequence[float]) -> Vector:
        """The last layer's outputs at ``x``, converted to floats once.

        Once compiled, each layer's kernel takes what the one before
        returns as its arguments: finite outputs, or the row sums they
        make.  A kernel returns ``None`` when one of its outputs is not
        finite, and then the network runs again from ``x`` through the
        layer loops, as it does for a non-finite ``x``; the loops give the
        kernels' bits, and also the ``DomainError`` of a PL layer and the
        NaNs of ``0.0 * inf``.  Each layer's ``_forward``
        takes the float tuple its predecessor returned, so no intermediate
        is checked or converted again.
        """
        x = _as_vector(x, self.layers[0].n_in, self)
        if math.isfinite(sum(x)) and (kernels := self._finite_kernels()):
            y = x
            for kernel in kernels:
                if (y := kernel(*y)) is None:
                    break
            else:
                return y
        for layer in self.layers:
            x = layer._forward(x)
        return x

    def _finite_kernels(self) -> tuple[_Kernel, ...] | None:
        """The kernel per layer for a finite input, counting this call, or
        None for the loops.  A layer too big to compile runs its loop in
        its kernel's place."""
        state = vars(self)
        kernels = state.get("_kernels")
        if kernels is None:
            calls = state["_calls"] = state.get("_calls", 0) + 1
            if calls < KERNEL_AFTER:
                return None
            sizes = [layer._kernel_units for layer in self.layers]
            fits = [units is not None and units <= KERNEL_MAX_UNITS for units in sizes]
            # False: decided, never compiled
            kernels = state["_kernels"] = any(fits) and tuple(
                self._kernel(i, fits) if fit else _finite_loop(layer._forward)
                for i, (layer, fit) in enumerate(zip(self.layers, fits))
            )
        return kernels or None

    def _kernel(self, i: int, fits: Sequence[bool]) -> _Kernel:
        """Layer ``i``'s kernel, which takes its inputs and returns its
        outputs; ``fits`` says which layers compile."""
        layer = self.layers[i]
        return _build_kernel(layer.n_in, layer._kernel_lines())

    def __getstate__(self) -> dict:
        # a generated function cannot be pickled; a copy counts afresh
        return {k: v for k, v in vars(self).items() if k not in ("_kernels", "_calls")}


@dataclass(frozen=True)
class _KanChain(_Chain):
    """A chain of KAN layers, all of ``activation_type``."""

    layer_type = KanLayer
    activation_type: ClassVar[type] = PiecewiseLinear

    def _check_layer(self, layer) -> None:
        kind = self.activation_type
        if not isinstance(layer, KanLayer) or not isinstance(layer.activations[0][0], kind):
            raise ValidationError(f"{type(self).__name__} layers must be KanLayers of {kind.__name__} activations")


@dataclass(frozen=True)
class Kan(_KanChain):
    """A KAN: a chain of ``PiecewiseLinear`` KAN layers applied left to right."""

    def max_segments(self) -> int:
        return max(act.segments for layer in self.layers for row in layer.activations for act in row)


eval_kan = Kan.evaluate  # eval_kan(kan, x) is kan.evaluate(x)


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
        try:
            activation = Activation(self.activation)
        except ValueError:
            raise ValidationError(f"activation must be 'relu' or 'identity', got {self.activation!r}") from None
        object.__setattr__(self, "activation", activation)
        width = len(rows[0])
        if self.weight_tags is not None:
            tags = tuple(tuple(t) for t in self.weight_tags)
            object.__setattr__(self, "weight_tags", tags)
            if len(tags) != len(rows) or any(len(t) != width for t in tags):
                raise ValidationError("weight_tags must match weight shape")
            # converted layers repeat tag rows, so each row object is checked once
            _check_tags({id(t): t for t in tags}.values(), "weight_tags")
        if self.bias_tags is not None:
            object.__setattr__(self, "bias_tags", tuple(self.bias_tags))
            if len(self.bias_tags) != len(self.bias):
                raise ValidationError("bias_tags must match bias length")
            _check_tags((self.bias_tags,), "bias_tags")
        if self.source_params is not None:
            _check_int(self.source_params, "source_params")
            if self.source_params < 0:
                raise ValidationError(f"source_params must be >= 0, got {self.source_params}")

    @property
    def n_in(self) -> int:
        return len(self.weight[0])

    @property
    def n_out(self) -> int:
        return len(self.weight)

    @cached_property
    def _grouped_rows(self) -> GroupedRows:
        """Each row's ``(column, weight)`` pairs whose weight is not ``±0.0``, with
        equal rows and each ``r`` / ``-r`` pair summed once; built on first use.

        Of a pair, the row whose first weight is positive is kept.  Kept rows
        with a negated partner come first, so output index ``j >= k`` (``k``
        kept rows) reads the negation of kept sum ``j - k``.
        """
        # converted layers repeat row objects: each drops its ±0.0 entries once
        nonzero: dict[int, _Row] = {}
        for row in self.weight:
            if id(row) not in nonzero:
                nonzero[id(row)] = tuple([(p, w) for p, w in enumerate(row) if w != 0.0])
        distinct = dict.fromkeys(nonzero.values())  # first-seen order
        negated = {row: tuple([(p, -w) for p, w in row]) for row in distinct}
        paired = [row for row in distinct if row and row[0][1] > 0.0 and negated[row] in negated]
        summed_with_pairs = set(paired).union(map(negated.get, paired))
        kept = paired + [row for row in distinct if row not in summed_with_pairs]
        slot = {row: j for j, row in enumerate(kept)}
        slot.update((negated[row], len(kept) + j) for j, row in enumerate(paired))
        slot_of = {key: slot[row] for key, row in nonzero.items()}
        return tuple(kept), len(paired), tuple(zip([slot_of[id(row)] for row in self.weight], self.bias))

    def summation_rows(self, finite_input: bool) -> GroupedRows:
        """The rows a layer sum must visit, how many of the first also give
        their negated sum, and each output row's (sum index, bias).

        A sum that starts at ``+0.0`` is never ``-0.0``, so adding a skipped
        ``0.0 * x`` term (``±0.0`` for finite ``x``) would leave it unchanged:
        over finite inputs the nonzero entries give the dense sum bit for
        bit, rows with equal nonzero entries give equal sums, and a row of
        negated entries gives ``0.0 - s``, so each ``r`` / ``-r`` pair of
        distinct rows is summed once.  ``0.0 * inf`` is NaN, so a non-finite
        input visits every entry of every row.
        """
        if finite_input:
            return self._grouped_rows
        return tuple(tuple(enumerate(row)) for row in self.weight), 0, tuple(enumerate(self.bias))

    @property
    def _kernel_units(self) -> int:
        """Grouped nonzero weights plus outputs."""
        return sum(map(len, self._grouped_rows[0])) + self.n_out

    def _kernel_lines(self, sums_in: bool = False, feed: MlpLayer | None = None) -> list[str]:
        """``_forward``'s loop over the grouped rows, unrolled; a long row
        is summed in statements of at most ``_KERNEL_TERMS`` terms.  With
        ``sums_in``, the kernel takes the kept row sums ``s0, ...`` as its
        arguments instead, summed by the kernel before.

        When every ``|bias|`` is at most ``_HALF``, a row sum of at most
        ``_HALF`` gives a finite output, so only the distinct row sums are
        checked, before any output is built; otherwise each output is.

        A ReLU layer given the layer ``feed`` after it returns ``feed``'s
        kept row sums, not its outputs.  Each unit ``(j, b)``, in ascending
        order, is active where ``s{j} > -b``, and then adds its output ``t``
        times each nonzero weight of its column of ``feed`` into the sum of
        that row, which starts at ``+0.0``: ``feed``'s own loop, less the
        ``w*0.0`` terms of inactive units, which leave such a sum as it is.
        For finite ``s`` and ``b``, ``s > -b`` is ``s + b > 0.0``: negation
        is exact, and the exact sum, a multiple of 2**-1074, rounds to a
        positive float exactly when it is positive; a NaN or ``-inf`` sum is
        inactive both ways and ``+inf`` active.  Past ``_HALF``, the output
        of each active unit is checked, also of one with no weight in
        ``feed``.
        """
        rows, pairs, index_bias = self._grouped_rows
        lines = []
        for j, row in enumerate(() if sums_in else rows):
            acc = "0.0"
            for start in range(0, len(row), _KERNEL_TERMS):
                terms = "".join(f" + {w!r}*x{p}" for p, w in row[start:start + _KERNEL_TERMS])
                lines.append(f"s{j} = {acc}{terms}")
                acc = f"s{j}"
            if not row:
                lines.append(f"s{j} = 0.0")
        small_bias = all(-_HALF <= b <= _HALF for b in self.bias)
        if small_bias:
            lines += _none_unless_within([f"s{j}" for j, row in enumerate(rows) if row], _HALF)
        lines += [f"s{len(rows) + j} = 0.0 - s{j}" for j in range(pairs)]
        if feed is not None:
            feed_rows = feed._grouped_rows[0]
            adds: list[list[str]] = [[] if small_bias else [f" if t > {_MAX!r}: return None"]
                                     for _ in range(self.n_out)]
            for k, row in enumerate(feed_rows):
                lines.append(f"a{k} = 0.0")
                for p, w in row:
                    adds[p].append(f" a{k} += {w!r}*t")
            for (j, b), unit in zip(index_bias, adds):
                if unit:
                    lines += [f"if s{j} > {-b!r}:", f" t = s{j} + {b!r}", *unit]
            lines.append(_returns("a", len(feed_rows)))
            return lines
        for i, (j, b) in enumerate(index_bias):
            lines.append(f"o{i} = s{j} + {b!r}")
            if self.activation is Activation.RELU:
                lines.append(f"o{i} = o{i} if o{i} > 0.0 else 0.0")
        if not small_bias:
            lines += _none_unless_within([f"o{i}" for i in range(self.n_out)], _MAX)
        lines.append(_returns("o", self.n_out))
        return lines

    def apply(self, x: Sequence[float]) -> Vector:
        return self._forward(_as_vector(x, self.n_in, "MlpLayer input"))

    def _forward(self, v: Vector, finite: bool | None = None) -> Vector:
        """``apply`` on a float tuple of length ``n_in``; ``finite`` says that
        every input is finite, and is found from their sum when None."""
        # a finite sum means every input is finite; a finite input whose sum
        # overflows takes the ungrouped rows, which give the same bits
        if finite is None:
            finite = math.isfinite(sum(v))
        rows, pairs, index_bias = self.summation_rows(finite)
        sums = []
        for row in rows:
            acc = 0.0
            for p, w in row:
                acc += w * v[p]
            sums.append(acc)
        sums += [0.0 - s for s in sums[:pairs]]
        # the bias goes last, after the shared row sum, as in the dense loop
        if self.activation is Activation.RELU:
            return tuple([y if (y := sums[i] + b) > 0.0 else 0.0 for i, b in index_bias])
        return tuple([sums[i] + b for i, b in index_bias])


@dataclass(frozen=True)
class Mlp(_Chain):
    """A feedforward network: ReLU after every affine layer except the last."""

    layer_type = MlpLayer

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.layers[-1].activation is not Activation.IDENTITY:
            raise ValidationError("last layer activation must be identity")
        for layer in self.layers[:-1]:
            if layer.activation is not Activation.RELU:
                raise ValidationError("non-last layer activation must be relu")

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.n_out for layer in self.layers[:-1])

    def _kernel(self, i: int, fits: Sequence[bool]) -> _Kernel:
        """Layer ``i``'s kernel.  Between two compiled layers pass the
        second one's kept row sums, not the first one's outputs: a kernel
        after a compiled layer takes its kept row sums, and one before a
        compiled layer returns that layer's."""
        layer, sums_in = self.layers[i], i > 0 and fits[i - 1]
        feed = self.layers[i + 1] if i + 1 < len(fits) and fits[i + 1] else None
        lines = layer._kernel_lines(sums_in, feed)
        if sums_in:
            return _build_kernel(len(layer._grouped_rows[0]), lines, "s")
        return _build_kernel(layer.n_in, lines)


eval_mlp = Mlp.evaluate  # eval_mlp(mlp, x) is mlp.evaluate(x)
