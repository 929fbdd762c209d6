"""Model files: a JSON envelope with kind-specific payloads.

Documents are written canonically: fixed field order, two-space indent and
floats printed with 17 significant digits, so saving a loaded file is
byte-stable and numeric round trips are exact.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .convert import FREE, STRUCTURAL
from .core import Activation, Kan, KanLayer, Mlp, MlpLayer, PiecewiseLinear
from .errors import ParseError, ValidationError
from .splines import MonomialReluBlock, MonomialReluNetwork, PolySegmentSpline, SplineKan

FORMAT_VERSION = "1"
KINDS = ("kan", "mlp", "bspline_kan", "monomial_relu")


def _fmt_number(v: float) -> str:
    if not math.isfinite(v):
        raise ValidationError("documents cannot contain non-finite numbers")
    if v == 0.0:
        return "0"  # canonical form: negative zero reloads as plain zero
    return format(v, ".17g")


class _QuotedStrings(dict):
    """str -> JSON string literal, computed once per distinct string."""

    def __missing__(self, key: str) -> str:
        text = self[key] = json.dumps(key)
        return text


class _CanonicalEncoder:
    """Encoding state for one document.

    A class rather than nested functions: mutually recursive closures form a
    reference cycle that would keep every output piece alive until the next
    garbage collection.
    """

    def __init__(self) -> None:
        self.quoted = _QuotedStrings()
        self.seen: set[tuple[int, int]] = set()
        self.texts: dict[tuple[int, int], str] = {}
        self.out: list[str] = []

    def scalar(self, value: Any) -> str:
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float):
            return _fmt_number(value)
        if isinstance(value, str):
            return self.quoted[value]
        raise ValidationError(f"cannot serialize value of type {type(value).__name__}")

    def encode(self, value: Any, indent: int) -> None:
        out = self.out
        if isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            # the document holds every dict it reaches, so ids stay unique
            key = (id(value), indent)
            text = self.texts.get(key)
            if text is not None:
                out.append(text)
            elif key in self.seen:
                start = len(out)
                self.encode_dict(value, indent)
                text = self.texts[key] = "".join(out[start:])
                del out[start:]
                out.append(text)
            else:
                self.seen.add(key)
                self.encode_dict(value, indent)
        elif isinstance(value, (list, tuple)):
            if value:
                self.encode_list(value, indent)
            else:
                out.append("[]")
        else:
            out.append(self.scalar(value))

    def encode_dict(self, value: dict, indent: int) -> None:
        out, quoted, encode = self.out, self.quoted, self.encode
        inner = "  " * (indent + 1)
        last = len(value) - 1
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f"{inner}{quoted[str(k)]}: ")
            encode(v, indent + 1)
            out.append(",\n" if i < last else "\n")
        out.append("  " * indent + "}")

    def encode_list(self, value, indent: int) -> None:
        out = self.out
        pad = "  " * indent
        inner = "  " * (indent + 1)
        kinds = set(map(type, value))
        if kinds == {float}:
            fmt = _fmt_number
        elif kinds == {str}:
            fmt = self.quoted.__getitem__
        elif not any(issubclass(k, (dict, list, tuple)) for k in kinds):
            fmt = self.scalar
        else:
            encode = self.encode
            last = len(value) - 1
            out.append("[\n")
            for i, v in enumerate(value):
                out.append(inner)
                encode(v, indent + 1)
                out.append(",\n" if i < last else "\n")
            out.append(pad + "]")
            return
        # items go to ``out`` one by one, between copies of one shared
        # separator: joining each list into its own string first fragments
        # the heap and raised the peak memory of work done after a save
        pieces = [",\n" + inner] * (2 * len(value) + 1)
        pieces[0] = "[\n" + inner
        pieces[1::2] = map(fmt, value)
        pieces[-1] = "\n" + pad + "]"
        out.extend(pieces)


def dumps_canonical(obj: Any) -> str:
    """Encode a document canonically: two-space indent, one item per line.

    A dict met again at the same depth is encoded once and its text reused
    (converted KANs share one dict per distinct activation), and a list of
    scalars is formatted in one pass without recursion.
    """
    encoder = _CanonicalEncoder()
    encoder.encode(obj, 0)
    encoder.out.append("\n")
    return "".join(encoder.out)


def _pl_to_dict(act: PiecewiseLinear) -> dict:
    return {
        "breakpoints": list(act.breakpoints),
        "slopes": list(act.slopes),
        "intercept": act.intercept,
    }


def _mlp_layer_to_dict(layer: MlpLayer, sparse: bool) -> dict:
    doc: dict[str, Any] = {}
    if sparse:
        # structural zeros are dropped; free entries and structural 1/-1
        # constants are kept so the matrix reconstructs exactly
        triplets = []
        for r, row in enumerate(layer.weight):
            for c, value in enumerate(row):
                tag = layer.weight_tags[r][c] if layer.weight_tags else FREE
                if value != 0.0 or tag == FREE:
                    triplets.append([r, c, value, tag])
        doc["weight_sparse"] = {
            "shape": [layer.n_out, layer.n_in],
            "tagged": layer.weight_tags is not None,
            "triplets": triplets,
        }
    else:
        doc["weight"] = [list(row) for row in layer.weight]
        if layer.weight_tags is not None:
            doc["weight_tags"] = [list(row) for row in layer.weight_tags]
    doc["bias"] = list(layer.bias)
    if layer.bias_tags is not None:
        doc["bias_tags"] = list(layer.bias_tags)
    doc["activation"] = layer.activation.value
    if layer.source_params is not None:
        doc["source_params"] = layer.source_params
    return doc


def model_to_dict(model, sparse: bool = False, metadata: dict[str, str] | None = None) -> dict:
    if isinstance(model, Kan):
        kind = "kan"
        # one dict per distinct activation object; the model keeps the ids live
        act_docs: dict[int, dict] = {}
        for layer in model.layers:
            for row in layer.activations:
                for act in row:
                    if id(act) not in act_docs:
                        act_docs[id(act)] = _pl_to_dict(act)
        payload = {
            "layers": [
                {
                    "n_in": layer.n_in,
                    "n_out": layer.n_out,
                    "activations": [[act_docs[id(act)] for act in row] for row in layer.activations],
                }
                for layer in model.layers
            ]
        }
    elif isinstance(model, Mlp):
        kind = "mlp"
        payload = {"layers": [_mlp_layer_to_dict(layer, sparse) for layer in model.layers]}
    elif isinstance(model, SplineKan):
        kind = "bspline_kan"
        payload = {
            "layers": [
                {
                    "n_in": len(grid[0]),
                    "n_out": len(grid),
                    "activations": [
                        [
                            {
                                "breakpoints": list(act.breakpoints),
                                "pieces": [list(c) for c in act.piece_coeffs],
                                "degree": act.degree_bound,
                            }
                            for act in row
                        ]
                        for row in grid
                    ],
                }
                for grid in model.layers
            ]
        }
    elif isinstance(model, MonomialReluNetwork):
        kind = "monomial_relu"
        payload = {
            "blocks": [
                {
                    "weight": [list(row) for row in block.weight],
                    "bias": list(block.bias),
                    "degree": block.degree,
                }
                for block in model.blocks
            ],
            "readout": {
                "weight": [list(row) for row in model.readout_weight],
                "bias": list(model.readout_bias),
            },
        }
    else:
        raise ValidationError(f"cannot serialize model of type {type(model).__name__}")
    return {
        "kind": kind,
        "version": FORMAT_VERSION,
        "payload": payload,
        "metadata": dict(metadata or {}),
    }


def dumps_model(model, sparse: bool = False, metadata: dict[str, str] | None = None) -> str:
    return dumps_canonical(model_to_dict(model, sparse=sparse, metadata=metadata))


def save(model, path, sparse: bool = False, metadata: dict[str, str] | None = None) -> None:
    Path(path).write_text(dumps_model(model, sparse=sparse, metadata=metadata), encoding="utf-8")


def _need(doc: Any, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(f"{where}.{key}: expected a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(f"{where}.{key}: expected an integer")
        return value
    if not isinstance(value, kind):
        raise ParseError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _floats(values: Any, where: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list of numbers")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{where}[{i}]: expected a number")
        out.append(float(v))
    return tuple(out)


def _matrix(values: Any, where: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list of rows")
    return tuple(_floats(row, f"{where}[{i}]") for i, row in enumerate(values))


def _tags(values: Any, where: str):
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list")
    for i, v in enumerate(values):
        if v not in (STRUCTURAL, FREE):
            raise ParseError(f"{where}[{i}]: tags must be {STRUCTURAL!r} or {FREE!r}")
    return tuple(values)


def _parse_pl(doc: Any, where: str) -> PiecewiseLinear:
    return PiecewiseLinear(
        breakpoints=_floats(_need(doc, "breakpoints", list, where), f"{where}.breakpoints"),
        slopes=_floats(_need(doc, "slopes", list, where), f"{where}.slopes"),
        intercept=_need(doc, "intercept", float, where),
    )


def _parse_layers(payload: Any, parse_act, make_layer) -> tuple:
    """Each KAN layer, built by ``make_layer`` from its activation grid as
    soon as every entry of the grid is read by ``parse_act``."""
    layers = []
    for i, layer_doc in enumerate(_need(payload, "layers", list, "payload")):
        where = f"payload.layers[{i}]"
        n_in = _need(layer_doc, "n_in", int, where)
        n_out = _need(layer_doc, "n_out", int, where)
        grid_doc = _need(layer_doc, "activations", list, where)
        if len(grid_doc) != n_out or any(
            not isinstance(row, list) or len(row) != n_in for row in grid_doc
        ):
            raise ParseError(f"{where}.activations: grid must be n_out rows of n_in entries")
        grid = tuple(
            tuple(parse_act(act, f"{where}.activations[{q}][{p}]") for p, act in enumerate(row))
            for q, row in enumerate(grid_doc)
        )
        layers.append(make_layer(grid))
    return tuple(layers)


def _parse_kan(payload: Any) -> Kan:
    return Kan(_parse_layers(payload, _parse_pl, KanLayer))


def _parse_mlp_layer(doc: Any, where: str) -> MlpLayer:
    weight_tags = None
    if isinstance(doc, dict) and "weight_sparse" in doc:
        sparse = doc["weight_sparse"]
        shape = _need(sparse, "shape", list, f"{where}.weight_sparse")
        if len(shape) != 2 or any(not isinstance(v, int) or v < 1 for v in shape):
            raise ParseError(f"{where}.weight_sparse.shape: expected two positive integers")
        tagged = _need(sparse, "tagged", bool, f"{where}.weight_sparse")
        rows, cols = shape
        dense = [[0.0] * cols for _ in range(rows)]
        tags = [[STRUCTURAL] * cols for _ in range(rows)]
        for i, triplet in enumerate(_need(sparse, "triplets", list, f"{where}.weight_sparse")):
            if not isinstance(triplet, list) or len(triplet) != 4:
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: expected [row, col, value, tag]")
            r, c, value, tag = triplet
            if not isinstance(r, int) or not isinstance(c, int) or not (0 <= r < rows and 0 <= c < cols):
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: index out of range")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: value must be a number")
            if tag not in (STRUCTURAL, FREE):
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: bad tag {tag!r}")
            dense[r][c] = float(value)
            tags[r][c] = tag
        weight = tuple(tuple(row) for row in dense)
        weight_tags = tuple(tuple(row) for row in tags) if tagged else None
    else:
        weight = _matrix(_need(doc, "weight", list, where), f"{where}.weight")
        if "weight_tags" in doc:
            raw = _need(doc, "weight_tags", list, where)
            weight_tags = tuple(_tags(row, f"{where}.weight_tags[{i}]") for i, row in enumerate(raw))
    bias = _floats(_need(doc, "bias", list, where), f"{where}.bias")
    bias_tags = _tags(doc["bias_tags"], f"{where}.bias_tags") if "bias_tags" in doc else None
    activation = _need(doc, "activation", str, where)
    if activation not in ("relu", "identity"):
        raise ParseError(f"{where}.activation: expected 'relu' or 'identity'")
    source_params = None
    if "source_params" in doc:
        source_params = _need(doc, "source_params", int, where)
    return MlpLayer(
        weight=weight,
        bias=bias,
        activation=Activation(activation),
        weight_tags=weight_tags,
        bias_tags=bias_tags,
        source_params=source_params,
    )


def _parse_mlp(payload: Any) -> Mlp:
    layers_doc = _need(payload, "layers", list, "payload")
    return Mlp(
        tuple(
            _parse_mlp_layer(doc, f"payload.layers[{i}]") for i, doc in enumerate(layers_doc)
        )
    )


def _parse_spline(doc: Any, where: str) -> PolySegmentSpline:
    pieces_doc = _need(doc, "pieces", list, where)
    return PolySegmentSpline(
        breakpoints=_floats(_need(doc, "breakpoints", list, where), f"{where}.breakpoints"),
        piece_coeffs=tuple(
            _floats(c, f"{where}.pieces[{i}]") for i, c in enumerate(pieces_doc)
        ),
        degree_bound=_need(doc, "degree", int, where),
    )


def _parse_spline_kan(payload: Any) -> SplineKan:
    return SplineKan(_parse_layers(payload, _parse_spline, tuple))


def _parse_monomial(payload: Any) -> MonomialReluNetwork:
    blocks_doc = _need(payload, "blocks", list, "payload")
    blocks = []
    for i, doc in enumerate(blocks_doc):
        where = f"payload.blocks[{i}]"
        blocks.append(
            MonomialReluBlock(
                weight=_matrix(_need(doc, "weight", list, where), f"{where}.weight"),
                bias=_floats(_need(doc, "bias", list, where), f"{where}.bias"),
                degree=_need(doc, "degree", int, where),
            )
        )
    readout = _need(payload, "readout", dict, "payload")
    return MonomialReluNetwork(
        blocks=tuple(blocks),
        readout_weight=_matrix(_need(readout, "weight", list, "payload.readout"), "payload.readout.weight"),
        readout_bias=_floats(_need(readout, "bias", list, "payload.readout"), "payload.readout.bias"),
    )


_PARSERS = {
    "kan": _parse_kan,
    "mlp": _parse_mlp,
    "bspline_kan": _parse_spline_kan,
    "monomial_relu": _parse_monomial,
}


def loads_model(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    kind = _need(doc, "kind", str, "document")
    if kind not in KINDS:
        raise ParseError(f"document.kind: unknown kind {kind!r}")
    version = _need(doc, "version", str, "document")
    if version != FORMAT_VERSION:
        raise ParseError(f"document.version: unsupported version {version!r}")
    payload = _need(doc, "payload", dict, "document")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in metadata.items()
    ):
        raise ParseError("document.metadata: expected a string-to-string map")
    return _PARSERS[kind](payload)


def load(path):
    return loads_model(Path(path).read_text(encoding="utf-8"))
