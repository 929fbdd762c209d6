"""Model files: a JSON envelope with kind-specific payloads.

Documents are written canonically: fixed field order, two-space indent and
floats printed with 17 significant digits, so saving a loaded file is
byte-stable and numeric round trips are exact.

Documents are read once per repeated row: the reader walks the envelope,
payload, layer or block objects and KAN grids, and reads every list in one
loop.  A weight or tag matrix is read by a row lookup: a row whose text was
already read in that matrix gets the earlier list again, not parsed anew.
Once the rows are taken not to repeat (see ``_Reader.row_reader``), the
rest of the matrix goes to the C scanner of ``json`` in batches, as a
sparse file's triplets do.  ``load`` reads a regular file in chunks of
``_CHUNK`` characters and never holds its whole text.  Text the reader
cannot read is decoded again, whole, by ``json.loads``, which words the
error.  Weight rows, tag rows and KAN cells then become model objects by
one sharing rule, ``_shared``, so a converted model's file loads in a
fraction of the time and memory of ``json.loads``.
"""
from __future__ import annotations

import contextlib
import decimal
import json
import math
import os
import re
import struct
from collections import defaultdict
from functools import partial
from itertools import chain, compress, repeat
from operator import is_, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable

from .core import FREE, STRUCTURAL, Activation, Kan, KanLayer, Mlp, MlpLayer, PiecewiseLinear, PolySegmentSpline
from .errors import ParseError, ValidationError
from .splines import MonomialReluBlock, MonomialReluNetwork, SplineKan

FORMAT_VERSION = "1"
KINDS = ("kan", "mlp", "bspline_kan", "monomial_relu")


def _fmt_number(v: float) -> str:
    if not math.isfinite(v):
        raise ValidationError("documents cannot contain non-finite numbers")
    if v == 0.0:
        return "0"  # canonical form: negative zero reloads as plain zero
    return format(v, ".17g")


def _int_text(n: int) -> str:
    """The digits of ``n``, also past the 4,300 to which ``str`` is limited, as ``Decimal`` is not."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


_CONTAINERS = (dict, list, tuple)
# the exact value types of a list with one formatter each, and of a record list
_FLOAT, _STR, _INT, _LIST = frozenset((float,)), frozenset((str,)), frozenset((int,)), frozenset((list,))


class _QuotedStrings(dict):
    """str -> JSON string literal, computed once per distinct string."""

    def __missing__(self, key: str) -> str:
        text = self[key] = json.dumps(key)
        return text


class _CanonicalEncoder:
    """Encoding state for one document, written to ``write`` in chunks.

    A class rather than nested functions: mutually recursive closures form a
    reference cycle that would keep every output piece alive until the next
    garbage collection.
    """

    # pieces held before they are joined and written, and rows per chunk of a record list
    FLUSH_PIECES = 1 << 12

    def __init__(self, write: Callable[[str], object]) -> None:
        self.write = write
        self.quoted = _QuotedStrings()
        # per depth: ids of the dicts and tuples met once, and the text of those met again
        self.seen: defaultdict[int, set[int]] = defaultdict(set)
        self.texts: defaultdict[int, dict[int, str]] = defaultdict(dict)
        self.out: list[str] = []
        self.capturing = 0

    def flush(self) -> None:
        self.write("".join(self.out))
        self.out.clear()

    def scalar(self, value: Any) -> str:
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return _int_text(value)
        if isinstance(value, float):
            return _fmt_number(value)
        if isinstance(value, str):
            return self.quoted[value]
        raise ValidationError(f"cannot serialize value of type {type(value).__name__}")

    def formatter(self, kinds: set[type]) -> Callable[[Any], str] | None:
        """The text function for values of exact types ``kinds``, None if one is a container."""
        if kinds == _FLOAT:
            return _fmt_number
        if kinds == _STR:
            return self.quoted.__getitem__
        if kinds == _INT:
            return _int_text
        if kinds.isdisjoint(_CONTAINERS) and not any(issubclass(k, _CONTAINERS) for k in kinds):
            return self.scalar
        return None

    def encode(self, value: Any, indent: int) -> None:
        if isinstance(value, dict):
            if value:
                self.encode_dict(value, indent)
            else:
                self.out.append("{}")
        elif isinstance(value, (list, tuple)):
            if value:
                self.encode_list(value, indent)
            else:
                self.out.append("[]")
        else:
            self.out.append(self.scalar(value))

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
        """Encode a list or tuple; its item loop is the one place text is reused.

        A dict or tuple item is marked the first time it is met at its depth,
        its text captured the second time and reused after that.  List items
        are not tracked: lists are built for one place, and a sparse file has
        tens of thousands of them, so tracking them would only cost memory.
        """
        kinds = set(map(type, value))
        fmt = self.formatter(kinds)
        if fmt is not None:
            self.out.extend(self.lines(map(fmt, value), len(value), indent))
            return
        if kinds == _LIST and self.encode_records(value, indent):
            return
        # the texts kept for the items, as in a row of a converted KAN, are
        # looked up in one pass, and the runs of items that have one go out whole
        kept, seen = self.texts[indent + 1], self.seen[indent + 1]
        texts = list(map(kept.get, map(id, value)))
        out, encode = self.out, self.encode
        pieces = self.lines(texts, len(value), indent)
        done = 0  # pieces before this one are in the output
        for i in compress(range(len(value)), map(is_, texts, repeat(None))):
            out.extend(pieces[done:2 * i + 1])
            item = value[i]
            key = id(item)  # the document holds every item, so ids stay unique
            text = kept.get(key)  # a row met twice in this list is kept from then on
            if text is not None:
                out.append(text)
            elif key in seen:
                start = len(out)
                self.capturing += 1  # no flush may cut the capture short
                encode(item, indent + 1)
                self.capturing -= 1
                text = kept[key] = "".join(out[start:])
                del out[start:]
                out.append(text)
            else:
                if isinstance(item, (dict, tuple)):
                    seen.add(key)
                encode(item, indent + 1)
            done = 2 * i + 2
            if len(out) >= self.FLUSH_PIECES and not self.capturing:
                self.flush()
        out.extend(pieces[done:])

    @staticmethod
    def lines(texts, count: int, indent: int) -> list[str]:
        """The pieces of a list at ``indent``: ``count`` item texts between separators.

        Items go to the output one by one, between copies of one shared
        separator: joining each list into its own string first fragments the
        heap and raised the peak memory of work done after a save.
        """
        inner = "  " * (indent + 1)
        pieces = [",\n" + inner] * (2 * count + 1)
        pieces[0] = "[\n" + inner
        pieces[1::2] = texts
        pieces[-1] = "\n" + "  " * indent + "]"
        return pieces

    def encode_records(self, value, indent: int) -> bool:
        """Encode a list of equal-length lists of scalars column by column.

        Each column is formatted by its type's text function, each row filled
        into one template, and the rows written in chunks of ``FLUSH_PIECES``.
        Returns False, having written nothing, for any other list of lists.
        (Rows that are tuples, which a model may share, never come here.)
        """
        width = len(value[0])
        if not width or not set(map(type, value[0])).isdisjoint(_CONTAINERS):
            return False  # the usual case of a grid of dicts ends here
        if set(map(len, value)) != {width}:
            return False
        formats = []
        for column in map(itemgetter, range(width)):
            fmt = self.formatter(set(map(type, map(column, value))))
            if fmt is None:
                return False
            if fmt is _fmt_number or fmt is _int_text:
                # the values of a sparse file's index and weight columns repeat row after row
                distinct = set(map(column, value))
                if 2 * len(distinct) <= len(value):
                    fmt = dict(zip(distinct, map(fmt, distinct))).__getitem__
            formats.append(fmt)
        inner = "  " * (indent + 1)
        item = "  " * (indent + 2)
        template = f"{inner}[\n{item}" + f"%s,\n{item}" * (width - 1) + f"%s\n{inner}]"
        out, step = self.out, self.FLUSH_PIECES
        out.append("[\n")
        for start in range(0, len(value), step):
            if start:
                if not self.capturing:
                    self.flush()
                out.append(",\n")
            columns = zip(*value[start:start + step])
            out.append(",\n".join(map(template.__mod__, zip(*map(map, formats, columns)))))
        out.append("\n" + "  " * indent + "]")
        return True


def _encode_canonical(obj: Any, write: Callable[[str], object]) -> None:
    """Encode a document canonically, in chunks handed to ``write``.

    Two-space indent, one item per line.  A list of scalars is formatted in
    one pass without recursion, a list of equal-length lists of scalars (a
    sparse file's triplets) column by column, and any other list in one
    loop, the only place where text is reused: a dict or tuple item met
    again at the same depth is encoded once and its text written again
    (converted KANs share one dict per distinct activation, converted MLPs
    one tuple per distinct row).  List items are never reused.
    """
    encoder = _CanonicalEncoder(write)
    encoder.encode(obj, 0)
    encoder.out.append("\n")
    encoder.flush()


def dumps_canonical(obj: Any) -> str:
    """Encode a document canonically: two-space indent, one item per line."""
    chunks: list[str] = []
    _encode_canonical(obj, chunks.append)
    return "".join(chunks)


def _write_canonical(obj: Any, path: str, mode: str) -> None:
    with open(path, mode, encoding="utf-8") as f:
        _encode_canonical(obj, f.write)


def save_canonical(obj: Any, path) -> None:
    """Stream the canonical text of a document to ``path``.

    The text goes to a temporary file beside the target, which then replaces
    it, so a save that fails leaves an existing file as it was.  A target
    that exists and is not a regular file, such as a device or a pipe, is
    written in place: replacing it would put a file where it was.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        _write_canonical(obj, target, "w")
        return
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        _write_canonical(obj, tmp, "x")
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _pl_to_dict(act: PiecewiseLinear) -> dict:
    return {
        "breakpoints": list(act.breakpoints),
        "slopes": list(act.slopes),
        "intercept": act.intercept,
    }


def _spline_to_dict(act: PolySegmentSpline) -> dict:
    return {
        "breakpoints": list(act.breakpoints),
        "pieces": [list(c) for c in act.piece_coeffs],
        "degree": act.degree_bound,
    }


def _mlp_layer_to_dict(layer: MlpLayer, sparse: bool) -> dict:
    doc: dict[str, Any] = {}
    if sparse:
        # structural zeros are dropped; free entries and structural 1/-1
        # constants are kept so the matrix reconstructs exactly.  An untagged
        # layer keeps only its nonzeros, tagged free.  Converted layers
        # repeat rows, so each distinct (row, tags) pair is scanned once.
        tagged = layer.weight_tags is not None
        tag_rows = layer.weight_tags or ((FREE,) * layer.n_in,) * layer.n_out
        kept: dict[tuple[int, int], list[tuple[int, float, str]]] = {}
        triplets = []
        for r, (row, tags) in enumerate(zip(layer.weight, tag_rows)):
            key = (id(row), id(tags))  # the layer and ``tag_rows`` hold both
            if key not in kept:
                kept[key] = [
                    (c, v, t) for c, (v, t) in enumerate(zip(row, tags)) if v != 0.0 or (tagged and t == FREE)
                ]
            triplets.extend([[r, c, v, t] for c, v, t in kept[key]])
        doc["weight_sparse"] = {
            "shape": [layer.n_out, layer.n_in],
            "tagged": tagged,
            "triplets": triplets,
        }
    else:
        # the row tuples go in as they are, so the encoder sees shared rows
        doc["weight"] = list(layer.weight)
        if layer.weight_tags is not None:
            doc["weight_tags"] = list(layer.weight_tags)
    doc["bias"] = list(layer.bias)
    if layer.bias_tags is not None:
        doc["bias_tags"] = list(layer.bias_tags)
    doc["activation"] = layer.activation.value
    if layer.source_params is not None:
        doc["source_params"] = layer.source_params
    return doc


def model_to_dict(model, sparse: bool = False) -> dict:
    if isinstance(model, (Kan, SplineKan)):
        kind, act_to_dict = ("kan", _pl_to_dict) if isinstance(model, Kan) else ("bspline_kan", _spline_to_dict)
        # one dict per distinct activation object, made the first time it is
        # met; the model keeps the ids live
        act_docs: dict[int, dict] = {}

        def act_row(row) -> list[dict]:
            docs = list(map(act_docs.get, map(id, row)))
            if None in docs:  # an activation met for the first time, here or earlier in this row
                for p in compress(range(len(row)), map(is_, docs, repeat(None))):
                    act = row[p]
                    docs[p] = act_docs.get(id(act)) or act_docs.setdefault(id(act), act_to_dict(act))
            return docs

        payload = {
            "layers": [
                {"n_in": layer.n_in, "n_out": layer.n_out, "activations": list(map(act_row, layer.activations))}
                for layer in model.layers
            ]
        }
    elif isinstance(model, Mlp):
        kind = "mlp"
        payload = {"layers": [_mlp_layer_to_dict(layer, sparse) for layer in model.layers]}
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
        "metadata": {},
    }


def dumps_model(model, sparse: bool = False) -> str:
    return dumps_canonical(model_to_dict(model, sparse=sparse))


def save(model, path, sparse: bool = False) -> None:
    """Stream a model's canonical file to ``path``; a failed save leaves ``path`` as it was."""
    save_canonical(model_to_dict(model, sparse=sparse), path)


_NUMBER = frozenset((int, float))


def _number(value: Any, where: str) -> float:
    """``value`` as a float: a number is an int or float, not a bool, that fits a float."""
    if type(value) not in _NUMBER:
        raise ParseError(f"{where}: expected a number")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(f"{where}: number too large for a float") from None


def _need(doc: Any, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    value = doc[key]
    if kind is float:
        return _number(value, f"{where}.{key}")
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
    if _NUMBER.issuperset(map(type, values)):
        with contextlib.suppress(OverflowError):
            return tuple(map(float, values))
    # some value is no number: name the first
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(values))


_Read = Callable[[Any, str], tuple[Any, Callable[[], Any]]]  # an item's key and builder, for _shared


def _shared(items: Iterable, where: str, read: _Read, kept: dict) -> tuple:
    """The object each of ``items`` loads as: items equal bit for bit share one.

    ``read(item, f"{where}[{i}]")`` checks an item, once per run of one item
    object (the reader hands out one list per distinct row text), and returns
    its key, equal for two items exactly when they are equal bit for bit
    (None: never shared), and a function that builds its object.  Only an
    object that builds goes into ``kept``, so an error names the first bad item.
    """
    out = []
    last = shared = None
    for i, item in enumerate(items):
        if item is not last:
            key, build = read(item, f"{where}[{i}]")
            shared = kept.get(key)
            if shared is None:
                shared = build()
                if key is not None:
                    kept[key] = shared
            last = item
        out.append(shared)
    return tuple(out)


def _bits(values) -> bytes:
    """The bytes of the doubles ``values``: equal exactly when the values are equal bit for bit."""
    return struct.pack(f"{len(values)}d", *values)


def _weight_row(row: Any, where: str) -> tuple[bytes, Callable[[], tuple[float, ...]]]:
    try:
        if type(row) is not list or not _NUMBER.issuperset(map(type, row)):  # bool is not a number here
            raise TypeError
        key = _bits(row)
    except (TypeError, struct.error):  # struct.error: an integer beyond the float range
        _floats(row, where)  # raises, naming the entry
        raise
    return key, partial(tuple, map(float, row))  # keeps the parsed float objects


def _tags(values: Any, where: str):
    # MlpLayer checks each tag's value
    if not isinstance(values, list):
        raise ParseError(f"{where}: expected a list")
    return tuple(values)


def _tag_row(row: Any, where: str) -> tuple[tuple | None, Callable[[], tuple]]:
    row = _tags(row, where)
    # a row with a tag that is no string, which MlpLayer rejects, is never shared
    return row if _STR.issuperset(map(type, row)) else None, partial(tuple, row)  # tuple(row) is row


def _pl_fields(doc: Any, where: str) -> tuple[tuple, Callable[[], PiecewiseLinear]]:
    breakpoints = _floats(_need(doc, "breakpoints", list, where), f"{where}.breakpoints")
    slopes = _floats(_need(doc, "slopes", list, where), f"{where}.slopes")
    intercept = _need(doc, "intercept", float, where)
    key = len(breakpoints), _bits((*breakpoints, *slopes, intercept))
    return key, partial(PiecewiseLinear, breakpoints, slopes, intercept)


def _parse_layers(payload: Any, fields: _Read) -> tuple[KanLayer, ...]:
    """Each KAN layer, its activations read by ``fields`` and shared across the file."""
    kept: dict[Any, Any] = {}
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
        layers.append(KanLayer(tuple(
            _shared(row, f"{where}.activations[{q}]", fields, kept) for q, row in enumerate(grid_doc)
        )))
    return tuple(layers)


def _parse_kan(payload: Any) -> Kan:
    return Kan(_parse_layers(payload, _pl_fields))


def _parse_mlp_layer(doc: Any, where: str) -> MlpLayer:
    weight_tags = None
    if isinstance(doc, dict) and "weight_sparse" in doc:
        sparse = doc["weight_sparse"]
        shape = _need(sparse, "shape", list, f"{where}.weight_sparse")
        if len(shape) != 2 or any(type(v) is not int or v < 1 for v in shape):  # bool is no size
            raise ParseError(f"{where}.weight_sparse.shape: expected two positive integers")
        tagged = _need(sparse, "tagged", bool, f"{where}.weight_sparse")
        rows, cols = shape
        entries: list[list[list]] = [[] for _ in range(rows)]  # each row's triplets
        filled = bytearray(rows * cols)  # 1 where a triplet has set the entry
        triplets = _need(sparse, "triplets", list, f"{where}.weight_sparse")
        for i, triplet in enumerate(triplets):
            if not isinstance(triplet, list) or len(triplet) != 4:
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: expected [row, col, value, tag]")
            r, c, _, tag = triplet
            if type(r) is not int or type(c) is not int:  # bool is no index
                name, index = ("row", r) if type(r) is not int else ("column", c)
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: {name} must be an integer, got {index!r}")
            if not (0 <= r < rows and 0 <= c < cols):
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: index out of range")
            if tag not in (STRUCTURAL, FREE):
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: bad tag {tag!r}")
            at = r * cols + c
            if filled[at]:
                raise ParseError(f"{where}.weight_sparse.triplets[{i}]: duplicate entry for row {r}, column {c}")
            filled[at] = 1
            entries[r].append(triplet)
        _floats([triplet[2] for triplet in triplets], f"{where}.weight_sparse.triplets")  # names a bad value

        def dense_rows(field: int, blank):
            # one row at a time: _shared keeps only its shared tuple
            for row in entries:
                values = [blank] * cols
                for triplet in row:
                    values[triplet[1]] = triplet[field]
                yield values

        weight = _shared(dense_rows(2, 0.0), f"{where}.weight_sparse", _weight_row, {})
        weight_tags = _shared(dense_rows(3, STRUCTURAL), f"{where}.weight_sparse", _tag_row, {}) if tagged else None
    else:
        weight = _shared(_need(doc, "weight", list, where), f"{where}.weight", _weight_row, {})
        if "weight_tags" in doc:
            weight_tags = _shared(_need(doc, "weight_tags", list, where), f"{where}.weight_tags", _tag_row, {})
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


def _spline_fields(doc: Any, where: str) -> tuple[tuple, Callable[[], PolySegmentSpline]]:
    pieces_doc = _need(doc, "pieces", list, where)
    breakpoints = _floats(_need(doc, "breakpoints", list, where), f"{where}.breakpoints")
    pieces = tuple(_floats(c, f"{where}.pieces[{i}]") for i, c in enumerate(pieces_doc))
    degree = _need(doc, "degree", int, where)
    key = (degree, len(breakpoints), *map(len, pieces)), _bits((*breakpoints, *chain.from_iterable(pieces)))
    return key, partial(PolySegmentSpline, breakpoints, pieces, degree)


def _parse_spline_kan(payload: Any) -> SplineKan:
    return SplineKan(_parse_layers(payload, _spline_fields))


def _parse_monomial(payload: Any) -> MonomialReluNetwork:
    blocks_doc = _need(payload, "blocks", list, "payload")
    blocks = []
    for i, doc in enumerate(blocks_doc):
        where = f"payload.blocks[{i}]"
        blocks.append(
            MonomialReluBlock(
                weight=_shared(_need(doc, "weight", list, where), f"{where}.weight", _weight_row, {}),
                bias=_floats(_need(doc, "bias", list, where), f"{where}.bias"),
                degree=_need(doc, "degree", int, where),
            )
        )
    readout = _need(payload, "readout", dict, "payload")
    return MonomialReluNetwork(
        blocks=tuple(blocks),
        readout_weight=_shared(
            _need(readout, "weight", list, "payload.readout"), "payload.readout.weight", _weight_row, {}
        ),
        readout_bias=_floats(_need(readout, "bias", list, "payload.readout"), "payload.readout.bias"),
    )


_PARSERS = {
    "kan": _parse_kan,
    "mlp": _parse_mlp,
    "bspline_kan": _parse_spline_kan,
    "monomial_relu": _parse_monomial,
}


_SPACE = re.compile(r"[ \t\n\r]*").match  # JSON whitespace
_scan = json.JSONDecoder().scan_once  # the C scanner json.loads runs: one value at an index

# The layout the reader walks: a dict names the fields of an object that it
# walks into, a one-item list gives the layout of each item of a list, and
# _ROWS marks a matrix, a list of rows: a weight or tag matrix, or a sparse
# layer's triplets.  Every other value is scanned whole.
_ROWS = object()
_LAYER = {"weight": _ROWS, "weight_tags": _ROWS, "activations": [None], "weight_sparse": {"triplets": _ROWS}}
_DOCUMENT = {"payload": {"layers": [_LAYER], "blocks": [_LAYER], "readout": _LAYER}}
_CHUNK = 1 << 14  # characters a file is read in, and the most a batch of items spans


class _Reader:
    """A model document's text, walked by index.

    The reader holds the whole text, one window that never moves, or a text
    file read ``_CHUNK`` characters at a time, of which it holds a window
    that ``more`` moves on; so a caller reads ``text`` again after each call.
    Each ``read*`` method takes the index where a value starts in ``text``
    and returns the value and the index after it.

    Every list and object is read by one loop, ``read_list``, which handles
    the brackets, commas, spaces and window moves; only the reading of an
    item, or of a run of items, differs.  The envelope, payload, layer and
    block objects and the lists of layers, blocks and KAN grid rows are
    walked as ``_DOCUMENT`` lays out.  A matrix (a weight or tag matrix, or
    a sparse layer's triplets, whose rows are the triplets) is read by a row
    lookup (``row_reader``): a row whose text was read before in that
    matrix is not parsed again, but gets the list read the first time.  Once
    the rows are taken not to repeat, the rest of the matrix is read in
    batches (``read_batch``): each run of items up to a ``]`` is scanned as
    one list by the C scanner.  Triplets never repeat, so after their first
    nine rows they go in batches.  Every other value is scanned whole.
    """

    def __init__(self, source):
        self.file = None if isinstance(source, str) else source
        self.text = source if self.file is None else source.read(_CHUNK)

    def more(self, i: int) -> int:
        """Read on past the end of ``text``, keeping ``text[i:]``; the new
        index of ``i``, or -1 when the document has no more text."""
        # at least as much as is kept, so a value longer than a window is scanned O(log n) times
        if self.file is None or not (chunk := self.file.read(max(_CHUNK, len(self.text) - i))):
            return -1
        self.text = self.text[i:] + chunk
        return 0

    def skip(self, i: int) -> int:
        """The index of the first non-space character at or after ``i``, or
        ``len(text)`` at the end of the document."""
        while (i := _SPACE(self.text, i).end()) == len(self.text) and (j := self.more(i)) >= 0:
            i = j
        return i

    def after(self, i: int, char: str) -> int:
        """The index past ``char`` at ``text[i]`` and the spaces after it."""
        if self.text[i] != char:
            raise ValueError(f"expected {char!r} at index {i}")
        return self.skip(i + 1)

    def scan(self, i: int) -> tuple[Any, int]:
        """The value at ``text[i]``, read whole by the C scanner."""
        while True:
            try:
                value, end = _scan(self.text, i)
            except (ValueError, StopIteration):  # malformed, or cut short by the end of ``text``
                if (i := self.more(i)) < 0:
                    raise
                continue
            # a number cut short scans as a shorter one, "1." or "1e-" as 1, so
            # two more characters must follow it in ``text``
            if end + 2 < len(self.text) or (j := self.more(i)) < 0:
                return value, end
            i = j

    def read(self, i: int, layout: Any) -> tuple[Any, int]:
        """The value at ``text[i]``, walked as ``layout`` says."""
        opener = self.text[i]
        if opener == "{" and type(layout) is dict:
            return self.read_list(i, partial(self.read_field, layout), {}, "}")
        if opener == "[" and layout is _ROWS:
            return self.read_list(i, self.row_reader(), [], "]")
        if opener == "[" and type(layout) is list:
            return self.read_list(i, partial(self.read_item, layout[0]), [], "]")
        return self.scan(i)

    def read_list(self, i: int, item: Callable[[int, Any], int], items, close: str) -> tuple[Any, int]:
        """The list (or object) that starts at ``text[i]``, read into ``items``
        up to its ``close`` bracket.  ``item(i, items)`` reads the item at
        ``text[i]``, or a run of items, into ``items`` and returns the index
        after what it read."""
        i = self.skip(i + 1)
        if self.text[i] == close:
            return items, i + 1
        while True:
            i = self.skip(item(i, items))
            if self.text[i] == close:
                return items, i + 1
            i = self.after(i, ",")

    def read_field(self, fields: dict, i: int, doc: dict) -> int:
        if self.text[i] != '"':
            raise ValueError(f"expected a key at index {i}")
        key, i = self.scan(i)
        # a repeated key keeps its first place and its last value, as in json.loads
        doc[key], i = self.read(self.after(self.skip(i), ":"), fields.get(key))
        return i

    def read_item(self, layout: Any, i: int, items: list) -> int:
        item, i = self.read(i, layout)
        items.append(item)
        return i

    def read_batch(self, i: int, items: list) -> int:
        """The items from ``text[i]`` to the last ``]`` within ``_CHUNK``
        characters, put between brackets and scanned as one list, which is
        what the C scanner reads there when that ``]`` ends an item or the
        list.  When it does not (it is inside an item, or none is in reach),
        the one item at ``text[i]`` is scanned."""
        text = self.text
        cut = text.rfind("]", i, i + _CHUNK) + 1
        with contextlib.suppress(ValueError, StopIteration):
            batch, end = _scan(f"[{text[i:cut]}]", 0)
            if batch:  # empty: no "]" in reach, or a "]" after a comma, which json.loads rejects
                items += batch
                # past the batch, or at the list's "]" when the list ends first
                return i + end - 2
        item, i = self.scan(i)
        items.append(item)
        return i

    def row_reader(self) -> Callable[[int, list], int]:
        """The item reader of one matrix, which looks each row up by its text.

        A row's text runs from its ``[`` to the first ``]``.  When that text
        scans as a whole list and holds no ``{``, the row is recorded with
        its text, by the text's hash, so a later row with equal text (compared,
        not only hashed) is an equal list of scalars and gets the same list.
        A row that holds a container, or a string with a ``]``, is scanned
        whole and not recorded.

        Before its first repeat, the first layer of a converted MLP meets two
        distinct rows per column (its ``±e_p`` rows), and a later layer two per
        input of the KAN layer it lowers, which is at most one per column when
        each output of the KAN layer before has a breakpoint.  So once the rows
        read outnumber twice the repeats plus twice the row width, the rows are
        taken not to repeat, and the rest of the matrix is read in batches.
        """
        seen: dict[int, tuple[str, list]] | None = {}  # hash of a row's text -> (the text, the row)
        hits = 0

        def read_row(i: int, rows: list) -> int:
            nonlocal seen, hits
            text = self.text
            if seen is None or text[i] != "[":
                return self.read_batch(i, rows)
            close = text.find("]", i) + 1
            while not close:  # the row goes on past the end of ``text``
                if (i := self.more(i)) < 0:
                    raise ValueError("unclosed row")
                text = self.text
                close = text.find("]", i) + 1
            key = text[i:close]
            h = hash(key)
            first = seen.get(h)
            if first is not None and first[0] == key:
                rows.append(first[1])
                hits += 1
                return close
            try:
                row, _ = _scan(key, 0)
            except ValueError:  # a nested list or a string with "]": the row goes on
                row, close = self.scan(i)
            else:
                if "{" not in key and h not in seen:
                    seen[h] = key, row
            rows.append(row)
            if len(rows) > 2 * (hits + len(row)):  # the rows do not repeat
                seen = None
            return close

        return read_row


def _read_document(source) -> Any:
    """Decode a model document as ``json.loads`` does, reading each repeated row once.

    ``source`` is the document, or a text file holding it, which is read in
    chunks; ``_Reader`` says how each list is read.  Fails with ValueError
    (a UnicodeDecodeError too), IndexError, StopIteration or RecursionError
    on malformed text.
    """
    reader = _Reader(source)
    doc, i = reader.read(reader.skip(0), _DOCUMENT)
    if reader.skip(i) != len(reader.text):
        raise ValueError(f"extra data at index {i}")
    return doc


# what the reader raises on malformed text; json.loads then words the error
_READ_ERRORS = (ValueError, IndexError, StopIteration, RecursionError)


def _loads_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal beyond the interpreter's digit limit
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError:
        raise ParseError("invalid JSON: nesting too deep") from None


def _model(doc: Any):
    """The model a decoded document describes."""
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


def loads_model(text: str):
    if not isinstance(text, str):  # bytes, which json.loads decodes
        return _model(_loads_json(text))
    try:
        doc = _read_document(text)
    except _READ_ERRORS:
        doc = _loads_json(text)  # json.loads decodes the text again, so it finds and words the error
    return _model(doc)


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not valid UTF-8 at byte {e.start}") from None


def load(path):
    """The model in the file at ``path``.

    A regular file is read in chunks, never whole.  If it does not read, its
    whole text goes to ``json.loads``, which finds and words the error; any
    other file, such as a pipe, which could not be read twice, is read whole.
    """
    if not os.path.isfile(path):
        return loads_model(_read_text(path))
    try:
        with open(path, encoding="utf-8") as f:
            doc = _read_document(f)
    except _READ_ERRORS:
        doc = _loads_json(_read_text(path))
    return _model(doc)
