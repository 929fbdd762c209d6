"""Outside-in layer tracing for the benchmark's traced pass.

The tracer replaces module and class attributes of the kanrelu package with
timing wrappers and puts every original back on exit, so no file under
``src/`` changes.  Spans (name, start, end, parent) are kept in memory and
written out at the end; a span's self time is its duration minus the time
its child spans cover.  Counters are taken from each call's arguments and
result at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "convert", "core", "counting", "equiv", "regions", "serialize", "splines")


def _count_merge(args, result):
    w1, w2_prev = args[0], args[4]
    inner = len(w2_prev)
    cols = len(w2_prev[0]) if inner else 0
    return {"convert._merge_affine.products": len(w1) * cols * inner}


def _count_mlp_entries(args, result):
    layer = args[0]
    return {"core.MlpLayer.__post_init__.entries": layer.n_out * layer.n_in}


def _count_macs(args, result):
    layer = args[0]
    return {"core.MlpLayer.apply.macs": layer.n_out * layer.n_in}


def _count_probes(args, result):
    return {"equiv.probes": len(result)}


def _count_equiv_points(args, result):
    return {"equiv.assert_equiv.points": result.samples}


def _count_refine(args, result):
    cuts, _forms, candidates = args
    return {
        "regions._refine.candidates": len(candidates),
        "regions._refine.cuts_kept": len(result[0]) - len(cuts),
    }


def _count_normalize(args, result):
    return {"regions._normalize.pieces_in": len(args[1]), "regions._normalize.pieces_out": len(result[1])}


def _count_dumps(args, result):
    return {"serialize.dumps_canonical.bytes": len(result)}


def _count_loads(args, result):
    return {"serialize.loads_model.bytes": len(args[0])}


# (module, attribute or Class.attribute, counter) for every wrapped boundary
TARGETS = (
    ("cli", "main", None),
    ("convert", "kan_layer_to_relu", None),
    ("convert", "_merge_affine", _count_merge),
    ("convert", "kan_to_mlp", None),
    ("convert", "mlp_to_kan", None),
    ("core", "PiecewiseLinear.__post_init__", None),
    ("core", "KanLayer.__post_init__", None),
    ("core", "KanLayer.apply", None),
    ("core", "MlpLayer.__post_init__", _count_mlp_entries),
    ("core", "MlpLayer.apply", _count_macs),
    ("counting", "count_params_mlp", None),
    ("counting", "kan_region_upper_bound", None),
    ("equiv", "halton_points", None),
    ("equiv", "_probe_points", _count_probes),
    ("equiv", "assert_equiv", _count_equiv_points),
    ("equiv", "equiv_exact_1d", None),
    ("regions", "exact_regions_1d", None),
    ("regions", "_apply_affine", None),
    ("regions", "_apply_relu", None),
    ("regions", "_apply_grid", None),
    ("regions", "_crossing_candidates", None),
    ("regions", "_refine", _count_refine),
    ("regions", "_normalize", _count_normalize),
    ("regions", "Complex1D.__post_init__", None),
    ("regions", "grid_fingerprint_2d", None),
    ("regions", "_connected_components", None),
    ("serialize", "model_to_dict", None),
    ("serialize", "dumps_canonical", _count_dumps),
    ("serialize", "loads_model", _count_loads),
    ("serialize", "_parse_mlp_layer", None),
    ("serialize", "save", None),
    ("splines", "bspline_to_monomial_relu", None),
    ("splines", "monomial_relu_to_spline_kan", None),
    ("splines", "SplineKan.evaluate", None),
    ("splines", "MonomialReluNetwork.evaluate", None),
)

# Per-layer metrics: (name, unit, better, end-to-end metric it should move, workloads).
# The end-to-end names are the per-command timings run.py prints.
LAYER_METRICS = (
    ("convert.kan_layer_to_relu.self_s", "s", "lower", "convert_s", "transpile"),
    ("convert._merge_affine.self_s", "s", "lower", "convert_s", "transpile"),
    ("convert._merge_affine.calls", "count", "lower", "convert_s", "transpile"),
    ("convert._merge_affine.products", "count", "lower", "convert_s", "transpile"),
    ("convert.kan_to_mlp.self_s", "s", "lower", "convert_s", "transpile"),
    ("convert.mlp_to_kan.self_s", "s", "lower", "to_kan_s", "transpile"),
    ("core.MlpLayer.__post_init__.self_s", "s", "lower", "convert_s,to_kan_s", "transpile"),
    ("core.MlpLayer.__post_init__.entries", "count", "lower", "convert_s,to_kan_s", "transpile"),
    ("core.PiecewiseLinear.__post_init__.calls", "count", "lower", "to_kan_s", "transpile"),
    ("core.KanLayer.__post_init__.self_s", "s", "lower", "to_kan_s", "transpile"),
    ("core.MlpLayer.apply.self_s", "s", "lower", "verify_s,mlp_eval_us,fingerprint_s", "sample-eval"),
    ("core.MlpLayer.apply.calls", "count", "lower", "verify_s,mlp_eval_us,fingerprint_s", "sample-eval"),
    ("core.MlpLayer.apply.macs", "count", "lower", "verify_s,mlp_eval_us,fingerprint_s", "sample-eval"),
    ("core.KanLayer.apply.self_s", "s", "lower", "verify_s,fingerprint_s", "sample-eval"),
    ("core.KanLayer.apply.calls", "count", "lower", "verify_s,fingerprint_s", "sample-eval"),
    ("equiv.halton_points.self_s", "s", "lower", "verify_s", "sample-eval"),
    ("equiv._probe_points.self_s", "s", "lower", "verify_s", "sample-eval"),
    ("equiv.probes", "count", "higher", "verify_s", "sample-eval"),
    ("equiv.assert_equiv.self_s", "s", "lower", "verify_s", "sample-eval"),
    ("equiv.assert_equiv.points", "count", "higher", "verify_s", "sample-eval"),
    ("equiv.equiv_exact_1d.self_s", "s", "lower", "certify_s", "certify-1d"),
    ("regions.exact_regions_1d.self_s", "s", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._apply_affine.self_s", "s", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._apply_relu.self_s", "s", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._apply_grid.self_s", "s", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._crossing_candidates.self_s", "s", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._refine.candidates", "count", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._refine.cuts_kept", "count", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._refine.kept_ratio", "ratio", "higher", "certify_s,regions_s", "certify-1d"),
    ("regions._normalize.pieces_in", "count", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions._normalize.pieces_out", "count", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions.Complex1D.__post_init__.self_s", "s", "lower", "certify_s,regions_s", "certify-1d"),
    ("regions.grid_fingerprint_2d.self_s", "s", "lower", "fingerprint_s", "sample-eval"),
    ("regions._connected_components.self_s", "s", "lower", "fingerprint_s", "sample-eval"),
    ("counting.count_params_mlp.self_s", "s", "lower", "wall_s", "transpile"),
    ("counting.kan_region_upper_bound.self_s", "s", "lower", "wall_s", "certify-1d"),
    ("serialize.model_to_dict.self_s", "s", "lower", "convert_s,to_kan_s", "transpile"),
    ("serialize.dumps_canonical.self_s", "s", "lower", "convert_s,to_kan_s", "transpile"),
    ("serialize.dumps_canonical.bytes", "bytes", "lower", "convert_s,to_kan_s", "transpile"),
    ("serialize.loads_model.self_s", "s", "lower", "to_kan_s,setup_s", "transpile"),
    ("serialize.loads_model.bytes", "bytes", "lower", "to_kan_s,setup_s", "transpile"),
    ("serialize._parse_mlp_layer.self_s", "s", "lower", "to_kan_s,setup_s", "transpile"),
    ("serialize.save.self_s", "s", "lower", "convert_s", "transpile"),
    ("splines.bspline_to_monomial_relu.self_s", "s", "lower", "spline_s", "transpile"),
    ("splines.monomial_relu_to_spline_kan.self_s", "s", "lower", "spline_s", "transpile"),
    ("splines.SplineKan.evaluate.self_s", "s", "lower", "spline_s", "transpile"),
    ("splines.MonomialReluNetwork.evaluate.self_s", "s", "lower", "spline_s", "transpile"),
    ("cli.main.self_s", "s", "lower", "wall_s", "all"),
) + tuple(
    (f"{layer}.errors", "count", "lower", "failed_ratio", "all") for layer in LAYERS
) + (
    ("trace_overhead", "ratio", "lower", "none (traced wall_s / untraced wall_s)", "all"),
)

_MARK = "__bench_trace__"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "kanrelu" or name.startswith("kanrelu.")]


class Tracer:
    """Context manager that wraps TARGETS while active and records spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self._seen_errors: set[tuple[str, int]] = set()
        self._kept_errors: list[BaseException] = []
        self._restore: list[tuple[object, str, object]] = []
        self.origin = 0.0


    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        self._stack.pop()
        child = self._child.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._child:
            self._child[-1] += duration

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, e.g. one CLI command."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _error(self, layer: str, exc: BaseException) -> None:
        # an exception crossing several wrapped functions of one layer counts once
        key = (layer, id(exc))
        if key not in self._seen_errors:
            self._seen_errors.add(key)
            self._kept_errors.append(exc)  # keeps id(exc) unique while tracing
            self.errors[layer] += 1


    def _wrapper(self, fn, name: str, layer: str, counter):
        nid = self._name_id(name)
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._error(layer, exc)
                raise
            finally:
                close(idx)
            if counter is not None:
                for key, n in counter(args, result).items():
                    counts[key] += n
            return result

        setattr(traced, _MARK, True)
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        self.origin = perf_counter()
        return self

    def _install(self) -> None:
        for layer in LAYERS:
            importlib.import_module(f"kanrelu.{layer}")
        modules = _package_modules()
        for layer, target, counter in TARGETS:
            module = sys.modules[f"kanrelu.{layer}"]
            name = f"{layer}.{target}"
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrapper(original, name, layer, counter))
                continue
            original = getattr(module, target)
            wrapped = self._wrapper(original, name, layer, counter)
            # names imported with "from .x import f" are separate bindings
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def __exit__(self, *exc) -> bool:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._kept_errors.clear()
        return False


    def layer_metrics(self, overhead: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, _unit, _better, _moves, _workloads in LAYER_METRICS:
            if name == "trace_overhead":
                out[name] = overhead
            elif name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            elif name.endswith(".calls"):
                out[name] = self.calls.get(name[: -len(".calls")], 0)
            elif name.endswith(".errors"):
                out[name] = self.errors.get(name[: -len(".errors")], 0)
            elif name == "regions._refine.kept_ratio":
                candidates = self.counts.get("regions._refine.candidates", 0)
                out[name] = self.counts.get("regions._refine.cuts_kept", 0) / candidates if candidates else 0.0
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write_spans(self, path) -> None:
        doc = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start": [round(t - self.origin, 9) for t in self.span_start],
            "end": [round(t - self.origin, 9) for t in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def package_attributes():
    """(dotted path, value) of every module attribute and own class attribute of the package."""
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            yield f"{mod.__name__}.{attr}", value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    yield f"{mod.__name__}.{value.__name__}.{cattr}", cvalue


def leftover_wrappers() -> list[str]:
    """Attributes of the package still holding a tracing wrapper."""
    return [path for path, value in package_attributes() if getattr(value, _MARK, False)]
