"""The three benchmark workloads: set-up, one timed pass, and output checks.

Each workload drives the user surface: ``kanrelu.cli.main`` in-process on
files in a scratch directory, plus library calls where no CLI command
exists.  Package functions are always looked up as module attributes at
call time, so the tracer's wrappers are seen.

* transpile   -- convert, serialize and counting do nearly all the work;
                 pointwise evaluation is idle.
* sample-eval -- core evaluation and equiv sampling dominate; conversion
                 happens only in set-up.
* certify-1d  -- symbolic interval propagation in regions dominates;
                 pointwise evaluation is idle.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import random
from pathlib import Path
from time import perf_counter
from typing import Callable

import kanrelu.cli
import kanrelu.convert
import kanrelu.core
import kanrelu.serialize
import kanrelu.splines

import genmodels
import reference

# relative tolerance of the reference comparisons: exact conversions agree to
# ~1e-13; the monomial spline lowering loses a few more digits
EXACT_TOL = 1e-9
SPLINE_TOL = 1e-7


@dataclasses.dataclass
class Op:
    """One user-visible step of a pass: a CLI command or a library stage."""

    name: str
    metric: str | None  # the per-command timing this op adds to, if any
    argv: list[str] | None = None
    call: Callable[[Path], object] | None = None
    expect_rc: int = 0
    outputs: tuple[str, ...] = ()


@dataclasses.dataclass
class OpResult:
    seconds: float
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    digests: dict[str, str] = dataclasses.field(default_factory=dict)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_op(op: Op, out: Path) -> OpResult:
    """Run one op, timing only the command or call itself."""
    if op.argv is not None:
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = [a.replace("{out}", str(out)) for a in op.argv]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            rc = kanrelu.cli.main(argv)
            seconds = perf_counter() - start
        return OpResult(seconds, rc, stdout.getvalue(), stderr.getvalue())
    start = perf_counter()
    value = op.call(out)
    return OpResult(perf_counter() - start, value=value)


def digest_op(op: Op, result: OpResult, out: Path) -> None:
    """Digest everything the op produced, outside the timed region."""
    if op.argv is not None:
        result.digests[f"{op.name}.stdout"] = sha256_text(result.stdout)
    else:
        result.digests[f"{op.name}.value"] = sha256_text(repr(result.value))
    for name in op.outputs:
        result.digests[name] = sha256_file(out / name)


def _load_json(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


class Checks:
    """Collects (op, ok, detail) outcomes of the output checks."""

    def __init__(self) -> None:
        self.items: list[tuple[str, bool, str]] = []

    def add(self, op: str, ok: bool, detail: str) -> None:
        self.items.append((op, bool(ok), detail))

    def failed_ops(self) -> set[str]:
        return {op for op, ok, _ in self.items if not ok}


def _kan_segment_sums(doc: dict) -> list[tuple[int, int, int]]:
    """Per layer of a kan file: (n_in, sum of segments - 1, sum of segments)."""
    out = []
    for layer in doc["payload"]["layers"]:
        segs = [len(act["slopes"]) for row in layer["activations"] for act in row]
        out.append((layer["n_in"], sum(s - 1 for s in segs), sum(segs)))
    return out


def _mlp_widths(doc: dict) -> list[int]:
    layers = doc["payload"]["layers"]
    return [reference.mlp_shape(layers[0])[1]] + [reference.mlp_shape(layer)[0] for layer in layers]


def _compare(checks: Checks, op: str, what: str, got, want, tol: float) -> None:
    bad = [(g, w) for g, w in zip(got, want) if not reference.close(g, w, tol)]
    ok = len(got) == len(want) and not bad
    checks.add(op, ok, f"{what}: {len(got)} values" + ("" if ok else f", first mismatch {bad[:1]}"))


def _nonzero(mlp) -> int:
    return sum(1 for layer in mlp.layers for row in layer.weight for w in row if w != 0.0) + sum(
        1 for layer in mlp.layers for b in layer.bias if b != 0.0
    )


def _check_laws(checks: Checks, op: str, mlp_doc: dict, kan_doc: dict, mode: str) -> None:
    """Width law and free-parameter law of a converted MLP, from the source file."""
    sums = _kan_segment_sums(kan_doc)
    if mode == "exact":
        hidden = [2 * n_in + seg_minus_1 for n_in, seg_minus_1, _ in sums]
    else:
        hidden = [seg for _, _, seg in sums]
    widths = _mlp_widths(mlp_doc)
    checks.add(op, widths[1:-1] == hidden, f"{mode} width law: hidden {widths[1:-1]} vs {hidden}")
    free = sum(layer.get("source_params", 0) for layer in mlp_doc["payload"]["layers"])
    law = 2 * sum(seg for _, _, seg in sums)
    checks.add(op, free == law, f"free-parameter law 2*sum(seg): {free} vs {law}")


class Workload:
    name = ""
    why = ""

    def setup(self, seed: int, d: Path) -> dict:
        raise NotImplementedError

    def ops(self, st: dict) -> list[Op]:
        raise NotImplementedError

    def check(self, st: dict, out: Path, results: dict[str, OpResult], checks: Checks) -> None:
        raise NotImplementedError

    def metrics(self, st: dict, results: dict[str, OpResult]) -> dict[str, float]:
        """Workload-specific end-to-end numbers beyond the per-command timings."""
        return {}


class Transpile(Workload):
    name = "transpile"
    why = "8/3/8 KAN to MLP (exact, paper sparse), params, MLP back to KAN, B-spline lowering: convert, serialize, counting busy; eval idle"
    widths, segments, knots, degree = (8, 8, 8, 8), 8, 20, 3

    def setup(self, seed: int, d: Path) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        kan = genmodels.random_kan(rng, self.widths, self.segments)
        kanrelu.serialize.save(kan, d / "kan.json")
        knots = genmodels.grid_knots(rng, self.knots)
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(self.knots - self.degree - 1)]
        lo, hi = knots[0] - 0.5, knots[-1] + 0.5
        spline_points = [lo + (hi - lo) * i / 199 for i in range(200)]
        return {
            "dir": d,
            "knots": knots,
            "coeffs": coeffs,
            "spline_points": spline_points,
            "check_points": genmodels.random_points(rng, self.widths[0], 8, -5.0, 5.0),
            "shapes": {"kan_widths": list(self.widths), "segments": self.segments,
                       "bspline_knots": self.knots, "bspline_degree": self.degree},
        }

    def ops(self, st: dict) -> list[Op]:
        kan = str(st["dir"] / "kan.json")
        degree = self.degree

        def spline_stage(out: Path):
            s = kanrelu.splines.bspline_from_knots(st["knots"], st["coeffs"], degree)
            net = kanrelu.splines.bspline_to_monomial_relu(s)
            skan = kanrelu.splines.monomial_relu_to_spline_kan(net)
            kanrelu.serialize.save(net, out / "monomial.json")
            kanrelu.serialize.save(skan, out / "spline_kan.json")
            net = kanrelu.serialize.load(out / "monomial.json")
            skan = kanrelu.serialize.load(out / "spline_kan.json")
            xs = st["spline_points"]
            return [net.evaluate((x,))[0] for x in xs], [skan.evaluate((x,))[0] for x in xs]

        return [
            Op("convert_exact", "convert_s",
               ["convert", kan, "{out}/mlp_exact.json", "--to", "mlp", "--mode", "exact"],
               outputs=("mlp_exact.json",)),
            Op("convert_paper_sparse", "convert_s",
               ["convert", kan, "{out}/mlp_paper.json", "--to", "mlp", "--mode", "paper", "--sparse"],
               outputs=("mlp_paper.json",)),
            Op("params", None, ["params", "{out}/mlp_exact.json", "--json"]),
            Op("convert_to_kan", "to_kan_s",
               ["convert", "{out}/mlp_exact.json", "{out}/kan_back.json", "--to", "kan"],
               outputs=("kan_back.json",)),
            Op("spline", "spline_s", call=spline_stage, outputs=("monomial.json", "spline_kan.json")),
        ]

    def check(self, st, out, results, checks) -> None:
        kan_doc = _load_json(st["dir"] / "kan.json")
        exact = _load_json(out / "mlp_exact.json")
        _check_laws(checks, "convert_exact", exact, kan_doc, "exact")
        pts = st["check_points"]
        want = [y for p in pts for y in reference.kan_eval(kan_doc, p)]
        got = [y for p in pts for y in reference.mlp_eval(exact, p)]
        _compare(checks, "convert_exact", "exact MLP vs reference KAN", got, want, EXACT_TOL)

        paper = _load_json(out / "mlp_paper.json")
        _check_laws(checks, "convert_paper_sparse", paper, kan_doc, "paper")
        checks.add("convert_paper_sparse", all("weight_sparse" in layer for layer in paper["payload"]["layers"]),
                   "paper file uses sparse triplets")

        params = json.loads(results["params"].stdout)
        total = nonzero = 0
        for layer in exact["payload"]["layers"]:
            rows, cols = reference.mlp_shape(layer)
            total += rows * cols + len(layer["bias"])
            nonzero += sum(len(r) for r in reference.mlp_rows(layer)) + sum(1 for b in layer["bias"] if b != 0)
        law = 2 * sum(seg for _, _, seg in _kan_segment_sums(kan_doc))
        ok = (params["total_entries"], params["nonzero_entries"], params["free_entries"]) == (total, nonzero, law)
        checks.add("params", ok, f"params {params['total_entries']}/{params['nonzero_entries']}/"
                   f"{params['free_entries']} vs {total}/{nonzero}/{law}")
        del exact, paper

        back = _load_json(out / "kan_back.json")
        seg_max = max(len(act["slopes"]) for layer in back["payload"]["layers"]
                      for row in layer["activations"] for act in row)
        checks.add("convert_to_kan", seg_max <= 2, f"re-lifted KAN uses at most 2 segments ({seg_max})")
        got = [y for p in pts[:3] for y in reference.kan_eval(back, p)]
        _compare(checks, "convert_to_kan", "re-lifted KAN vs reference KAN", got, want[: len(got)], EXACT_TOL)
        del back

        mono, skan = results["spline"].value
        ref = [reference.deboor(st["knots"], st["coeffs"], self.degree, x) for x in st["spline_points"]]
        _compare(checks, "spline", "monomial-relu network vs de Boor", mono, ref, SPLINE_TOL)
        _compare(checks, "spline", "spline KAN vs de Boor", skan, ref, SPLINE_TOL)

    def metrics(self, st, results) -> dict[str, float]:
        return {"mlp_nonzero": json.loads(results["params"].stdout)["nonzero_entries"]}


class SampleEval(Workload):
    name = "sample-eval"
    why = "sampled verify of a 4/3/6 KAN vs its MLP, direct MLP eval, 2-D fingerprints: core eval and equiv sampling busy; conversion only in set-up"
    # the perturbed pair only needs a verdict, so it gets fewer samples
    widths, segments, samples, perturbed_samples = (4, 4, 4, 4), 6, 6000, 1000
    fp_widths, fp_res, fp_box = (2, 4, 4, 1), 48, ("-4", "4", "-4", "4")
    eval_points = 400

    def setup(self, seed: int, d: Path) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        kan = genmodels.random_kan(rng, self.widths, self.segments)
        mlp = kanrelu.convert.kan_to_mlp(kan, "exact")
        # one free entry changed: an output bias moves the function everywhere
        last = mlp.layers[-1]
        q = rng.randrange(last.n_out)
        bias = tuple(b + 0.5 if i == q else b for i, b in enumerate(last.bias))
        bad = kanrelu.core.Mlp(mlp.layers[:-1] + (dataclasses.replace(last, bias=bias),))
        fp_kan = genmodels.random_kan(rng, self.fp_widths, self.segments)
        fp_mlp = kanrelu.convert.kan_to_mlp(fp_kan, "exact")
        for name, model in (("kan.json", kan), ("mlp.json", mlp), ("mlp_bad.json", bad),
                            ("fp_kan.json", fp_kan), ("fp_mlp.json", fp_mlp)):
            kanrelu.serialize.save(model, d / name)
        return {
            "dir": d,
            "mlp": mlp,
            "eval_points": genmodels.random_points(rng, self.widths[0], self.eval_points, -5.0, 5.0),
            "shapes": {"kan_widths": list(self.widths), "mlp_widths": list(mlp.widths),
                       "segments": self.segments, "fingerprint_kan_widths": list(self.fp_widths),
                       "fingerprint_mlp_widths": list(fp_mlp.widths)},
        }

    def ops(self, st: dict) -> list[Op]:
        d = st["dir"]
        samples = str(self.samples)
        mlp, points = st["mlp"], st["eval_points"]

        def mlp_eval(out: Path):
            return [mlp.evaluate(p) for p in points]

        def fingerprint(model: str, csv: str) -> list[str]:
            return ["fingerprint", str(d / model), "--box", *self.fp_box, "--res", str(self.fp_res),
                    "--out", "{out}/" + csv]

        return [
            Op("verify_equiv", "verify_s",
               ["verify", str(d / "kan.json"), str(d / "mlp.json"), "--samples", samples, "--json"]),
            Op("verify_perturbed", None,
               ["verify", str(d / "kan.json"), str(d / "mlp_bad.json"), "--samples", str(self.perturbed_samples),
                "--json"], expect_rc=1),
            Op("mlp_eval", None, call=mlp_eval),
            Op("fingerprint_kan", "fingerprint_s", fingerprint("fp_kan.json", "fp_kan.csv"), outputs=("fp_kan.csv",)),
            Op("fingerprint_mlp", "fingerprint_s", fingerprint("fp_mlp.json", "fp_mlp.csv"), outputs=("fp_mlp.csv",)),
        ]

    def check(self, st, out, results, checks) -> None:
        kan_doc = _load_json(st["dir"] / "kan.json")
        first = kan_doc["payload"]["layers"][0]["activations"]
        # two probes around every distinct first-layer breakpoint per input coordinate
        probes = 2 * sum(
            len({b for row in first for b in row[p]["breakpoints"]}) for p in range(self.widths[0])
        )
        for op, passed, samples in (("verify_equiv", True, self.samples),
                                    ("verify_perturbed", False, self.perturbed_samples)):
            report = json.loads(results[op].stdout)
            checks.add(op, report["passed"] is passed, f"verdict passed={report['passed']}")
            checks.add(op, report["samples"] == samples + probes,
                       f"points {report['samples']} vs {samples} samples + {probes} probes")
        got = [y for ys in results["mlp_eval"].value for y in ys]
        want = [y for p in st["eval_points"] for y in reference.kan_eval(kan_doc, p)]
        _compare(checks, "mlp_eval", "converted MLP vs reference KAN", got, want, EXACT_TOL)
        csv_kan = (out / "fp_kan.csv").read_bytes()
        csv_mlp = (out / "fp_mlp.csv").read_bytes()
        checks.add("fingerprint_mlp", csv_kan == csv_mlp, "KAN and MLP fingerprint CSVs identical")
        checks.add("fingerprint_kan", csv_kan.count(b"\n") == self.fp_res ** 2 + 1, "one CSV row per cell")
        checks.add("fingerprint_mlp", results["fingerprint_kan"].stdout == results["fingerprint_mlp"].stdout,
                   "KAN and MLP region estimates identical")

    def metrics(self, st, results) -> dict[str, float]:
        return {
            "mlp_nonzero": _nonzero(st["mlp"]),
            "mlp_eval_us": results["mlp_eval"].seconds / len(st["eval_points"]) * 1e6,
        }


class Certify1D(Workload):
    name = "certify-1d"
    why = "exact 1-D certification of a 1-6-6-6-1 KAN vs its MLP, regions, bounds: symbolic interval propagation in regions busy; eval idle"
    widths, segments = (1, 6, 6, 6, 1), 8

    def setup(self, seed: int, d: Path) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        # monotone activations fix the number of crossings, so the work per
        # pass does not depend on the seed
        kan = genmodels.random_kan(rng, self.widths, self.segments, monotone=True)
        mlp = kanrelu.convert.kan_to_mlp(kan, "exact")
        bad = genmodels.perturb_kan_slope(kan, 0, rng.randrange(self.widths[-2]), 0.25)
        for name, model in (("kan.json", kan), ("mlp.json", mlp), ("kan_bad.json", bad)):
            kanrelu.serialize.save(model, d / name)
        return {
            "dir": d,
            "mlp": mlp,
            "shapes": {"kan_widths": list(self.widths), "segments": self.segments,
                       "mlp_widths": list(mlp.widths)},
        }

    def ops(self, st: dict) -> list[Op]:
        d = st["dir"]
        return [
            Op("certify_equiv", "certify_s",
               ["verify", str(d / "kan.json"), str(d / "mlp.json"), "--exact-1d", "--json"]),
            Op("certify_perturbed", "certify_s",
               ["verify", str(d / "kan.json"), str(d / "kan_bad.json"), "--exact-1d", "--json"], expect_rc=1),
            Op("regions", "regions_s", ["regions", str(d / "mlp.json"), "--out", "{out}/regions.json"],
               outputs=("regions.json",)),
            Op("bounds", None, ["bounds", str(d / "kan.json"), "--json"]),
        ]

    def check(self, st, out, results, checks) -> None:
        for op, passed in (("certify_equiv", True), ("certify_perturbed", False)):
            report = json.loads(results[op].stdout)
            checks.add(op, report["passed"] is passed and report["mode"] == "exact_1d",
                       f"verdict passed={report['passed']}")
        count = int(results["regions"].stdout.split(":")[1])
        bound = json.loads(results["bounds"].stdout)["region_upper_bound"]
        checks.add("regions", count <= bound, f"regions {count} <= bound")
        complex_doc = _load_json(out / "regions.json")
        cuts, pieces = complex_doc["cuts"], complex_doc["pieces"]
        checks.add("regions", len(pieces) == count == len(cuts) + 1, f"{len(pieces)} pieces, {len(cuts)} cuts")
        kan_doc = _load_json(st["dir"] / "kan.json")
        xs = [cuts[0] - 1.0] + [0.5 * (a + b) for a, b in zip(cuts, cuts[1:])] + [cuts[-1] + 1.0]
        got = [p["slopes"][0] * x + p["intercepts"][0] for p, x in zip(pieces, xs)]
        want = [reference.kan_eval(kan_doc, (x,))[0] for x in xs]
        _compare(checks, "regions", "complex pieces vs reference KAN at piece midpoints", got, want, EXACT_TOL)

    def metrics(self, st, results) -> dict[str, float]:
        return {"mlp_nonzero": _nonzero(st["mlp"])}


WORKLOADS = {w.name: w for w in (Transpile(), SampleEval(), Certify1D())}
