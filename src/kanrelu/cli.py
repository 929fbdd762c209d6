"""Command-line surface wiring the conversion, counting and verify modules.

Exit codes: 0 success, 1 verification or validation failure, 2 usage error
(including operations applied to models of the wrong dimension or kind).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .convert import kan_to_mlp, mlp_to_kan
from .core import Kan, Mlp
from .counting import (
    ClassSignature,
    class_embedding_check,
    count_params_kan,
    count_params_mlp,
    kan_to_relu_param_formula,
    regions_per_parameter,
    relu_to_kan_param_formula,
    signature_of_kan,
)
from .equiv import DEFAULT_SEED, assert_equiv, equiv_exact_1d
from .errors import (
    DomainError,
    ParseError,
    ShapeError,
    UnsupportedDimensionError,
    ValidationError,
)
from .regions import exact_regions_1d, grid_fingerprint_2d
from .serialize import dumps_canonical, load, save

USAGE_ERROR = 2
FAILURE = 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kanrelu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a model between the kan and mlp families")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--to", required=True, choices=("kan", "mlp"), dest="target")
    p.add_argument("--mode", default="exact", choices=("exact", "paper"))
    p.add_argument("--sparse", action="store_true", help="write weights as tagged triplets")

    p = sub.add_parser("eval", help="evaluate a model at one input point")
    p.add_argument("model")
    p.add_argument("--input", required=True, help="comma-separated input coordinates")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check two models for semantic equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--box", type=float, nargs=2, default=(-5.0, 5.0), metavar=("LO", "HI"))
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--exact-1d", action="store_true", dest="exact_1d")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("params", help="report parameter counts")
    p.add_argument("model")
    p.add_argument("--paper-formula", action="store_true", dest="formula",
                   help="also print the closed-form conversion parameter count")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bounds", help="print the family region bound and ratio pair")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("regions", help="extract the exact 1-D polyhedral complex")
    p.add_argument("model")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fingerprint", help="grid-fingerprint a 2-input model")
    p.add_argument("model")
    p.add_argument("--box", type=float, nargs=4, required=True, metavar=("X0", "X1", "Y0", "Y1"))
    p.add_argument("--res", type=int, default=64)
    p.add_argument("--out", required=True)

    p = sub.add_parser("embed-check", help="report the class-embedding checks for a kan")
    p.add_argument("model")
    p.add_argument("--json", action="store_true")

    return parser


def _print_report(doc: dict, as_json: bool) -> None:
    if as_json:
        sys.stdout.write(dumps_canonical(doc))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")


def _cmd_convert(args) -> int:
    model = load(args.input)
    if args.target == "mlp":
        if not isinstance(model, Kan):
            print("convert --to mlp expects a kan model", file=sys.stderr)
            return USAGE_ERROR
        result = kan_to_mlp(model, args.mode)
    else:
        if not isinstance(model, Mlp):
            print("convert --to kan expects an mlp model", file=sys.stderr)
            return USAGE_ERROR
        result = mlp_to_kan(model)
    save(result, args.output, sparse=args.sparse)
    return 0


def _cmd_eval(args) -> int:
    model = load(args.model)
    try:
        point = [float(v) for v in args.input.split(",")]
    except ValueError:
        print(f"could not parse --input {args.input!r}", file=sys.stderr)
        return USAGE_ERROR
    output = model.evaluate(point)
    if args.json:
        sys.stdout.write(dumps_canonical({"output": list(output)}))
    else:
        print(",".join(format(v, ".17g") for v in output))
    return 0


def _cmd_verify(args) -> int:
    if args.samples < 1:
        print(f"verify --samples must be >= 1, got {args.samples}", file=sys.stderr)
        return USAGE_ERROR
    a = load(args.a)
    b = load(args.b)
    if args.exact_1d:
        report = equiv_exact_1d(a, b, tol=args.tol)
    else:
        report = assert_equiv(
            a, b, box=tuple(args.box), samples=args.samples, tol=args.tol, seed=args.seed
        )
    _print_report(report.to_dict(), args.json)
    return 0 if report.passed else FAILURE


def _cmd_params(args) -> int:
    model = load(args.model)
    if isinstance(model, Kan):
        report = count_params_kan(model)
        formula = kan_to_relu_param_formula(model) if args.formula else None
    elif isinstance(model, Mlp):
        report = count_params_mlp(model)
        formula = relu_to_kan_param_formula(model) if args.formula else None
    else:
        print("params supports kan and mlp models", file=sys.stderr)
        return USAGE_ERROR
    doc = report.to_dict()
    if args.formula:
        doc["conversion_formula"] = formula
    _print_report(doc, args.json)
    return 0


def _cmd_bounds(args) -> int:
    model = load(args.model)
    if isinstance(model, Kan):
        if model.output_dim != 1:
            raise ValidationError("bounds needs a kan with scalar output")
        widths = list(model.widths[:-1])
        k = model.max_segments()
        bound, params = regions_per_parameter(signature_of_kan(model), widths, k)
        doc = {
            "family": "kan",
            "widths": widths,
            "segments": k,
            "region_upper_bound": bound,
            "ratio_bound": bound,
            "ratio_params": params,
        }
    elif isinstance(model, Mlp):
        if model.output_dim != 1:
            raise ValidationError("bounds needs an mlp with scalar output")
        hidden = list(model.hidden_widths)
        sig = ClassSignature(
            family="relu",
            depth=len(model.layers),
            width=max(hidden, default=model.input_dim),
        )
        bound, params = regions_per_parameter(sig, [model.input_dim] + hidden)
        doc = {
            "family": "relu",
            "widths": [model.input_dim] + hidden,
            "region_upper_bound": bound,
            "ratio_bound": bound,
            "ratio_params": params,
        }
    else:
        print("bounds supports kan and mlp models", file=sys.stderr)
        return USAGE_ERROR
    _print_report(doc, args.json)
    return 0


def _cmd_regions(args) -> int:
    model = load(args.model)
    complex_1d = exact_regions_1d(model)
    Path(args.out).write_text(dumps_canonical(complex_1d.to_dict()), encoding="utf-8")
    print(f"regions: {complex_1d.region_count}")
    return 0


def _cmd_fingerprint(args) -> int:
    model = load(args.model)
    grid = grid_fingerprint_2d(model, args.box, args.res)
    Path(args.out).write_text(grid.to_csv(), encoding="utf-8")
    print(f"estimated_regions: {grid.estimated_regions}")
    return 0


def _cmd_embed_check(args) -> int:
    model = load(args.model)
    if not isinstance(model, Kan):
        print("embed-check expects a kan model", file=sys.stderr)
        return USAGE_ERROR
    report = class_embedding_check(model)
    _print_report(report.to_dict(), args.json)
    ok = (
        report.width_bound_satisfied
        and report.depth_bound_satisfied
        and report.segment_bound_satisfied
    )
    return 0 if ok else FAILURE


_HANDLERS = {
    "convert": _cmd_convert,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "params": _cmd_params,
    "bounds": _cmd_bounds,
    "regions": _cmd_regions,
    "fingerprint": _cmd_fingerprint,
    "embed-check": _cmd_embed_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ShapeError, UnsupportedDimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except (ParseError, ValidationError, DomainError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
