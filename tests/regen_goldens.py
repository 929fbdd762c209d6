"""Regenerate the fixture models and CLI golden files.

Run from the repository root after an intentional schema change:

    python tests/regen_goldens.py

Golden values are locked by the module tests; this script only freezes the
serialized shapes so the CLI surface cannot drift silently.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from kanrelu import (
    Activation,
    ConversionMode,
    Kan,
    KanLayer,
    Mlp,
    MlpLayer,
    PiecewiseLinear,
    PolySegmentSpline,
    bspline_to_monomial_relu,
    kan_to_mlp,
    monomial_relu_to_spline_kan,
    save,
)
from kanrelu.cli import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def build_fixtures() -> None:
    FIXTURES.mkdir(exist_ok=True)
    three_segment = PiecewiseLinear((-1.0, 1.0), (1.0, 2.0, 0.5), 0.0)
    relu_pl = PiecewiseLinear((0.0,), (0.0, 1.0), 0.0)

    kan = Kan((KanLayer(((three_segment,),)),))
    save(kan, FIXTURES / "three_segment_kan.json")
    save(kan_to_mlp(kan, ConversionMode.EXACT), FIXTURES / "three_segment_mlp.json")
    save(
        kan_to_mlp(kan, ConversionMode.EXACT),
        FIXTURES / "three_segment_mlp_sparse.json",
        sparse=True,
    )

    abs_mlp = Mlp(
        (
            MlpLayer(((1.0,), (-1.0,)), (0.0, 0.0), Activation.RELU),
            MlpLayer(((1.0, 1.0),), (0.0,), Activation.IDENTITY),
        )
    )
    save(abs_mlp, FIXTURES / "abs_mlp.json")

    save(Kan((KanLayer(((relu_pl, relu_pl),)),)), FIXTURES / "pyramid_kan.json")

    # conversion overflows: a slope change, and a bias folded across two layers
    overflow_slope = PiecewiseLinear((0.0,), (-1e308, 1e308), 0.0)
    save(Kan((KanLayer(((overflow_slope,),)),)), FIXTURES / "overflow_slope_kan.json")
    big_intercept = PiecewiseLinear((), (1.0,), 1e308)
    far_kink = PiecewiseLinear((-1e308,), (0.0, 1.0), 0.0)
    save(Kan((KanLayer(((big_intercept,),)), KanLayer(((far_kink,),)))), FIXTURES / "overflow_fold_kan.json")

    # two 1-1 KANs that agree right of a kink beyond 2**53 and differ left of it
    kink = -1e17
    save(Kan((KanLayer(((PiecewiseLinear((kink,), (0.0, 1.0), 0.0),),)),)), FIXTURES / "far_kink_kan.json")
    save(Kan((KanLayer(((PiecewiseLinear((kink,), (5.0, 1.0), 5e17),),)),)), FIXTURES / "far_kink_other_kan.json")

    spline = PolySegmentSpline((0.0,), ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0)), 2)
    lowered = bspline_to_monomial_relu(spline)
    save(lowered, FIXTURES / "square_flip_monomial.json")
    save(monomial_relu_to_spline_kan(lowered), FIXTURES / "square_flip_spline_kan.json")


def _run(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def build_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    kan = str(FIXTURES / "three_segment_kan.json")
    mlp = str(FIXTURES / "three_segment_mlp.json")
    pyramid = str(FIXTURES / "pyramid_kan.json")

    cases = {
        "eval_three_segment.txt": ["eval", kan, "--input", "2"],
        "eval_three_segment.json": ["eval", kan, "--input", "2", "--json"],
        "params_three_segment.json": ["params", kan, "--paper-formula", "--json"],
        "params_converted_mlp.json": ["params", mlp, "--json"],
        "bounds_three_segment.json": ["bounds", kan, "--json"],
        "verify_sampled.json": ["verify", kan, mlp, "--samples", "64", "--tol", "1e-8", "--json"],
        "verify_exact.json": ["verify", kan, mlp, "--exact-1d", "--tol", "1e-9", "--json"],
        "embed_check_three_segment.json": ["embed-check", kan, "--json"],
    }
    for name, argv in cases.items():
        code, out = _run(argv)
        if code != 0:
            raise SystemExit(f"golden command failed ({code}): {argv}")
        (GOLDEN / name).write_text(out, encoding="utf-8")

    code, _ = _run(["regions", kan, "--out", str(GOLDEN / "regions_three_segment.json")])
    if code != 0:
        raise SystemExit("regions golden failed")
    code, _ = _run(
        [
            "fingerprint", pyramid,
            "--box", "-1", "1", "-1", "1",
            "--res", "16",
            "--out", str(GOLDEN / "fingerprint_pyramid.csv"),
        ]
    )
    if code != 0:
        raise SystemExit("fingerprint golden failed")


if __name__ == "__main__":
    build_fixtures()
    build_goldens()
    sys.stdout.write("fixtures and goldens regenerated\n")
