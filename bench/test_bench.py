"""Self-tests of the benchmark: output checks, tracer clean-up, seeded inputs.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run._import_package()
import kanrelu  # noqa: E402
import kanrelu.cli  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def scratch():
    run.OUT.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.fixture(scope="module")
def certify(scratch):
    """Set-up and one untraced pass of certify-1d at seed 0, whose digests are pinned."""
    work = workloads.WORKLOADS["certify-1d"]
    (scratch / "certify").mkdir()
    st, ops, _setups, same, passes = run.measure(work, 0, scratch / "certify", 1)
    return work, st, ops, passes[0], same


def _clone(p: dict, dest: Path) -> dict:
    shutil.copytree(p["dir"], dest)
    return {**p, "dir": dest, "results": copy.deepcopy(p["results"])}


def _judge(work, st, ops, p, pinned):
    checks = workloads.Checks()
    failed, attempted = run.judge(work, st, ops, [("pass0", p)], checks, pinned)
    return failed, attempted, checks


def test_pinned_pass_is_clean(certify):
    work, st, ops, p, same = certify
    pinned = run._pinned(work.name, 0)
    assert pinned is not None, "seed 0 must be pinned in bench/digests.json"
    failed, attempted, checks = _judge(work, st, ops, p, pinned)
    assert same
    assert (failed, attempted) == (0, len(ops)), checks.items


def test_flipped_byte_fails_the_check(certify, scratch):
    work, st, ops, p, _ = certify
    bad = _clone(p, scratch / "flipped")
    path = bad["dir"] / "regions.json"
    data = bytearray(path.read_bytes())
    # flip the last digit of the first cut: below every tolerance, so only the digest sees it
    i = data.index(b",", data.index(b'"cuts"')) - 1
    data[i] = ord("1") if data[i] != ord("1") else ord("2")
    path.write_bytes(bytes(data))
    for op in ops:
        workloads.digest_op(op, bad["results"][op.name], bad["dir"])
    failed, _attempted, checks = _judge(work, st, ops, bad, run._pinned(work.name, 0))
    assert failed == 1
    assert any("digest mismatch ['regions.json']" in detail for _, ok, detail in checks.items if not ok)


def test_perturbed_pair_reported_passing_fails(certify, scratch):
    work, st, ops, p, _ = certify
    bad = _clone(p, scratch / "verdict")
    result = bad["results"]["certify_perturbed"]
    report = json.loads(result.stdout)
    report["passed"] = True
    result.stdout = json.dumps(report)
    result.rc = 0
    for op in ops:
        workloads.digest_op(op, bad["results"][op.name], bad["dir"])
    # unpinned: the reference digests come from this very pass, so only the
    # exit code and verdict checks can catch it
    failed, _attempted, checks = _judge(work, st, ops, bad, None)
    assert failed == 1
    details = [detail for op, ok, detail in checks.items if not ok and "certify_perturbed" in op]
    assert any("verdict passed=True" in d for d in details)
    assert any("exit 0, expected 1" in d for d in details)


def test_tracer_leaves_no_wrapper_behind(scratch):
    for layer in layertrace.LAYERS:
        __import__(f"kanrelu.{layer}")
    before = dict(layertrace.package_attributes())
    kan = kanrelu.Kan((kanrelu.KanLayer(((kanrelu.PiecewiseLinear((0.0,), (1.0, 2.0), 0.5),),)),))
    kanrelu.serialize.save(kan, scratch / "tiny.json")
    tracer = layertrace.Tracer()
    with tracer:
        assert layertrace.leftover_wrappers()
        with tracer.span("bench.tiny"):
            kanrelu.convert.kan_to_mlp(kan, "exact")
            assert kanrelu.cli.main(["bounds", str(scratch / "tiny.json"), "--json"]) == 0
            with pytest.raises(kanrelu.ParseError):
                kanrelu.serialize.loads_model("not json")
    assert layertrace.leftover_wrappers() == []
    after = dict(layertrace.package_attributes())
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    assert tracer.calls["convert.kan_to_mlp"] == 1
    assert tracer.calls["convert.kan_layer_to_relu"] == 1
    assert tracer.calls["cli.main"] == 1
    assert tracer.errors == {"serialize": 1}
    names = [tracer.names[i] for i in tracer.span_name]
    root = names.index("bench.tiny")
    assert tracer.span_parent[root] == -1
    lowering = names.index("convert.kan_layer_to_relu")
    assert names[tracer.span_parent[lowering]] == "convert.kan_to_mlp"
    # self times partition the root span
    root_duration = tracer.span_end[root] - tracer.span_start[root]
    assert sum(tracer.self_s.values()) == pytest.approx(root_duration, rel=1e-9)
    metrics = tracer.layer_metrics(1.0)
    assert [m[0] for m in layertrace.LAYER_METRICS] == list(metrics)


def test_one_seed_yields_identical_models(scratch):
    for work in workloads.WORKLOADS.values():
        digests = []
        for seed, tag in ((7, "a"), (7, "b"), (8, "c")):
            d = scratch / f"seed-{work.name}-{tag}"
            d.mkdir()
            st = work.setup(seed, d)
            files = {f.name: f.read_bytes() for f in sorted(d.iterdir())}
            extra = {k: v for k, v in st.items() if k in ("knots", "coeffs", "spline_points", "check_points",
                                                          "eval_points")}
            digests.append((files, extra))
        assert digests[0] == digests[1], work.name
        assert digests[0][0] != digests[2][0], work.name


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert doc["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in layertrace.LAYER_METRICS
    ]
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup_bound for m in doc["end_to_end"])


def test_fails_without_the_package(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify-1d", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
