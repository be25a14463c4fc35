"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py            # all tests
    python3 perfbench/selftest.py counts     # tests named *counts*

Run from the root of a checkout.  The exact-count test starts run.py twice
per workload (`--trace 1`, one pass each) and takes about two minutes.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layertrace           # noqa: E402
import run                  # noqa: E402
import workloads            # noqa: E402

COUNT_UNITS = ("count", "ratio")


def _pool(workload, seed=workloads.DEFAULT_SEED):
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "work", prefix="selftest-"))
    lib, tasks, _ = run.setup(workload, seed, work)
    return lib, tasks, work


def test_every_binding_is_wrapped():
    lib = run._import_library()
    originals = {"bss.decompose": lib.bss.decompose,
                 "structure.bockstein_pages": lib.structure.bockstein_pages,
                 "cli.verify_envelope_pages": lib.cli.verify_envelope_pages}
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert tracer.unwrapped_bindings() == [], tracer.unwrapped_bindings()
        for path, orig in originals.items():
            mod, attr = path.split(".")
            now = getattr(getattr(lib, mod), attr)
            assert now is not orig and now.__wrapped__ is orig, path
    finally:
        tracer.uninstall()
    for path, orig in originals.items():
        mod, attr = path.split(".")
        assert getattr(getattr(lib, mod), attr) is orig, path


def test_envelope_task_nests_decompose_under_tensor_square():
    lib, tasks, work = _pool("envelope")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        rec = run.run_one(lib, tasks, 0, work, run.SpeedProbe(), tracer)
    finally:
        tracer.uninstall()
        run.shutil.rmtree(work, ignore_errors=True)
    assert rec["error"] is None and rec["code"] == 0, rec
    spans = tracer.spans
    under = [i for i, s in enumerate(spans) if s[0] == "graded.decompose"
             and layertrace.has_ancestor(spans, i, "structure.tensor_square")]
    assert under, "no decompose span under TensorSquareBss"
    assert any(s[0] == "scalars.snf" and s[1] in under for s in spans)
    assert all(s[1] >= 0 for s in spans[1:]), "span outside the task span"
    summary = layertrace.summarize(spans)
    for name, agg in summary.items():
        assert agg["self_s"] <= agg["total_s"] + 1e-9, name
    assert summary["task"]["calls"] == 1


def test_summarize_self_time():
    spans = [["a", -1, 0.0, 10.0, None], ["b", 0, 1.0, 4.0, None],
             ["b", 1, 2.0, 3.0, None], ["c", 0, 5.0, 6.0, {"n": 2}]]
    s = layertrace.summarize(spans)
    assert s["a"]["self_s"] == 6.0 and s["a"]["total_s"] == 10.0
    assert s["b"]["calls"] == 2 and s["b"]["total_s"] == 3.0
    assert s["b"]["self_s"] == 3.0
    assert s["c"]["counts"] == {"n": 2}


def test_generation_is_seeded():
    for w in workloads.WORKLOADS:
        a = [t.files for t in workloads.generate(w, 7)]
        b = [t.files for t in workloads.generate(w, 7)]
        c = [t.files for t in workloads.generate(w, 8)]
        assert a == b and a != c, w


def test_checks_reject_wrong_outputs():
    for w in workloads.WORKLOADS:
        lib, tasks, work = _pool(w)
        try:
            seen = set()
            for i, task in enumerate(tasks):
                if task.kind in seen:
                    continue
                seen.add(task.kind)
                code, out = workloads.run(task, work / f"{i:02d}", lib)
                assert workloads.check(task, code, out, lib) == [], task.label
                for bad in _corruptions(task, json.loads(out)):
                    errs = workloads.check(task, 0, json.dumps(bad), lib)
                    assert errs, f"{task.label}: corruption not caught"
                assert workloads.check(task, 1, out, lib)
        finally:
            run.shutil.rmtree(work, ignore_errors=True)


def _corruptions(task, rep):
    if task.kind == "bss":
        e1 = json.loads(json.dumps(rep))
        n = max(e1["1"]["classes"], key=lambda k: len(e1["1"]["classes"][k]))
        e1["1"]["classes"][n].pop()
        yield e1
        if rep["1"]["beta"]:
            beta = json.loads(json.dumps(rep))
            beta["1"]["beta"] = beta["1"]["beta"][1:]
            yield beta
        if task.expect.get("envelopes"):
            env = json.loads(json.dumps(rep))
            env["envelope_consistency"]["ok"] = False
            yield env
    elif task.kind == "check-morphism":
        yield dict(rep, lie_type=not rep["lie_type"])
    elif task.kind == "cochains":
        bad = json.loads(json.dumps(rep))
        name = next(k for k, v in bad["d"].items() if v != "0")
        bad["d"][name] = "0"
        yield bad
    else:
        bad = dict(rep)
        bad["0"] = rep["0"] + 1
        yield bad


def test_tail_percentile():
    assert run.tail([1.0] * 5) == (1.0, 100, 5)
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs) == (30.0, 75, 40)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = dict(layertrace.layer_metrics({}).items())
    got["trace.overhead_frac"] = (0.0, "ratio")
    assert per_layer == {k: u for k, (_, u) in got.items()}
    records = [{"seconds": 1.0, "wall_s": 1.0, "error": None}]
    metrics, _ = run.end_to_end(records, 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()}
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


def test_counts_repeat_across_runs():
    """Count metrics are identical in two traced runs of one seed."""
    for w in workloads.WORKLOADS:
        got = []
        for _ in range(2):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0",
                 "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
                check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert res["correct"] and res["failed"] == 0, res
            got.append({k: v["value"] for k, v in res["metrics"].items()
                        if v["unit"] in COUNT_UNITS
                        and not k.startswith("trace.")})
        assert got[0] == got[1], (w, got)
        assert got[0]["scalars.snf_calls"] > 0 or w == "mod_p"


def main(argv) -> int:
    signal.signal(signal.SIGALRM, run._on_alarm)
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")
             and (len(argv) < 2 or argv[1] in n)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except Exception as exc:     # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
