"""Benchmark of the bockstein engine: seeded workloads in a closed loop.

    python3 perfbench/run.py --workload ul_pages --seed 1 --seconds 8

Run from the root of a checkout; the library is imported from `src/`.  Set-up
(import, input generation, golden digests) is repeated and its median
reported.  Then the tasks of the workload's pool run one after another, the
next starting when the previous one finishes, in whole passes over the pool
until `--seconds` of (scaled, see below) task time have been measured.
Every output is checked after the timed loop.  With `--trace 0` the last
line of stdout is a JSON object with the end-to-end metrics; with
`--trace 1` untraced and traced passes over the pool alternate, and the
per-layer metrics come from the traced ones.  Each run appends a record
(environment, task counts, wall and scaled times, all metrics) to
`perfbench/results/<workload>.jsonl`.

Times are scaled to a fixed machine speed.  On a shared host the speed of a
core changes by up to 2x for seconds at a time, and a whole run can fall in
a slow phase.  So a fixed pure-Python probe runs before and after every task
(and every set-up), and a task's wall time is multiplied by
PROBE_NOMINAL_S / (mean probe time around it): the seconds the task would
take on a core where the probe takes PROBE_NOMINAL_S.  Wall-clock values are
kept in the results file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace              # noqa: E402
import workloads               # noqa: E402

SETUP_REPEATS = 7
TASK_CAP_S = 20                # a task running longer counts as failed
# Wall-clock limits from the start of a run, so that even a pathological
# regression ends the run well within three minutes: no set-up repetition
# starts after SETUP_BUDGET_S, no task after TASK_BUDGET_S, and no check
# after CHECK_BUDGET_S (outputs left unchecked count as failed).
SETUP_BUDGET_S, TASK_BUDGET_S, CHECK_BUDGET_S = 30, 100, 140
TAIL_BEYOND = 10               # samples that must lie beyond the tail value
PROBE_NOMINAL_S = 0.010        # probe time on an idle core (CPython 3.11)
PROBE_STEADY = 1.2             # probes around a kept sample agree this well
RETRIES = 2                    # re-timings of a task whose probes disagree
GOLDEN = HERE / "golden.json"
MODULES = ("cli", "dglfile", "lie", "graded", "scalars", "bss", "structure",
           "gamma", "cce")


class TaskTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise TaskTimeout(f"task exceeded {TASK_CAP_S} s")


# ---------------------------------------------------------------------------
# machine-speed probe
# ---------------------------------------------------------------------------

def _probe_work(n: int = 4000) -> int:
    """Fixed work in the library's style: Fraction arithmetic into a dict."""
    acc = {}
    x = Fraction(1, 3)
    for i in range(n):
        k = i % 97
        v = acc.get(k, 0) + x * (i % 7)
        if v.numerator % 5:
            acc[k] = v
        else:
            acc.pop(k, None)
    return len(acc)


class SpeedProbe:
    """Scale factors from the probe time measured around each interval."""

    def __init__(self):
        self.last = self.measure()

    @staticmethod
    def measure() -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_work()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self) -> tuple:
        """(factor, steady) for the interval since the previous call; steady
        when the probe before and after it agree within PROBE_STEADY."""
        before, self.last = self.last, self.measure()
        steady = max(before, self.last) <= PROBE_STEADY * min(before,
                                                              self.last)
        return PROBE_NOMINAL_S / ((before + self.last) / 2), steady


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _import_library():
    for name in [m for m in sys.modules
                 if m == "bockstein" or m.startswith("bockstein.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"bockstein.{m}")
                              for m in MODULES})


def setup(workload: str, seed: int, workdir: Path):
    """Import the library, generate and validate the pool, write its files,
    and load the golden digests."""
    lib = _import_library()
    tasks = workloads.generate(workload, seed)
    for i, task in enumerate(tasks):
        bad = workloads.to_lie(task.dgl, lib.lie, lib.scalars).validate()
        if bad:
            raise RuntimeError(f"{task.label}: generated DGL invalid: {bad}")
        d = workdir / f"{i:02d}"
        d.mkdir(parents=True, exist_ok=True)
        for name, text in task.files.items():
            (d / name).write_text(text)
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    digests = golden.get(workload) if golden.get("seed") == seed else None
    return lib, tasks, digests


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_one(lib, tasks, i: int, workdir: Path, probe: SpeedProbe,
            tracer=None) -> dict:
    """Run and time task i.  When the machine's speed changed during the
    task (the probes around it disagree), the task is run and timed again,
    up to RETRIES times; traced tasks are never repeated, so their counts
    stay exact."""
    task = tasks[i]
    rec = {"index": i, "retimed": 0}
    while True:
        rec.update(code=None, out=None, error=None)
        span = tracer.begin_task(task.label) if tracer is not None else None
        signal.alarm(TASK_CAP_S)
        t0 = time.perf_counter()
        try:
            rec["code"], rec["out"] = workloads.run(
                task, workdir / f"{i:02d}", lib)
        except TaskTimeout as exc:
            rec["error"] = str(exc)
        except Exception as exc:    # a failing task is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            rec["wall_s"] = time.perf_counter() - t0
            signal.alarm(0)
            if span is not None:
                tracer.end_task(span)
        rec["scale"], steady = probe.scale()
        if (steady or rec["error"] is not None or tracer is not None
                or rec["retimed"] == RETRIES):
            break
        rec["retimed"] += 1
    rec["seconds"] = rec["wall_s"] * rec["scale"]
    if span is not None:
        span[4]["scale"] = rec["scale"]
    return rec


def closed_loop(lib, tasks, workdir: Path, seconds: float, probe, deadline):
    """Whole passes over the pool, one task at a time, until the scaled task
    time reaches `seconds` (or the wall time 3 × `seconds`).  Whole passes
    keep the mix of a run independent of the machine's speed."""
    records = []
    start = time.perf_counter()
    while not records or (sum(r["seconds"] for r in records) < seconds and
                          time.perf_counter() - start < 3 * seconds and
                          time.perf_counter() < deadline):
        records += one_pass(lib, tasks, workdir, probe, deadline)
    return records


def one_pass(lib, tasks, workdir: Path, probe, deadline, tracer=None):
    """One task per pool entry, in order; cut short at the deadline."""
    records = []
    for i in range(len(tasks)):
        if records and time.perf_counter() > deadline:
            break
        records.append(run_one(lib, tasks, i, workdir, probe, tracer))
    return records


def verify(lib, tasks, records, digests, deadline) -> list:
    """Mark each record failed or not; return the failure messages.

    Each distinct output is checked once; a task whose output differs from
    the first output for the same input fails, and so does one whose output
    is still unchecked at the deadline."""
    verdicts = {}            # (index, output) -> list of errors
    messages = []
    for rec in records:
        i, task = rec["index"], tasks[rec["index"]]
        if rec["error"] is None:
            key = (i, rec["out"])
            if key not in verdicts and time.perf_counter() > deadline:
                verdicts[key] = ["not checked before the deadline"]
            if key not in verdicts:
                signal.alarm(TASK_CAP_S)
                try:
                    errs = workloads.check(task, rec["code"], rec["out"], lib)
                except TaskTimeout as exc:
                    errs = [f"check: {exc}"]
                except Exception as exc:    # a malformed report, say
                    errs = [f"check raised {type(exc).__name__}: {exc}"]
                finally:
                    signal.alarm(0)
                if digests is not None:
                    h = hashlib.sha256(rec["out"].encode()).hexdigest()
                    if h != digests[i]:
                        errs.append("report differs from the golden digest")
                verdicts[key] = errs
            errs = verdicts[key]
            if len({k for k in verdicts if k[0] == i}) > 1:
                errs = errs + ["output differs between runs of one input"]
            if errs:
                rec["error"] = "; ".join(errs)
        if rec["error"] is not None:
            messages.append(f"{task.label}: {rec['error']}")
    return messages


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples above it (the maximum when there are too few)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, n
    k = n - TAIL_BEYOND          # rank (1-based) of the tail sample
    return xs[k - 1], 100 * k // n, n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(records, setup_s):
    """End-to-end metrics in scaled seconds, plus wall-clock equivalents."""
    ok = sum(1 for r in records if r["error"] is None)
    out, extra = {}, {}
    for key, dest in (("seconds", out), ("wall_s", extra)):
        times = [r[key] for r in records]
        t_val, t_pct, t_n = tail(times)
        dest["tasks_per_s"] = {"value": ok / sum(times), "unit": "1/s"}
        dest["task_s.p50"] = {"value": statistics.median(times), "unit": "s"}
        dest["task_s.tail"] = {"value": t_val, "unit": "s"}
    out["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    out["setup_s"] = {"value": setup_s, "unit": "s"}
    return out, {"wall_clock": extra, "tail": {
        "percentile": t_pct, "samples": t_n, "beyond": TAIL_BEYOND}}


def traced_run(lib, tasks, workdir, seconds, probe, deadline):
    """Alternate untraced and traced passes over the pool until `seconds`
    have passed.  Counts come from the first traced pass; times are means
    over the traced passes."""
    records, plain, traced, summaries = [], [], [], []
    start = time.perf_counter()
    while True:
        recs = one_pass(lib, tasks, workdir, probe, deadline)
        plain.append(sum(r["seconds"] for r in recs))
        records += recs
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            recs = one_pass(lib, tasks, workdir, probe, deadline, tracer)
        finally:
            tracer.uninstall()
        traced.append(sum(r["seconds"] for r in recs))
        records += recs
        summaries.append(layertrace.summarize(tracer.spans))
        if len(summaries) == 1:
            first_spans = tracer.spans
        if (time.perf_counter() - start >= seconds
                or time.perf_counter() > deadline):
            break
    per_pass = [layertrace.layer_metrics(s) for s in summaries]
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.fmean(m[name][0] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
    repeat = all(m[name] == per_pass[0][name] for m in per_pass
                 for name in m if m[name][1] != "s")
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced) / statistics.median(plain) - 1,
        "unit": "ratio"}
    under = layertrace.summarize(first_spans, under="structure.tensor_square")
    extra = {"passes": len(summaries), "plain_pass_s": plain,
             "traced_pass_s": traced,
             "snf_under_tensor_square_s": under.get(
                 "scalars.snf", {}).get("total_s", 0.0),
             "counts_repeat_across_passes": repeat,
             "layers": summaries[0], "top_self_s": sorted(
                 ((round(v["self_s"], 4), k)
                  for k, v in summaries[0].items() if k != "task"),
                 reverse=True)[:8]}
    return records, metrics, extra, first_spans


def _write_results(workload, record, spans=None):
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    path = out / f"{workload}.jsonl"
    prior = path.read_text().count("\n") if path.exists() else 0
    record["runs_per_workload"] = prior + 1
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if spans is not None:
        with (out / f"spans-{workload}-seed{record['seed']}.jsonl").open(
                "w") as fh:
            for i, s in enumerate(spans):
                fh.write(json.dumps([i] + s) + "\n")


def _record_golden(workload, seed, lib, tasks, workdir, probe) -> int:
    """Run the pool once, check it, and store its report digests."""
    records = one_pass(lib, tasks, workdir, probe, float("inf"))
    failures = verify(lib, tasks, records, None, float("inf"))
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if golden.get("seed") != seed:
        golden = {"seed": seed}
    golden[workload] = [hashlib.sha256(r["out"].encode()).hexdigest()
                        for r in records]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record report digests for this seed in golden.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bockstein" / "__init__.py").is_file():
        print(f"error: no bockstein sources under {ROOT / 'src'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    load_start = os.getloadavg()
    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    start = time.perf_counter()
    probe = SpeedProbe()
    try:
        setup_wall, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            if setup_wall and time.perf_counter() - start > SETUP_BUDGET_S:
                break
            t0 = time.perf_counter()
            lib, tasks, digests = setup(args.workload, args.seed, workdir)
            setup_wall.append(time.perf_counter() - t0)
            setup_scaled.append(setup_wall[-1] * probe.scale()[0])
        if args.write_golden:
            return _record_golden(args.workload, args.seed, lib, tasks,
                                  workdir, probe)
        spans = None
        if args.trace:
            records, metrics, extra, spans = traced_run(
                lib, tasks, workdir, args.seconds, probe,
                start + TASK_BUDGET_S)
        else:
            records = closed_loop(lib, tasks, workdir, args.seconds, probe,
                                  start + TASK_BUDGET_S)
        failures = verify(lib, tasks, records, digests,
                          start + CHECK_BUDGET_S)
        if not args.trace:
            metrics, extra = end_to_end(records,
                                        statistics.median(setup_scaled))
            extra["wall_clock"]["setup_s"] = {
                "value": statistics.median(setup_wall), "unit": "s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / "work").rmdir()
        except OSError:
            pass

    failed = sum(1 for r in records if r["error"] is not None)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "finished": time.strftime(
            "%Y-%m-%dT%H:%M:%S%z"),
        "env": {"python": platform.python_version(),
                "implementation": platform.python_implementation(),
                "nproc": os.cpu_count(), "loadavg_start": load_start,
                "loadavg_end": os.getloadavg(),
                "probe_nominal_s": PROBE_NOMINAL_S},
        "pool": [[t.label, t.kind, t.dgl.p, t.dgl.nmax, t.dgl.degrees()]
                 for t in tasks],
        "pool_size": len(tasks), "tasks_per_run": len(records),
        "failed": failed, "failures": failures[:20],
        "setup_runs_s": {"wall": setup_wall, "scaled": setup_scaled},
        "tasks": [[r["index"], r["wall_s"], r["scale"], r["retimed"]]
                  for r in records],
        "retimed": sum(r["retimed"] for r in records),
        "metrics": metrics, **extra,
    }
    _write_results(args.workload, record, spans)
    print(f"{args.workload} seed {args.seed}: {len(records)} tasks, "
          f"{failed} failed" + "".join(f"\n  {m}" for m in failures[:5]),
          file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
