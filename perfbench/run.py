"""coneflow benchmark: four workloads, end-to-end and traced per-layer metrics.

    python3 perfbench/run.py --workload radial-fixed-dt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from anywhere inside a source checkout; the program is imported from the
checkout's ``src`` directory, never from an installed copy.  Each iteration
is a fresh child process (``child.py``) with the BLAS/OpenMP thread caps set
to 1 before numpy loads.  Iterations start until ``--seconds`` have passed
(the last one runs to completion), and every run also sets the workload up
at least ``MIN_SETUPS`` times, so setup_s is a median too.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of the traced ones, plus trace.overhead_ratio.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Everything
before it is a human-readable table with sample counts and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
REFERENCE = os.path.join(HERE, "reference.json")

WORKLOADS = ("radial-fixed-dt", "expander-sweep", "polar-relax", "suite-quick")
# Times are corrected to the reference host speed (child.HostSpeed).
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
# Printed in the table only: the times before correction and the slowdown.
AS_MEASURED = (("wall_raw_s", "s"), ("setup_raw_s", "s"), ("cpu_raw_s", "s"),
               ("host_slowdown", "1"))
MIN_SETUPS = 5
# Seed whose science numbers reference.json records.
DEFAULT_SEED = 0
# A run must end within 180 s; stop starting iterations well before.
HARD_LIMIT_S = 150.0
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing a check)."""


def _child(workload: str, seed: int, trace: bool, tiny: bool,
           setup_only: bool, timeout: float) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP)
    try:
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--out", workdir, "--trace", str(int(trace)),
               "--reference", REFERENCE]
        if tiny:
            cmd.append("--tiny")
        if setup_only:
            cmd.append("--setup-only")
        env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        started = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{workload} iteration exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError(f"{workload} child exited with {proc.returncode}")
        if proc.stderr.strip():
            sys.stderr.write(proc.stderr[-4000:])
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as fh:
            res = json.load(fh)
        res["elapsed_s"] = time.perf_counter() - started
        if trace and not setup_only:
            rec = tracing.Recorder.load(os.path.join(workdir, "spans.json"))
            res["layers"] = tracing.layer_metrics(rec)
            res["tree_problems"] = tracing.check_tree(rec)
        return res
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload; returns samples, checks and both metric sets."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    os.makedirs(TMP, exist_ok=True)
    started = time.perf_counter()
    plain, traced, setups = [], [], []
    longest = 0.0
    while True:
        use_trace = trace and len(traced) < len(plain)
        remaining = CHILD_TIMEOUT_S - (time.perf_counter() - started)
        res = _child(workload, seed, use_trace, tiny, False, remaining)
        (traced if use_trace else plain).append(res)
        setups.append(res)
        longest = max(longest, res["elapsed_s"])
        elapsed = time.perf_counter() - started
        if plain and (traced or not trace) and (
                elapsed >= seconds or elapsed + longest > HARD_LIMIT_S):
            break
    while len(setups) < MIN_SETUPS:
        remaining = CHILD_TIMEOUT_S - (time.perf_counter() - started)
        setups.append(_child(workload, seed, False, tiny, True, remaining))

    checks = [c for res in plain + traced for c in res["checks"]]
    failed = [label for label, ok in checks if not ok]
    e2e = {name: [r[name] for r in plain] for name, _ in END_TO_END + AS_MEASURED}
    e2e["setup_s"] = [r["setup_s"] for r in setups]
    e2e["setup_raw_s"] = [r["setup_raw_s"] for r in setups]
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = [r["layers"][name] for r in traced]
        ratio = (statistics.median(r["wall_s"] for r in traced)
                 / statistics.median(e2e["wall_s"]) - 1.0)
        layers["trace.overhead_ratio"] = [ratio]
    return {
        "workload": workload, "seed": seed, "tiny": tiny,
        "attempted": len(checks), "failed": failed,
        "end_to_end": e2e, "per_layer": layers,
        "tree_problems": [p for r in traced for p in r["tree_problems"]],
        "science": plain[0]["science"], "env": plain[0]["env"],
    }


def _series(result: dict, trace: bool):
    """(samples, units) of the metric set a run reports."""
    if trace:
        return result["per_layer"], dict(tracing.PER_LAYER)
    return result["end_to_end"], dict(END_TO_END)


def metrics_of(result: dict, trace: bool) -> dict:
    samples, units = _series(result, trace)
    return {name: {"value": statistics.median(samples[name]), "unit": units[name]}
            for name in units}


def print_table(result: dict, trace: bool) -> None:
    samples, units = _series(result, trace)
    print(f"== {result['workload']} seed={result['seed']}"
          f"{' tiny' if result['tiny'] else ''} "
          f"({'traced per-layer' if trace else 'end-to-end'}; median of n)")
    rows = list(units.items()) + ([] if trace else list(AS_MEASURED))
    for name, unit in rows:
        vals = samples[name]
        print(f"  {name:<52} {statistics.median(vals):>14.6g} {unit:<6} "
              f"n={len(vals)} min={min(vals):.6g} max={max(vals):.6g}")
    ratio = len(result["failed"]) / result["attempted"]
    print(f"  {'fail_ratio':<52} {ratio:>14.6g} {'1':<6} "
          f"({len(result['failed'])} of {result['attempted']} checks failed)")
    for label in result["failed"][:10]:
        print(f"  FAILED: {label}")
    for problem in result["tree_problems"][:10]:
        print(f"  SPAN TREE: {problem}")


def record_reference() -> None:
    """Rewrite reference.json from the science numbers of DEFAULT_SEED."""
    reference = {"seed": DEFAULT_SEED, "full": {}, "tiny": {}}
    for size, tiny in (("full", False), ("tiny", True)):
        for workload in WORKLOADS:
            res = run_workload(workload, DEFAULT_SEED, 0.0, False, tiny)
            if res["science"]:
                reference[size][workload] = res["science"]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not comparable with full runs)")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json from default-seed runs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coneflow", "__init__.py")):
        print(f"perfbench: no coneflow sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace),
                                args.tiny) for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("env " + json.dumps(results[0]["env"], sort_keys=True))
    for res in results:
        print_table(res, bool(args.trace))
    if len(results) == 1:
        metrics = metrics_of(results[0], bool(args.trace))
    else:
        metrics = {f"{res['workload']}.{name}": value for res in results
                   for name, value in metrics_of(res, bool(args.trace)).items()}
    failed = sum(len(res["failed"]) for res in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(res["attempted"] for res in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind: subprocess.run kills and reaps the running child,
    # and the scratch directories are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
