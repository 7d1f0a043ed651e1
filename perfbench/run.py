"""Closed-loop scenario benchmark for gentorus.

One client in one process submits one workload iteration at a time: each
iteration is a fresh interpreter (``worker.py``) that imports gentorus,
builds ``Scenario(config)`` for every config of the workload, runs
``Runner(...).run()`` on the default serial path and serializes the report
with ``report_to_json``.  Iterations repeat until the next one would end
after ``--seconds``; at least one always runs.  Every iteration's verdicts
are checked against ``expected/`` and its report bytes against the first
iteration's.  Times are scaled to a reference host speed by a calibration
kernel sampled all through each iteration (``calibrate.py``).

    python3 perfbench/run.py --workload t4-hodge --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25    # every metric, every workload

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A result file with samples, quartiles and the environment is written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import workloads
from tracer import COUNTERS, LAYERS, SPANS
from worker import EXPERIMENT_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# a run must end within 180 s; keep a margin for start-up and read-out
RUN_LIMIT_S = 170.0
# set-up is also sampled by set-up-only iterations until there are this many
MIN_SETUP_SAMPLES = 5

END_TO_END = {"setup_s": "s", "run_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
    for kind in EXPERIMENT_KINDS:
        units[f"scenario.experiment.{kind}.calls"] = "count"
        units[f"scenario.experiment.{kind}.s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for metric, unit, _ in COUNTERS.values():
        units[metric] = unit
    units["trace.overhead_frac"] = "ratio"
    return units


class WorkerError(RuntimeError):
    """An iteration raised, timed out or printed no result."""


# BLAS runs one thread.  That is at most nproc; a second thread would
# busy-wait on another core of the shared host between calls, and that core's
# speed drifts apart from this one's.
BLAS_THREADS = 1


def nproc() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env(threads: int) -> Dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    # the warm-up caches bytecode, so set-up times import, not compilation
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def call_worker(job: Dict, env: Dict[str, str], timeout: float) -> Dict:
    if timeout <= 0:
        raise WorkerError("no time left in the run")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise WorkerError(f"iteration timed out after {timeout:.0f} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"iteration exited with {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run the closed loop for one workload; return the full result record."""
    began = time.perf_counter()
    configs = workloads.configs(name, seed)
    expected = workloads.expected(name)
    env = worker_env(BLAS_THREADS)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - began)

    OUT.mkdir(exist_ok=True)
    # warm-up: caches bytecode and records versions
    versions = call_worker({"configs": [], "run": False}, env, remaining())["env"]
    spans_path = OUT / f"spans-{name}-seed{seed}.npz"

    deadline = time.perf_counter() + seconds
    modes = (False, True) if trace else (False,)
    plain: List[Dict] = []
    traced: List[Dict] = []
    setups: List[float] = []
    errors: List[str] = []
    attempted = failed = 0
    reference = None
    last: Dict[bool, float] = {}
    i = 0
    while True:
        mode = modes[i % len(modes)]
        i += 1
        attempted += 1
        started = time.perf_counter()
        job = {"configs": configs, "trace": mode,
               "spans_out": str(spans_path) if mode else None}
        try:
            res = call_worker(job, env, remaining())
        except WorkerError as err:
            failed += 1
            errors.append(str(err))
            break
        last[mode] = time.perf_counter() - started
        if reference is None:
            reference = res["digests"]
        if res["verdicts"] != expected:
            failed += 1
            errors.append(f"iteration {attempted}: verdicts differ from expected/{name}.json")
        elif res["digests"] != reference:
            failed += 1
            errors.append(f"iteration {attempted}: report bytes differ from the first iteration")
        if mode:
            traced.append(res)
        else:
            plain.append(res)
            setups.append(res["setup_s"])
        done = plain and (traced or not trace)
        upcoming = last.get(modes[i % len(modes)], last[mode])
        if done and time.perf_counter() + upcoming > deadline:
            break

    probe = None
    while plain and len(setups) < MIN_SETUP_SAMPLES:
        # before the first probe, allow half a second for interpreter start-up
        estimate = probe if probe is not None else statistics.median(setups) + 0.5
        if time.perf_counter() + estimate > deadline:
            break
        started = time.perf_counter()
        try:
            res = call_worker({"configs": configs, "run": False}, env, remaining())
        except WorkerError as err:
            errors.append(f"set-up probe: {err}")
            break
        probe = time.perf_counter() - started
        setups.append(res["setup_s"])

    record: Dict = {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": {**versions, "nproc": nproc(), "cpu_count": os.cpu_count(),
                "blas_threads": BLAS_THREADS},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors,
    }
    if plain:
        record["end_to_end"] = {
            "setup_s": spread(setups),
            "run_s": spread([r["run_s"] for r in plain]),
            "wall_s": spread([r["setup_s"] + r["run_s"] for r in plain]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in plain]),
        }
        record["as_measured"] = {
            "setup_s": spread([r["raw_setup_s"] for r in plain]),
            "run_s": spread([r["raw_run_s"] for r in plain]),
            "wall_s": spread([r["raw_setup_s"] + r["raw_run_s"] for r in plain]),
            "slowdown": spread([statistics.median(r["slowdowns"]) for r in plain]),
        }
    if traced:
        layers: Dict[str, List[float]] = {}
        for res in traced:
            values = dict(res["layers"])
            for kind, (calls, secs) in res["experiments"].items():
                values[f"scenario.experiment.{kind}.calls"] = calls
                values[f"scenario.experiment.{kind}.s"] = secs
            for key, value in values.items():
                layers.setdefault(key, []).append(value)
        per_layer = {key: statistics.median(vals) for key, vals in layers.items()}
        if plain:
            base = record["end_to_end"]["wall_s"]["median"]
            wall = statistics.median(r["setup_s"] + r["run_s"] for r in traced)
            per_layer["trace.overhead_frac"] = (wall - base) / base
        record["per_layer"] = per_layer
        record["untraced_targets"] = traced[0]["untraced_targets"]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


def result_line(record: Dict) -> Dict | None:
    """The contract's last line, or None when nothing was measured."""
    if "end_to_end" not in record:
        return None
    if record["trace"]:
        if "per_layer" not in record:
            return None
        units = per_layer_units()
        metrics = {key: {"value": record["per_layer"].get(key, 0), "unit": unit}
                   for key, unit in units.items()}
    else:
        metrics = {key: {"value": record["end_to_end"][key]["median"], "unit": unit}
                   for key, unit in END_TO_END.items()}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def print_summary(record: Dict) -> None:
    name = record["workload"]
    for key, unit in END_TO_END.items():
        st = record.get("end_to_end", {}).get(key)
        if st:
            print(f"{name:10} {key:12} {st['median']:12.4f} {unit:6} "
                  f"q1 {st['q1']:.4f}  q3 {st['q3']:.4f}  n {st['n']}")
    print(f"{name:10} {'fail_frac':12} {record['fail_frac']:12.4f} {'ratio':6} "
          f"({record['failed']} of {record['attempted']} runs)")
    for err in record["errors"]:
        print(f"{name:10} error: {err}")
    units = per_layer_units()
    for key, value in sorted(record.get("per_layer", {}).items()):
        print(f"{name:10} {key:44} {value:14.6g} {units.get(key, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="closed-loop gentorus scenario benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "gentorus" / "__init__.py").is_file():
        print(f"error: no gentorus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        try:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        records.append(record)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print_summary(record)
    if args.workload == "all":
        return 0 if all(r["failed"] == 0 for r in records) else 1
    line = result_line(records[0])
    if line is None:
        print(f"error: no iteration of {names[0]} completed", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
