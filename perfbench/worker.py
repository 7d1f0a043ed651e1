"""One closed-loop iteration of a workload, in a fresh interpreter.

Reads a job from standard input, ``{"configs": [...], "trace": bool,
"run": bool, "spans_out": path or null}``, and prints one JSON line:
set-up and run times (normalized to the reference host speed, see
``calibrate.py``, and as measured), peak resident memory, a digest and the
verdicts of every report, and, when traced, the per-layer metrics.  A fresh
interpreter per iteration makes ``import gentorus`` part of set-up and
keeps one iteration's caches and arrays out of the next one's memory peak.

    echo '{"configs": [], "trace": false, "run": true}' | python3 perfbench/worker.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import platform
import resource
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import calibrate  # noqa: E402  (sibling modules of this script)
import workloads  # noqa: E402

EXPERIMENT_KINDS = ("identity-suite", "hodge-table", "criterion", "extend", "scan")


def run_set(configs: List[Dict], trace: bool = False, run: bool = True,
            spans_out: str | None = None) -> Dict:
    """Set up, and unless ``run`` is false run, every config in sequence.

    ``setup_s`` is ``import gentorus`` plus every ``Scenario(config)``;
    ``run_s`` is every ``Runner.run()`` plus ``report_to_json``.  Both are
    normalized to the reference host speed; ``raw_setup_s`` and
    ``raw_run_s`` are as measured.
    """
    sampler = calibrate.Sampler()
    digests, verdicts = [], []
    experiments = {kind: [0, 0.0] for kind in EXPERIMENT_KINDS}
    with sampler:
        report_mod, scenario_mod = sampler.measure("setup", lambda: (
            importlib.import_module("gentorus.report"),
            importlib.import_module("gentorus.scenario"),
        ))
        sampler.numpy_ready()
        if trace:
            from tracer import SpanRecorder

            recorder = SpanRecorder()
        else:
            recorder = contextlib.nullcontext()
        with recorder:
            for config in configs:
                scenario = sampler.measure("setup", lambda: scenario_mod.Scenario(config))
                if not run:
                    continue

                def run_one():
                    runner = scenario_mod.Runner(scenario)
                    report = runner.run()
                    return runner, report, report_mod.report_to_json(report)

                runner, report, text = sampler.measure("run", run_one)
                digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
                verdicts.append(workloads.verdicts(report, scenario_mod.exit_code_for(report)))
                for timing in runner.timings:
                    slot = experiments.setdefault(timing["kind"], [0, 0.0])
                    slot[0] += 1
                    slot[1] += timing["wall_time_s"]
    out = {
        "setup_s": sampler.normalized["setup"],
        "run_s": sampler.normalized["run"],
        "raw_setup_s": sampler.raw["setup"],
        "raw_run_s": sampler.raw["run"],
        "slowdowns": sampler.slowdowns(),
        "digests": digests,
        "verdicts": verdicts,
        "experiments": experiments,
    }
    if trace:
        out["layers"] = recorder.metrics()
        out["untraced_targets"] = recorder.missing
        if spans_out:
            recorder.save(spans_out)
    return out


def environment() -> Dict:
    import numpy as np

    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(SRC))
    result = run_set(job["configs"], trace=job.get("trace", False),
                     run=job.get("run", True), spans_out=job.get("spans_out"))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
