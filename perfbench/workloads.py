"""The benchmark's workloads and their expected verdicts.

A workload is a directory under ``configs/`` whose ``*.json`` scenarios run
in name order.  The workload seed is written into the ``seed`` field of
every ``identity-suite`` and ``criterion`` experiment; the program sees only
the generated configs.  ``expected/<workload>.json`` holds the verdicts the
seed code produced; regenerate them only when a change is meant to alter a
verdict:

    python3 perfbench/workloads.py --write-expected
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
CONFIGS = HERE / "configs"
EXPECTED = HERE / "expected"

SEEDED_KINDS = ("identity-suite", "criterion")

# why each workload was chosen; BENCHMARK.json and the README repeat these
WHY = {
    "shipped": "the five shipped scenarios: small boxes where fixed cost per context shows",
    "t4-hodge": "T^4 K=3 hodge-table: 4 packages and 25 class checks over 2401 modes",
    "t4-deform": "T^4 K=2 extend and scan: repeated class checks, many Green/harmonic applies",
    "t4-expand": "T^4 K=3 Maurer-Cartan expand plus criterion: algebroid Hodge and Fourier products",
}
NAMES = tuple(WHY)


def config_paths(name: str) -> List[Path]:
    return sorted((CONFIGS / name).glob("*.json"))


def configs(name: str, seed: int) -> List[Dict]:
    """The scenario configs of a workload with the seed written in."""
    out = []
    for path in config_paths(name):
        config = copy.deepcopy(json.loads(path.read_text(encoding="utf-8")))
        for exp in config.get("experiments", []):
            if exp.get("kind") in SEEDED_KINDS:
                exp["seed"] = seed
        out.append(config)
    return out


def verdicts(report: Dict, exit_code: int) -> Dict:
    """What must not change across commits: exit code, statuses, entry
    names with pass flags, kernel dimensions, class checks, scan dims and
    ranks.  Residual values are left out, because batching may move float
    noise."""
    experiments = []
    for exp in report["experiments"]:
        v: Dict = {"kind": exp["kind"], "status": exp["status"]}
        if "entries" in exp:
            v["entries"] = [[e["name"], e["passed"]] for e in exp["entries"]]
        tables = exp.get("tables") or {}
        for key in ("kernel_dimensions", "class_checks"):
            if key in tables:
                v[key] = tables[key]
        if "rows" in tables:
            v["scan"] = [
                [r["t"], r["level"], r["dimension"], r["injectivity_rank"]]
                for r in tables["rows"]
            ]
        experiments.append(v)
    return {"exit_code": exit_code, "experiments": experiments}


def expected(name: str) -> List[Dict]:
    return json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-expected", action="store_true", required=True)
    parser.parse_args(argv)
    import worker

    sys.path.insert(0, str(worker.SRC))
    EXPECTED.mkdir(exist_ok=True)
    for name in NAMES:
        result = worker.run_set(configs(name, 0))
        path = EXPECTED / f"{name}.json"
        path.write_text(json.dumps(result["verdicts"], indent=1) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
