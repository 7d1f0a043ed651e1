"""Print ``name sha256`` for the canonical report of every shipped scenario
and every benchmark config, to check that a change leaves reports
byte-identical:

    python3 tools/report_digests.py > digests.txt
    python3 tools/report_digests.py --against digests.txt

With ``--against FILE`` it also compares each digest with the one FILE
gives for the same name, and exits 1 after naming every config whose digest
differs from FILE's or is missing from it.

The names are ``scenarios/<file>`` for each ``scenarios/*.json``,
``perfbench/configs/<workload>/<file>@seed<s>`` for each benchmark config at
seeds 0 and 1, the seed written in as ``perfbench/workloads.py`` writes it,
and ``inline/<name>`` for the identity suites, Hodge tables, expansion,
criterion, deformation and scan runs of ``INLINE``, which run the T^4 and T^6
paths that no shipped or benchmark config reaches.
The canonical report is ``report_to_json`` of ``run_scenario``, the bytes
``gentorus run --format json`` writes.  Nothing is written under
``perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)

sys.dont_write_bytecode = True  # import perfbench/workloads.py without a cache there
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from gentorus.report import report_to_json  # noqa: E402
from gentorus.scenario import run_scenario  # noqa: E402


_B = [[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 0, 0.3], [0, 0, -0.3, 0]]
_OMEGA = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]


_TWISTED = {"type": "complex", "H": [{"indices": [0, 1, 2], "c": 1.0}]}
# g = 1e-4 I puts d at 7e5, where the absolute rank floors bind on every mode
_SMALL_G = {"g": [[1e-4 if i == j else 0 for j in range(4)] for i in range(4)]}
# on T^6, H = dx0^dx1^dx3 fails 15 of the 35 class checks at K=1
_TWISTED_T6 = {"type": "complex", "H": [{"indices": [0, 1, 3], "c": 1.0}]}
# g = diag(1, 2, 1, 2) keeps 16 of complex T^4's 32 lattice symmetries
_UNEQUAL_G = {"g": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]}
_B_TRANSFORM = {"type": "b_transform", "base": {"type": "complex"}, "B": _B}


def _config(name: str, n: int, K: int, experiment: Dict, structure: Dict, metric=None) -> Dict:
    config = {
        "name": name,
        "torus": {"n": n, "K": K},
        "structure": structure,
        "experiments": [experiment],
    }
    if metric:
        config["metric"] = metric
    return config


def _identity(name: str, n: int, K: int, samples: int, structure: Dict, metric=None) -> Dict:
    experiment = {"kind": "identity-suite", "seed": 0, "samples": samples}
    return _config(name, n, K, experiment, structure, metric)


def _hodge_table(name: str, n: int, K: int, structure: Dict, metric=None) -> Dict:
    return _config(name, n, K, {"kind": "hodge-table"}, structure, metric)


def _criterion(name: str, n: int, K: int, terms: Dict, t, samples: int) -> Dict:
    """A ``criterion`` experiment on the complex structure with the
    constant first-order deformation ``terms``."""
    config = _config(name, n, K, {"kind": "criterion", "t": t, "samples": samples},
                     {"type": "complex"})
    config["deformation"] = {"coefficients": {"1,0": {"terms": terms}}}
    return config


def _deform(name: str, structure: Dict, metric=None) -> Dict:
    """The ``t4-deform`` benchmark config, two extends and a scan of complex
    T^4 K=2 under its constant deformation, on another structure or metric."""
    config = json.loads((ROOT / "perfbench/configs/t4-deform/t4_deform.json").read_text("utf-8"))
    config.update(name=name, structure=structure)
    if metric:
        config["metric"] = metric
    return config


def _scan(name: str, n: int, K: int, structure: Dict, terms: Dict, t_samples, levels) -> Dict:
    """A ``scan`` experiment at ``levels`` under the constant first-order
    deformation ``terms``."""
    experiment = {"kind": "scan", "t_samples": t_samples, "levels": levels}
    config = _config(name, n, K, experiment, structure)
    config["deformation"] = {"coefficients": {"1,0": {"terms": terms}}}
    return config


def _expand(name: str, n: int, K: int, structure: Dict) -> Dict:
    """The ``t4-expand`` benchmark config on another structure: its two
    first-order terms expanded to order 3 under ``drop``, then ``criterion``."""
    config = json.loads((ROOT / "perfbench/configs/t4-expand/t4_expand.json").read_text("utf-8"))
    config.update(name=name, structure=structure)
    config["torus"] = {"n": n, "K": K, "policy": "drop"}
    return config


# identity suites on T^4 K=1 (about 1 s each) and T^6 K=0 (about 10 s),
# hodge tables on twisted T^4 K=2, whose d mixes levels (0.2 s), also at
# g = 1e-4 I, on complex T^4 K=2 with g = diag(1, 2, 1, 2) and B-transformed
# T^4 K=2, whose lattice symmetries are 16 and 4, on T^6 K=1, untwisted and
# twisted (1-2 s each), and on complex T^6 K=2 (384 symmetries), and a Maurer-Cartan
# expansion on twisted T^4 K=3, whose higher orders go through the twisted
# algebroid's Green operator (0.15 s), a constant-eps criterion on T^4
# K=2, whose samples go through the deformed T^4 structure (0.1 s), and the
# t4-deform experiments with g = diag(1, 2, 1, 2) (16 symmetries; pass,
# pass, pass) and on the twisted T^4, where the identity passes walk every mode
# (finding, pass, finding), also at g = 1e-4 I, where the same verdicts
# show that the packages' kernels do not depend on the metric's scale, so
# that the packages' kernel classification on smaller groups and the scan's
# deformed side are digested (0.15 s each), and a scan of twisted T^4 K=1 at
# the levels -1 and 2, whose harmonics extend past the class checks that
# stop the twisted deform runs at level -2 (0.1 s), timed on a 2-vCPU
# x86-64 host
INLINE = [
    _identity("t4-complex-identity", 2, 1, 20, {"type": "complex"}),
    _identity("t4-twisted-identity", 2, 1, 20, _TWISTED),
    _identity("t4-symplectic-identity", 2, 1, 20, {"type": "symplectic", "omega": _OMEGA}),
    _identity("t4-b-transform-identity", 2, 1, 20, _B_TRANSFORM, {"b": _B}),
    _identity("t6-complex-identity", 3, 0, 2, {"type": "complex"}),
    _hodge_table("t4-twisted-hodge", 2, 2, _TWISTED),
    _hodge_table("t4-twisted-floors-K2-hodge", 2, 2, _TWISTED, _SMALL_G),
    _hodge_table("t6-complex-hodge", 3, 1, {"type": "complex"}),
    _hodge_table("t6-twisted-hodge", 3, 1, _TWISTED_T6),
    _hodge_table("t4-unequal-g-hodge", 2, 2, {"type": "complex"}, _UNEQUAL_G),
    _hodge_table("t4-b-transform-hodge", 2, 2, _B_TRANSFORM, {"b": _B}),
    _hodge_table("t6-complex-K2-hodge", 3, 2, {"type": "complex"}),
    _expand("t4-twisted-expand", 2, 3, _TWISTED),
    _criterion("t4-constant-criterion", 2, 2, {"0,2": 0.3}, [0.1, 0.3], 20),
    _deform("t4-unequal-g-deform", {"type": "complex"}, _UNEQUAL_G),
    _deform("t4-twisted-deform", _TWISTED),
    _deform("t4-twisted-floors-deform", _TWISTED, _SMALL_G),
    _scan("t4-twisted-levels-scan", 2, 1, _TWISTED, {"0,2": [0.3, 0]}, [0.0, 0.1, 0.2, 0.5], [-1, 2]),
]


def digest(config: Dict) -> str:
    """The sha256 of a config's canonical report."""
    return hashlib.sha256(report_to_json(run_scenario(config)[0]).encode("utf-8")).hexdigest()


def configs() -> Iterator[Tuple[str, Dict]]:
    """(name, config) of every shipped scenario, then every benchmark config
    at each seed, then the ``INLINE`` configs."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        yield f"scenarios/{path.name}", json.loads(path.read_text(encoding="utf-8"))
    for name in workloads.NAMES:
        paths = workloads.config_paths(name)
        for seed in SEEDS:
            for path, config in zip(paths, workloads.configs(name, seed)):
                yield f"perfbench/configs/{name}/{path.name}@seed{seed}", config
    for config in INLINE:
        yield f"inline/{config['name']}", config


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="FILE", type=Path,
                        help="a saved output of this tool to compare every digest with")
    args = parser.parse_args(argv)
    saved: Dict[str, str] = {}
    if args.against:
        saved = dict(line.split() for line in args.against.read_text("utf-8").splitlines() if line.strip())
    moved = []
    for name, config in configs():
        value = digest(config)
        print(name, value, flush=True)
        if args.against and saved.get(name) != value:
            moved.append(name)
    for name in moved:
        state = "missing from" if name not in saved else "differs from"
        print(f"{name}: {state} {args.against}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
