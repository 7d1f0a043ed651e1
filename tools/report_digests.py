"""Print ``name sha256`` for the canonical report of every shipped scenario
and every benchmark config, to check that a change leaves reports
byte-identical:

    python3 tools/report_digests.py > digests.txt

The names are ``scenarios/<file>`` for each ``scenarios/*.json``,
``perfbench/configs/<workload>/<file>@seed<s>`` for each benchmark config at
seeds 0 and 1, the seed written in as ``perfbench/workloads.py`` writes it,
and ``inline/<name>`` for the identity suites, Hodge tables, expansion and
criterion of ``INLINE``, which run the T^4 and T^6 paths that no shipped or
benchmark config reaches.
The canonical report is ``report_to_json`` of ``run_scenario``, the bytes
``gentorus run --format json`` writes.  Nothing is written under
``perfbench/``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

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


def _expand(name: str, n: int, K: int, structure: Dict) -> Dict:
    """The ``t4-expand`` benchmark config on another structure: its two
    first-order terms expanded to order 3 under ``drop``, then ``criterion``."""
    config = json.loads((ROOT / "perfbench/configs/t4-expand/t4_expand.json").read_text("utf-8"))
    config.update(name=name, structure=structure)
    config["torus"] = {"n": n, "K": K, "policy": "drop"}
    return config


# identity suites on T^4 K=1 (about 1 s each) and T^6 K=0 (about 10 s),
# hodge tables on twisted T^4 K=2, whose d mixes levels (0.2 s), also at
# g = 1e-4 I, and on T^6 K=1, untwisted and twisted (1-2 s each), and a Maurer-Cartan
# expansion on twisted T^4 K=3, whose higher orders go through the twisted
# algebroid's Green operator (0.15 s), and a constant-eps criterion on T^4
# K=2, whose samples go through the deformed T^4 structure (0.1 s), timed on
# a 2-vCPU x86-64 host
INLINE = [
    _identity("t4-complex-identity", 2, 1, 20, {"type": "complex"}),
    _identity("t4-twisted-identity", 2, 1, 20, _TWISTED),
    _identity("t4-symplectic-identity", 2, 1, 20, {"type": "symplectic", "omega": _OMEGA}),
    _identity("t4-b-transform-identity", 2, 1, 20,
              {"type": "b_transform", "base": {"type": "complex"}, "B": _B}, {"b": _B}),
    _identity("t6-complex-identity", 3, 0, 2, {"type": "complex"}),
    _hodge_table("t4-twisted-hodge", 2, 2, _TWISTED),
    _hodge_table("t4-twisted-floors-K2-hodge", 2, 2, _TWISTED, _SMALL_G),
    _hodge_table("t6-complex-hodge", 3, 1, {"type": "complex"}),
    _hodge_table("t6-twisted-hodge", 3, 1, _TWISTED_T6),
    _expand("t4-twisted-expand", 2, 3, _TWISTED),
    _criterion("t4-constant-criterion", 2, 2, {"0,2": 0.3}, [0.1, 0.3], 20),
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


def main() -> int:
    for name, config in configs():
        print(name, digest(config), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
