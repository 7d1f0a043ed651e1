"""Print the memory a ``hodge-table`` takes beside the estimate that admits it:

    python3 tools/hodge_peaks.py            # complex T^4 K=2, K=3 and T^6 K=1, K=2
    python3 tools/hodge_peaks.py --case 2 1 # complex T^4 K=1 alone

Each case runs in a fresh interpreter.  It parses a complex, untwisted
``hodge-table`` config on T^{2n} with box size K, which builds the structure
and metric, runs ``hodge_table`` on a new context once untraced and reads
the process's max RSS, then runs it again under tracemalloc and reads the
traced peak, which the context's build is part of.  The estimate is
``scenario._estimated_bytes`` for the config, the figure ``MEMORY_BUDGET``
is checked against; it counts the structure's arrays too, but not the
interpreter.  Sizes are in MB (10^6 bytes).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

CASES: List[Tuple[int, int]] = [(2, 2), (2, 3), (3, 1), (3, 2)]


def _child(n: int, K: int) -> Dict:
    """The measurements of one case, in this interpreter."""
    sys.path.insert(0, str(ROOT / "src"))
    from gentorus.diagnostics import hodge_table
    from gentorus.hodge import HodgeContext
    from gentorus.scenario import Scenario, _estimated_bytes

    scenario = Scenario({
        "name": f"t{2 * n}-k{K}-hodge",
        "torus": {"n": n, "K": K},
        "structure": {"type": "complex"},
        "experiments": [{"kind": "hodge-table"}],
    })

    def run():
        hodge_table(HodgeContext(scenario.structure, scenario.metric))

    run()
    max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "n": n,
        "K": K,
        "peak_bytes": peak,
        "max_rss_bytes": max_rss,
        "estimate_bytes": _estimated_bytes(n, K, False, ["hodge-table"]),
    }


def measure(n: int, K: int) -> Dict:
    """The measurements of one case, from a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(n), str(K)],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", nargs=2, type=int, metavar=("N", "K"),
                        help="measure complex T^{2N} at box size K alone")
    parser.add_argument("--child", nargs=2, type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_child(*args.child)))
        return 0
    cases = [tuple(args.case)] if args.case else CASES
    print(f"{'case':<14}{'tracemalloc peak':>18}{'max RSS':>12}{'estimate':>12}")
    for n, K in cases:
        m = measure(n, K)
        print(f"{f'T^{2 * n} K={K}':<14}{m['peak_bytes'] / 1e6:>15.2f} MB"
              f"{m['max_rss_bytes'] / 1e6:>9.1f} MB{m['estimate_bytes'] / 1e6:>9.1f} MB", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
