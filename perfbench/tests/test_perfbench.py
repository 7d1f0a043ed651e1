"""Self-tests of the benchmark: verdicts, tracer and layer predictions.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    """Every attribute of every gentorus module and class, and numpy.linalg."""
    import gentorus.scenario  # noqa: F401  (loads every layer)

    snapshot = {}
    for mod in tracer._package_modules("gentorus") + [np.linalg]:
        for key, value in vars(mod).items():
            snapshot[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snapshot[(mod.__name__, key, attr)] = member
    return snapshot


def _recorded(name):
    with tracer.SpanRecorder() as rec:
        worker.run_set(workloads.configs(name, 0))
    return rec


def _enclosing(rec, span):
    """For every span of the given name, the set of names of its ancestors."""
    a = rec.arrays()
    out = []
    for i in np.flatnonzero(a["name"] == tracer.SPANS.index(span)):
        names, parent = set(), a["parent"][i]
        while parent >= 0:
            names.add(tracer.SPANS[a["name"][parent]])
            parent = a["parent"][parent]
        out.append(names)
    return out


@pytest.fixture(scope="module")
def t4_hodge():
    return _recorded("t4-hodge")


@pytest.fixture(scope="module")
def t4_expand():
    return _recorded("t4-expand")


@pytest.mark.parametrize("name", ["shipped", "t4-deform"])
def test_traced_and_untraced_reports_are_byte_identical(name):
    configs = workloads.configs(name, 3)
    plain = worker.run_set(configs)
    traced = worker.run_set(configs, trace=True)
    assert traced["digests"] == plain["digests"]
    assert plain["verdicts"] == workloads.expected(name)


def test_recorder_patches_every_binding_and_restores_it():
    import gentorus.calculus as calculus
    import gentorus.deformation as deformation
    import gentorus.diagnostics as diagnostics
    import gentorus.scenario as scenario

    before = _bindings()
    original = calculus.lie_derivation_dL
    svd = np.linalg.svd
    with pytest.raises(RuntimeError):
        with tracer.SpanRecorder() as rec:
            for mod in (calculus, deformation, diagnostics):
                assert mod.lie_derivation_dL is not original
            for fn in ("extend_closed_form", "hodge_number_scan", "maurer_cartan_expand",
                       "frame_block_matrices", "holomorphy_residuals"):
                assert getattr(scenario, fn) is getattr(deformation, fn)
                assert getattr(scenario, fn).__wrapped__ is not None
            assert np.linalg.svd is not svd
            assert rec.missing == []
            raise RuntimeError("leave the recorder by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_self_times_partition_the_root_spans():
    m = worker.run_set(workloads.configs("shipped", 0), trace=True)["layers"]
    roots = m["scenario.parse.s"] + m["scenario.run.s"] + m["report.serialize.s"]
    total_self = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total_self == pytest.approx(roots, rel=1e-9)
    assert m["report.bytes"] > 0 and m["fourier.mul.terms"] > 0


def test_t4_expand_never_builds_a_hodge_context(t4_expand):
    m = t4_expand.metrics()
    for name in tracer.SPANS:
        if name.startswith("hodge."):
            assert m[f"{name}.calls"] == 0, name
    # its kernel calls (the structure's frame check, one eigh per algebroid
    # mode) all sit in set-up: they move setup_s, never run_s
    for span in ("linalg.svd", "linalg.eigh"):
        assert m[f"{span}.calls"] > 0
        assert all("scenario.parse" in names for names in _enclosing(t4_expand, span))
    assert m["deformation.algebroid_init.calls"] == 1
    assert m["deformation.mc_expand.calls"] == 1
    assert m["calculus.dL.calls"] > 0
    assert m["fourier.mul.calls"] > 0


def test_t4_hodge_is_dominated_by_class_checks(t4_hodge):
    m = t4_hodge.metrics()
    assert m["calculus.dL.calls"] == 0
    assert m["deformation.algebroid_init.calls"] == 0
    assert m["hodge.class_check.calls"] == 25
    assert m["linalg.svd.calls"] > 0
    # spans that enclose the class checks are left out of the comparison
    enclosing = {"scenario.run", "diagnostics.hodge_table"}
    largest = max((n for n in tracer.SPANS if n not in enclosing), key=lambda n: m[f"{n}.s"])
    assert largest == "hodge.class_check"


def test_seed_is_written_and_leaves_shipped_verdicts_unchanged():
    for seed in (0, 7):
        configs = workloads.configs("shipped", seed)
        seeded = [exp["seed"] for config in configs for exp in config["experiments"]
                  if exp["kind"] in workloads.SEEDED_KINDS]
        assert seeded and set(seeded) == {seed}
        assert worker.run_set(configs)["verdicts"] == workloads.expected("shipped")


def test_result_line_follows_the_contract():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "shipped",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shipped",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_calibration_is_invisible_to_the_recorder_and_leaves_its_time_out():
    sampler = calibrate.Sampler()
    with tracer.SpanRecorder() as rec, sampler:
        # built while numpy.linalg is patched, as in a traced iteration
        sampler.numpy_ready()

        def busy():
            end = time.perf_counter() + 0.5
            while time.perf_counter() < end:
                pass

        t0 = time.perf_counter()
        sampler.measure("run", busy)
        elapsed = time.perf_counter() - t0
    assert rec.metrics()["linalg.svd.calls"] == 0
    assert rec.metrics()["linalg.eigh.calls"] == 0
    assert len(sampler.slowdowns()) >= 3
    # the busy loop's wall time, less the samples taken inside it
    assert 0.4 < sampler.raw["run"] < 0.5 < elapsed
    assert sampler.normalized["run"] > 0
