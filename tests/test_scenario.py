"""Scenario runner, report determinism, CLI behavior."""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gentorus.cli import main
from gentorus.report import (
    emit_report,
    report_to_csv,
    report_to_json,
    report_to_table,
)
from gentorus.scenario import (
    BLOCK_KEYS,
    CONFIG_KEYS,
    EXPERIMENT_KEYS,
    MAX_LIST_LENGTH,
    MAX_ORDER,
    MAX_SAMPLES,
    STRUCTURE_KEYS,
    Scenario,
    ScenarioError,
    _parse_key_tuple,
    exit_code_for,
    run_scenario,
)
from gentorus.structure import GCStructure

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
GOLDENS = ROOT / "tests" / "goldens"
BENCH_CONFIGS = ROOT / "perfbench" / "configs"


def minimal_config():
    return {
        "name": "mini",
        "torus": {"n": 1, "K": 1},
        "structure": {"type": "complex"},
        "metric": {"g": [[1, 0], [0, 1]]},
        "experiments": [
            {"kind": "identity-suite", "seed": 0, "samples": 10},
            {"kind": "hodge-table"},
        ],
    }


def test_minimal_scenario_passes():
    report, timings = run_scenario(minimal_config())
    assert report["summary"]["status"] == "pass"
    assert exit_code_for(report) == 0
    suite = report["experiments"][0]
    assert all(e["passed"] for e in suite["entries"])
    assert len(timings) == 2


def test_reports_byte_identical():
    a, _ = run_scenario(minimal_config())
    b, _ = run_scenario(minimal_config())
    assert report_to_json(a).encode() == report_to_json(b).encode()
    assert report_to_csv(a) == report_to_csv(b)


def test_report_round_trip():
    report, _ = run_scenario(minimal_config())
    again = json.loads(report_to_json(report))
    assert report == again
    assert again == report


def test_empty_experiment_list_is_valid():
    config = minimal_config()
    config["experiments"] = []
    report, _ = run_scenario(config)
    assert report["summary"]["status"] == "pass"
    assert report["config"]["name"] == "mini"
    assert report["experiments"] == []


def test_scan_csv_one_row_per_t_level(tmp_path):
    config = json.loads((SCENARIOS / "t2_criterion_scan.json").read_text())
    config["experiments"] = [config["experiments"][1]]  # scan only
    report, _ = run_scenario(config)
    csv_text = report_to_csv(report)
    rows = [line for line in csv_text.splitlines() if ",scan_row," in line]
    # 4 t-samples x 3 levels x 2 quantities (dimension, rank)
    assert len(rows) == 24
    table = report_to_table(report)
    assert "level" in table


def test_level_validation():
    config = minimal_config()
    config["experiments"] = [{"kind": "extend", "level": 5}]
    with pytest.raises(ScenarioError, match="level"):
        Scenario(config)


def test_bad_structure_type():
    config = minimal_config()
    config["structure"] = {"type": "hyperbolic"}
    with pytest.raises(ScenarioError, match="unknown structure type"):
        Scenario(config)


def test_truncation_error_named_mode():
    """A box too small for the driving products is an operational error
    naming the offending frequency."""
    config = {
        "name": "too-small",
        "torus": {"n": 1, "K": 1},
        "structure": {"type": "complex"},
        "deformation": {
            "coefficients": {
                "1,0": {"terms": {"0,1": {"modes": [{"k": [1, 0], "c": [0.4, 0]}]}}}
            }
        },
        "experiments": [{"kind": "extend", "level": -1, "order": 3}],
    }
    report, _ = run_scenario(config)
    exp = report["experiments"][0]
    assert exp["status"] == "error"
    assert "TruncationError" in exp["error"]
    assert "(" in exp["error"]  # the offending mode appears
    assert exit_code_for(report) == 1


def test_cli_run_and_verify(tmp_path, capsys):
    config_path = SCENARIOS / "t2_complex_identity.json"
    out_dir = tmp_path / "out"
    code = main(["run", str(config_path), "--out", str(out_dir), "--format", "json"])
    assert code == 0
    report_path = out_dir / "t2-complex-identity.json"
    assert report_path.exists()
    # golden-file comparison mode
    code = main(["verify", str(config_path), str(report_path)])
    assert code == 0
    # corrupt the golden file: verify fails
    doc = json.loads(report_path.read_text())
    doc["experiments"][0]["status"] = "fail"
    report_path.write_text(report_to_json(doc))
    code = main(["verify", str(config_path), str(report_path)])
    assert code == 1


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_scenario_verifies_against_its_golden(path, capsys):
    """Every shipped scenario reproduces its checked-in report.  A golden is
    rewritten (``gentorus run scenarios/<file> --out tests/goldens --format
    json``) only by a change meant to move its values, and CHANGES.md names
    each value that moved."""
    golden = GOLDENS / f"{json.loads(path.read_text())['name']}.json"
    assert main(["verify", str(path), str(golden)]) == 0, capsys.readouterr().err


def test_cli_emits_requested_formats(tmp_path):
    config_path = SCENARIOS / "t2_criterion_scan.json"
    out_dir = tmp_path / "multi"
    for fmt, suffix in (("csv", ".csv"), ("table", ".txt")):
        code = main(["run", str(config_path), "--out", str(out_dir), "--format", fmt])
        assert code == 0
        assert (out_dir / f"t2-criterion-scan{suffix}").exists()


def test_cli_negative_control_exit_code():
    config_path = SCENARIOS / "t4_negative_control.json"
    code = main(["run", str(config_path)])
    assert code == 2


def test_mc_negative_control_ends_as_a_finding():
    """eps = t (0.3 e^{2 pi i x0} on slot "0,2" + 0.3 e^{2 pi i x1} on slot
    "0,3") is d_L-closed, but 1/2 [eps_1, eps_1] != 0 at order (2, 0): the
    extension's Maurer-Cartan gate stops it, exit 2."""
    config = json.loads((SCENARIOS / "t4_mc_negative_control.json").read_text())
    report, _ = run_scenario(config)
    (record,) = report["experiments"]
    assert record["status"] == "finding"
    assert record["findings"] == ["deformation series fails the Maurer-Cartan equation"]
    assert record["data"]["worst_residual"] == pytest.approx(0.09 * 3.141592653589793)
    assert exit_code_for(report) == 2


@pytest.mark.parametrize(
    "experiment",
    [
        {"kind": "criterion", "t": [], "samples": 2},
        {"kind": "criterion", "t": 5, "samples": 2},
        {"kind": "extend", "level": -1, "order": 1, "t_samples": 0.1},
    ],
)
def test_cli_rejects_bad_t_lists_without_traceback(experiment, tmp_path, capsys):
    """An empty criterion t list or a scalar t / t_samples is a config error."""
    config = json.loads((SCENARIOS / "t2_criterion_scan.json").read_text())
    config["experiments"] = [experiment]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _deformation_config():
    return {
        "name": "bad-input",
        "torus": {"n": 1, "K": 1},
        "structure": {"type": "complex"},
        "deformation": {"coefficients": {"1,0": {"terms": {"0,1": 0.1}}}},
        "experiments": [{"kind": "hodge-table"}],
    }


# a deformation block whose expansion runs and passes with a valid order
_EXPANDED = {"coefficients": {"1,0": {"terms": {"0,1": 0.1}}}, "expand": True, "order": 2}


@pytest.mark.parametrize(
    "path, value",
    [
        (("torus", "n"), 0),
        (("torus", "K"), -1),
        (("torus", "policy"), "lax"),
        (
            ("deformation", "coefficients", "1,0", "terms", "0,1"),
            {"modes": [{"k": [5, 0], "c": 0.1}]},
        ),
        (("deformation", "coefficients"), {"0,0": {"terms": {"0,1": 0.1}}}),
        (("deformation", "coefficients", "1,0", "terms"), {"0,1,1": 0.1}),
        (
            ("deformation",),
            {
                "coefficients": {
                    "1,0": {"terms": {"0,1": {"modes": [{"k": [1, 0], "c": 0.1}]}}}
                },
                "expand": True,
                "order": 3,
            },
        ),
        (("experiments",), [{"kind": "criterion", "t": [0.1], "samples": -3}]),
        (("experiments",), [{"kind": "criterion", "t": [0.1], "samples": 0}]),
        (("experiments",), [{"kind": "criterion", "t": [0.1], "samples": True}]),
        (("experiments",), [{"kind": "identity-suite", "samples": 2.7}]),
        (("experiments",), [{"kind": "identity-suite", "samples": "5"}]),
        (("experiments",), [{"kind": "scan", "t_samples": [0.0, 0.1], "order": 1.9}]),
        (("experiments",), [{"kind": "scan", "t_samples": [0.0, 0.1], "order": -1}]),
        (("experiments",), [{"kind": "criterion", "t": [0.1], "samples": 2, "seed": 3.7}]),
        (("experiments",), [{"kind": "criterion", "t": [0.1], "samples": 2, "seed": -1}]),
        (("experiments",), [{"kind": "extend", "level": "x", "order": 1}]),
        (("experiments",), [{"kind": "extend", "level": -1, "sigma00": 0.5, "order": 1}]),
        (("experiments",), [{"kind": "scan", "t_samples": [0.0, 0.1], "levels": [0.5]}]),
        (("experiments",), [{"kind": "scan", "t_samples": [0.0, 0.1], "levels": 0}]),
        (("deformation",), {**_EXPANDED, "order": 1.9}),
        (("deformation",), {**_EXPANDED, "order": -1}),
        (("deformation",), {**_EXPANDED, "order": True}),
        (("torus",), 5),
        (("experiments",), 5),
        (("experiments",), [5]),
        (("experiments",), [{"kind": []}]),
        (("deformation",), 5),
        (("deformation", "coefficients"), [1]),
        (("deformation", "coefficients", "1,0"), 5),
        (("deformation", "coefficients", "1,0", "terms"), 5),
        (("deformation", "coefficients"), {"x": {"terms": {"0,1": 0.1}}}),
        (("name",), 5),
        (("output",), 5),
        (("output",), {"formats": ["pdf"]}),
        (
            ("deformation", "coefficients", "1,0", "terms", "0,1"),
            {"modes": [{"k": [1.7, 0], "c": 0.1}]},
        ),
        (
            ("deformation", "coefficients", "1,0", "terms", "0,1"),
            {"modes": [{"k": [True, 0], "c": 0.1}]},
        ),
        (("structure",), {"type": "complex", "H": [{"indices": [0, 1.5], "c": 1.0}]}),
        (("tolerances",), {"default": float("nan")}),
        (("tolerances",), {"default": float("inf")}),
        (("tolerances",), {"default": -1}),
        (("tolerances",), {"default": 0}),
        (("tolerances",), {"default": True}),
        (("tolerances",), {"default": "1e-9"}),
        (("experiments",), [{"kind": "criterion", "t": [float("nan")]}]),
        (("experiments",), [{"kind": "scan", "t_samples": [float("nan")]}]),
        (("deformation", "coefficients", "1,0", "terms", "0,1"), float("nan")),
        (("deformation", "coefficients", "1,0", "terms", "0,1"), float("inf")),
        (("experiments",), [{"kind": "criterion", "t": [float("inf")]}]),
        (("experiments",), [{"kind": "criterion", "t": [True]}]),
        (("experiments",), [{"kind": "criterion", "t": [10 ** 400]}]),
        (("experiments",), [{"kind": "criterion", "t": [[0.1, float("nan")]]}]),
    ],
    ids=[
        "n-zero", "K-negative", "policy", "mode-outside-box", "order-0,0", "slot-arity",
        "expand-escapes-box", "criterion-samples-negative", "criterion-samples-zero",
        "criterion-samples-bool", "identity-samples-fraction", "identity-samples-string",
        "scan-order-fraction", "scan-order-negative", "criterion-seed-fraction",
        "criterion-seed-negative", "extend-level-string", "extend-sigma00-fraction",
        "scan-levels-fraction", "scan-levels-scalar", "expand-order-fraction",
        "expand-order-negative", "expand-order-bool", "torus-scalar", "experiments-scalar",
        "experiment-scalar", "experiment-kind-list", "deformation-scalar", "coefficients-list",
        "coefficient-scalar", "terms-scalar", "order-key-text", "name-scalar", "output-scalar",
        "output-format", "mode-fraction", "mode-bool", "twist-index-fraction",
        "tolerance-nan", "tolerance-inf", "tolerance-negative", "tolerance-zero",
        "tolerance-bool", "tolerance-string-number", "t-nan", "t-samples-nan", "term-nan",
        "term-inf", "t-inf", "t-bool", "t-huge-int", "t-pair-nan",
    ],
)
def test_cli_rejects_bad_constructor_input_without_traceback(path, value, tmp_path, capsys):
    """Values the torus, Fourier, polynomial and series constructors refuse,
    and blocks of the wrong JSON type, are config errors: exit 1 with a
    message, no traceback."""
    config = _deformation_config()
    assert run_scenario(config)[0]["summary"]["status"] == "pass"
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_sample_t_that_overflows_the_deformation_is_a_config_error():
    """A sample t whose square overflows the second-order term is refused
    with a message naming it."""
    config = _deformation_config()
    config["deformation"]["coefficients"]["2,0"] = {"terms": {"0,1": 0.1}}
    config["experiments"] = [{"kind": "criterion", "t": [1e200]}]
    with pytest.raises(ScenarioError, match=r"sample t=1e\+200 overflows the deformation"):
        Scenario(config)


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_cli_tolerance_must_be_a_finite_positive_number(value, tmp_path, capsys):
    """``--tolerance`` is checked as ``tolerances.default`` is: a value that
    is not finite and > 0 is a config error naming it, exit 1, and no
    report is written."""
    out = tmp_path / "out"
    code = main([
        "run", str(SCENARIOS / "t2_criterion_scan.json"), "--tolerance", value,
        "--format", "json", "--out", str(out),
    ])
    assert code == 1
    assert "'tolerances.default' must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "n, K, experiments",
    [
        (3, 9, [{"kind": "hodge-table"}]), (12, 0, []), (5, 0, []),
        (4, 4, [{"kind": "hodge-table"}]), (10 ** 6, 0, []), (1, 10 ** 400, [{"kind": "scan"}]),
    ],
)
def test_oversize_config_is_refused_before_building(n, K, experiments, tmp_path, capsys):
    """A config whose largest arrays would pass the memory budget is refused
    with its estimate, exit 1, before the structure is built."""
    config = minimal_config()
    config["torus"] = {"n": n, "K": K}
    config["experiments"] = experiments
    with pytest.raises(ScenarioError, match=r"needs about .* GiB .* budget"):
        Scenario(config)
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_size_estimate_admits_t6_hodge_table_and_counts_the_twist():
    """Complex T^6 K=1, K=2 and K=3 with a hodge-table stay within the
    budget, since a hodge-table holds rank stacks and the box's modes, not
    spectra (0.03 GiB at K=3), and so does T^8 K=1 (0.3 GiB, mostly the
    structure's SVD); T^8 K=4 (8.8 GiB, mostly rank stacks and modes) is
    refused.  An identity suite at T^6 K=2, which reads
    the eigenvectors of half the box, is still refused.  The same box
    twisted counts every mode, and a config with no Hodge experiment
    counts the structure alone."""
    from gentorus.scenario import MEMORY_BUDGET, _estimated_bytes

    table, suite = ["hodge-table"], ["identity-suite"]
    for K in (1, 2, 3):
        assert _estimated_bytes(3, K, False, table) < MEMORY_BUDGET
    assert _estimated_bytes(3, 1, True, table) > _estimated_bytes(3, 1, False, table)
    assert _estimated_bytes(4, 1, False, table) < MEMORY_BUDGET
    assert _estimated_bytes(4, 4, False, table) > MEMORY_BUDGET
    assert _estimated_bytes(3, 2, False, suite) > MEMORY_BUDGET
    assert _estimated_bytes(3, 2, False, table + suite) == _estimated_bytes(3, 2, False, suite)
    assert _estimated_bytes(3, 3, False, []) == _estimated_bytes(3, 3, False, ["criterion"])
    assert _estimated_bytes(3, 3, False, []) < _estimated_bytes(3, 3, False, table)


@pytest.mark.parametrize(
    "kinds, admitted",
    [(["hodge-table"], True), (["identity-suite"], False), (["hodge-table", "scan"], False)],
)
def test_t6_k2_admits_a_hodge_table_alone(kinds, admitted):
    """The estimate takes the largest bound of the config's experiment
    kinds: complex T^6 K=2 parses with a hodge-table and is refused as soon
    as an experiment that reads every eigenvector joins it."""
    config = minimal_config()
    config["torus"] = {"n": 3, "K": 2}
    del config["metric"]
    config["experiments"] = [
        {"kind": kind, **({"seed": 0} if kind == "identity-suite" else {})} for kind in kinds
    ]
    if admitted:
        assert Scenario(config).box.K == 2
    else:
        with pytest.raises(ScenarioError, match=r"needs about .* GiB .* budget"):
            Scenario(config)


@pytest.mark.parametrize(
    "key, value",
    [("n", 1.7), ("n", True), ("n", "1"), ("n", 0), ("n", 2.0), ("K", 1.9), ("K", False),
     ("K", "2"), ("K", -1), ("K", None)],
)
def test_torus_n_and_K_must_be_integers(key, value, tmp_path, capsys):
    """torus.n (>= 1) and torus.K (>= 0) are validated like every other
    integer field: a fraction, a bool or a string is a config error, exit 1,
    not a box of the truncated size."""
    config = minimal_config()
    config["torus"][key] = value
    with pytest.raises(ScenarioError, match=f"'torus.{key}' must be an integer"):
        Scenario(config)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "path, value",
    [
        (("tolerances",), {"default": "abc"}),
        (("structure", "jcx"), "x"),
        (("structure", "H"), [{"c": 1.0}]),
        (("metric", "g"), [[10 ** 400, 0], [0, 1]]),
        (("structure", "H"), [{"indices": [0, 1], "c": 1.0}]),
        (("structure", "H"), [{"indices": [0], "c": 1.0}]),
        (("structure", "H"), [{"indices": [], "c": 1.0}]),
    ],
    ids=["tolerance-string", "jcx-string", "twist-without-indices", "g-beyond-float",
         "twist-2-form", "twist-1-form", "twist-0-form"],
)
def test_cli_rejects_malformed_blocks_without_traceback(path, value, tmp_path, capsys):
    """A value the tolerance, structure, twist or metric block cannot be
    read from is a config error, exit 1, not a traceback."""
    config = minimal_config()
    target = config
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _t4_config(twist):
    return {
        "name": "t4-twist",
        "torus": {"n": 2, "K": 1},
        "structure": {"type": "complex", "H": twist},
        "experiments": [{"kind": "hodge-table"}],
    }


@pytest.mark.parametrize(
    "indices, message",
    [
        ([0, 1], "twist must be a 3-form"),
        ([0, 1, 2, 3], "twist must be a 3-form"),
        ([0, 1, 2.5], "H 'indices' must be a list of integers"),
        ([0, 1, True], "H 'indices' must be a list of integers"),
    ],
    ids=["2-form", "4-form", "index-fraction", "index-bool"],
)
def test_twist_must_be_a_3_form_with_integer_indices(indices, message, tmp_path, capsys):
    """The closed-form Courant bracket reads H as a 3-form tensor: any other
    degree, or an index that is not an integer, is a config error, exit 1;
    it is not run as a truncated or mistyped twist."""
    config = _t4_config([{"indices": indices, "c": 1.0}])
    with pytest.raises(ScenarioError, match=message):
        Scenario(config)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # the same block with a 3-form is accepted
    assert Scenario(_t4_config([{"indices": [0, 1, 2], "c": 1.0}])).structure.twist.comps


def test_key_tuples_are_integers():
    """A slot or order key given as a list is refused, not truncated."""
    assert _parse_key_tuple([1, 0]) == (1, 0)
    assert _parse_key_tuple("0,1") == (0, 1)
    for key in ([1.7, 0], [True, 0], ["1", 0]):
        with pytest.raises(ScenarioError, match="must be a list of integers"):
            _parse_key_tuple(key)


@pytest.mark.parametrize(
    "kind", ["missing", "directory", "not-json", "not-an-object", "experiments-scalar"]
)
def test_verify_rejects_a_bad_expected_report(kind, tmp_path, capsys):
    """An expected report that is missing, unreadable, not JSON, not a JSON
    object or without an experiments list is an operational error: exit 1
    with a message."""
    expected = tmp_path / "expected.json"
    if kind == "directory":
        expected.mkdir()
    elif kind == "not-json":
        expected.write_text("{not json")
    elif kind == "not-an-object":
        expected.write_text("[1, 2]")
    elif kind == "experiments-scalar":
        expected.write_text('{"experiments": 5}')
    assert main(["verify", str(SCENARIOS / "t2_complex_identity.json"), str(expected)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_python_dash_m_verifies_a_shipped_scenario():
    """``python -m gentorus`` is the command line: it verifies a shipped
    scenario against its golden."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "gentorus", "verify",
         str(SCENARIOS / "t2_complex_identity.json"), str(GOLDENS / "t2-complex-identity.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert "verify: reports match" in done.stdout


def test_a_shipped_run_never_imports_numpy_ma():
    """A shipped identity suite, whose Clifford half groups pair products by
    mode, runs without importing ``numpy.ma``: the first ``np.unique`` call
    in a process imports it, 12-15 ms on every fresh run."""
    code = (
        "import json, sys\n"
        "from gentorus.scenario import run_scenario\n"
        f"run_scenario(json.loads(open({str(SCENARIOS / 't2_complex_identity.json')!r}).read()))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_BLOCK_FIELDS = [
    ("tolerances",), ("tolerances", "default"), ("structure",), ("structure", "type"),
    ("structure", "H"), ("structure", "jcx"), ("structure", "omega"), ("structure", "base"),
    ("structure", "B"), ("metric",), ("metric", "g"), ("metric", "b"),
    ("name",), ("output",), ("torus",), ("experiments",), ("deformation",),
    ("deformation", "coefficients"), ("deformation", "coefficients", "1,0"),
    ("deformation", "coefficients", "1,0", "terms"),
    ("deformation", "coefficients", "1,0", "terms", "0,1"),
]
_BLOCK_STRUCTURES = {
    "complex": {"type": "complex"},
    "symplectic": {"type": "symplectic", "omega": [[0, 1], [-1, 0]]},
    "b_transform": {"type": "b_transform", "base": {"type": "complex"}, "B": [[0, 0.5], [-0.5, 0]]},
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_BLOCK_STRUCTURES)), field=st.sampled_from(_BLOCK_FIELDS),
       value=_JSON)
def test_cli_exit_codes_for_arbitrary_json_in_parsed_blocks(kind, field, value):
    """Any JSON value in the name, output, torus, experiments, tolerance,
    structure, twist, metric or deformation fields runs or fails with an
    exit code in {0, 1, 2}; no exception leaves main."""
    config = {
        "name": "fuzz",
        "torus": {"n": 1, "K": 1},
        "tolerances": {"default": 1e-9},
        "structure": json.loads(json.dumps(_BLOCK_STRUCTURES[kind])),
        "metric": {"g": [[1, 0], [0, 1]]},
        "deformation": {"coefficients": {"1,0": {"terms": {"0,1": 0.1}}}},
        "experiments": [{"kind": "hodge-table"}],
    }
    target = config
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "fuzz.json"
        path.write_text(json.dumps(config))
        assert main(["run", str(path), "--out", out]) in (0, 1, 2)


def test_identity_suite_runs_on_a_K0_box():
    """A box with K = 0 holds mode 0 alone, and the Hodge checks draw their
    spinors there: the suite passes rather than escaping the box."""
    config = minimal_config()
    config["torus"]["K"] = 0
    config["experiments"] = [{"kind": "identity-suite", "seed": 0, "samples": 5}]
    report, _ = run_scenario(config)
    assert exit_code_for(report) == 0


def _sized_config(field, size):
    """A T^2 config that asks for ``size`` of ``field``."""
    config = _deformation_config()
    experiment = {
        "extend-order": {"kind": "extend", "level": -1, "order": size},
        "scan-order": {"kind": "scan", "t_samples": [0.0, 0.1], "order": size},
        "criterion-samples": {"kind": "criterion", "t": [0.1], "samples": size},
        "identity-samples": {"kind": "identity-suite", "samples": size},
        "t": {"kind": "criterion", "t": [0.1] * size, "samples": 1},
        "t_samples": {"kind": "scan", "t_samples": [0.1] * size},
        "levels": {"kind": "scan", "t_samples": [0.0, 0.1], "levels": [0] * size},
    }.get(field)
    if experiment is None:
        config["deformation"]["order"] = size
    else:
        config["experiments"] = [experiment]
    return config


@pytest.mark.parametrize(
    "field, limit",
    [
        ("deformation-order", MAX_ORDER),
        ("extend-order", MAX_ORDER),
        ("scan-order", MAX_ORDER),
        ("criterion-samples", MAX_SAMPLES),
        ("identity-samples", MAX_SAMPLES),
        ("t", MAX_LIST_LENGTH),
        ("t_samples", MAX_LIST_LENGTH),
        ("levels", MAX_LIST_LENGTH),
    ],
)
def test_config_sizes_are_bounded_before_anything_is_built(
    field, limit, tmp_path, capsys, monkeypatch
):
    """A size at its bound parses; one past it is a config error, exit 1,
    raised before the structure is built."""
    Scenario(_sized_config(field, limit))

    def refuse(*args, **kwargs):
        raise AssertionError("the structure was built before the size check")

    monkeypatch.setattr(GCStructure, "complex_structure", refuse)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_sized_config(field, limit + 1)))
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(limit) in err


def test_shipped_and_benchmark_configs_are_within_the_size_bounds():
    paths = sorted(SCENARIOS.glob("*.json")) + sorted(BENCH_CONFIGS.glob("*/*.json"))
    assert len(paths) == 14
    for path in paths:
        Scenario(json.loads(path.read_text()))


def test_criterion_accepts_complex_t_pairs():
    """t given in the schema's [re, im] form reaches the frame-block check too."""
    config = json.loads((SCENARIOS / "t2_criterion_scan.json").read_text())
    config["experiments"] = [{"kind": "criterion", "t": [[0.2, 0.1]], "samples": 2, "seed": 3}]
    report, _ = run_scenario(config)
    names = [e["name"] for e in report["experiments"][0]["entries"]]
    assert "criterion_proof_identity[t=0.2+0.1j]" in names
    assert any(name.startswith("frame_blocks_") for name in names)
    assert report["summary"]["status"] == "pass"


def _varying_criterion_config(policy, K=1):
    """T^2 with eps at mode [1, 0]: at K=1 its criterion right-hand side
    leaves the box."""
    return {
        "name": "varying-criterion",
        "torus": {"n": 1, "K": K, "policy": policy},
        "structure": {"type": "complex"},
        "deformation": {
            "coefficients": {"1,0": {"terms": {"0,1": {"modes": [{"k": [1, 0], "c": 0.3}]}}}}
        },
        "experiments": [{"kind": "criterion", "t": [0.2], "samples": 3}],
    }


@pytest.mark.parametrize(
    "constant, policy, K, samples",
    [(False, "drop", 1, 0), (True, "drop", 1, 6), (True, "strict", 1, 6), (False, "strict", 2, 6)],
    ids=["varying-drop", "constant-drop", "constant-strict", "varying-strict"],
)
def test_criterion_runs_samples_only_where_they_decide_the_verdict(
    constant, policy, K, samples, monkeypatch
):
    """A varying eps reports no sample, so under drop none is computed;
    under strict a sample may still raise, so all of them run.  Each t's
    samples go in one call."""
    import gentorus.scenario as scenario

    seen = []
    real = scenario.holomorphy_residuals

    def counted(structure, eps, sigmas, **kwargs):
        seen.append(len(sigmas))
        return real(structure, eps, sigmas, **kwargs)

    monkeypatch.setattr(scenario, "holomorphy_residuals", counted)
    config = _varying_criterion_config(policy, K)
    config["experiments"][0]["t"] = [0.2, 0.4]
    if constant:
        config["deformation"]["coefficients"]["1,0"]["terms"]["0,1"] = 0.3
    report, _ = run_scenario(config)
    assert report["summary"]["status"] == "pass"
    assert sum(seen) == samples


def test_constant_criterion_builds_each_word_matrix_once_per_transport(monkeypatch):
    """Every sample of a constant eps shares its transport's forward,
    dressing and undressing word matrices: three per transport, however
    many samples run."""
    from gentorus.deformation import Transport

    built = []
    real = Transport.word_matrix

    def counted(self, *args):
        built.append(self)
        return real(self, *args)

    monkeypatch.setattr(Transport, "word_matrix", counted)
    config = _varying_criterion_config("drop")
    config["deformation"]["coefficients"]["1,0"]["terms"]["0,1"] = 0.3
    config["experiments"][0].update(t=[0.2, 0.4], samples=4)
    report, _ = run_scenario(config)
    assert report["summary"]["status"] == "pass"
    transports = {id(tr): tr for tr in built}
    assert len(transports) == 2
    assert [sum(tr is other for tr in built) for other in transports.values()] == [3, 3]


def test_varying_criterion_computes_each_sup_norm_once(monkeypatch):
    """The norm gates and the frame blocks reuse the sup-norms computed when
    the config was parsed."""
    from gentorus.deformation import FrameMaps

    calls = []
    real = FrameMaps.sup_norm

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(FrameMaps, "sup_norm", counted)
    config = _varying_criterion_config("drop")
    config["experiments"][0]["t"] = [0.2, 0.4]
    report, _ = run_scenario(config)
    assert report["summary"]["status"] == "pass"
    assert len(calls) == 2


@pytest.mark.parametrize(
    "policy, status, error",
    [
        ("strict", "error", "TruncationError: frequency (2, 0) escapes the truncation box"),
        ("drop", "pass", None),
    ],
    ids=["strict", "drop"],
)
def test_varying_criterion_verdict_follows_the_policy(policy, status, error):
    exp = run_scenario(_varying_criterion_config(policy))[0]["experiments"][0]
    assert exp["status"] == status
    assert exp.get("error") == error
    if status == "pass":
        names = [e["name"] for e in exp["entries"]]
        assert names[0] == "criterion_norm_gate[t=0.2]"
        assert all(name.startswith("frame_blocks_") for name in names[1:])


def test_timings_sidecar_counts_class_checks_outside_the_report(tmp_path):
    """Each experiment's sidecar entry counts the class checks it decided
    and the rank stacks it computed, read from their conjugate partners or
    found on the context, and lists the passes it made; the report bytes
    are those of a run without the sidecar."""
    config = minimal_config()
    config["experiments"].append({"kind": "hodge-table"})
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "plain")]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "timed"), "--timings"]) == 0
    plain, timed = tmp_path / "plain" / "mini.json", tmp_path / "timed" / "mini.json"
    assert timed.read_bytes() == plain.read_bytes()
    assert not (tmp_path / "plain" / "mini.timings.json").exists()
    sidecar = json.loads((tmp_path / "timed" / "mini.timings.json").read_text())
    assert [t["class_checks"] for t in sidecar] == [
        # T^2, 3 levels: the identity suite builds the dbar, bc, aeppli, d
        # and del packages, whose kernel counts read 26 stacks: they rank
        # 7, dbar at levels -1 and 0, dbar del at 0, Col_0 and Row_0, which
        # are their own conjugate partners, and d's two parity blocks; 3,
        # del at levels 0 and 1 and dbar del at 1, are their partners'
        # ranks read at the conjugate orbits; 5 are zero by their levels, blocks
        # to or from a level outside [-1, 1] or a product through one (dbar
        # at -2 and 1, del at -1 and 2, dbar del at -1), of rank 0 with no
        # pass; and 11 lookups find their stack kept (a stack with an empty
        # half is that of its other half)
        {"decided": 0, "ranks_computed": 7, "ranks_mirrored": 3, "ranks_reused": 11},
        # 3 levels x 5 kinds read 14 stacks in 43 lookups and the kernel
        # counts 20 more; of the 63 only dbar del at -2 and 2 are new, and
        # both are zero by their levels.  The second table reads 61 of them from the
        # context, all but d's two parity blocks, as the level content of
        # the d kernel is kept from the first
        {"decided": 15, "ranks_computed": 0, "ranks_mirrored": 0, "ranks_reused": 61},
        {"decided": 15, "ranks_computed": 0, "ranks_mirrored": 0, "ranks_reused": 61},
    ]
    # the rank stacks each experiment computed, outside the report, one pass
    # of one chunk each, d's parity blocks last in the identity suite's;
    # each ranks the 3 modes that stand for the orbits of the complex
    # structure's 4 lattice symmetries (untwisted, a stack that is its own
    # partner ranks as many), and gives no count of the box's modes, which
    # the entry's ``modes.box`` gives.  A package's build decomposes no
    # mode, so no experiment lists a spectra pass
    ranked = [t["rank_passes"] for t in sidecar]
    assert [len(passes) for passes in ranked] == [7, 0, 0]
    assert all((p["chunk"], p["chunks"]) == (4096, 1) and "modes" not in p for p in ranked[0])
    assert all((p["group"], p["ranked"]) == (4, 3) for p in ranked[0])
    assert [(p["stack"], p["level"]) for p in ranked[0][-2:]] == [("d", 0), ("d", 1)]
    assert all("spectra_passes" not in entry for entry in sidecar)
    assert '"rank_passes"' not in timed.read_text()


def test_a_second_hodge_table_eigendecomposes_nothing_more():
    """The level content of the d kernel is found once per level basis and
    kept with its rank stacks: after an identity suite, whose packages read
    the 5 modes of the first half of complex T^2 K=1 each (25), the first table
    eigendecomposes the one mode with a d kernel, mode 0, and the second
    table none."""
    config = minimal_config()
    config["experiments"].append({"kind": "hodge-table"})
    report, timings = run_scenario(config)
    assert [e["kind"] for e in report["experiments"]] == ["identity-suite", "hodge-table", "hodge-table"]
    assert [t["modes"]["decomposed"] for t in timings] == [25, 26, 26]


def test_timings_sidecar_counts_the_modes_the_context_decomposes():
    """Each sidecar entry gives the box's modes, how many modes the
    runner's context has eigendecomposed so far and how many its rank
    passes rank, none before the context exists, decomposes or ranks.  A
    hodge-table builds no package: of the 9 untwisted T^2 modes it ranks 3,
    one per orbit of the complex structure's 4 lattice symmetries, and
    decomposes the one mode whose orbit has a d kernel, mode 0; twisted
    T^4 K=1 ranks 27 of its 81 modes and decomposes one.  An identity suite
    builds all five packages, which rank 3 modes for their kernel counts
    and decompose none, and its identities read the 5 modes of the first
    half of the box for each: 25.  The report holds no such count."""
    config = _deformation_config()
    config["experiments"] = [
        {"kind": "criterion", "t": [0.1], "samples": 1},
        {"kind": "hodge-table"},
    ]
    report, timings = run_scenario(config)
    assert [t["modes"] for t in timings] == [
        {"box": 9, "decomposed": 0, "ranked": 0},
        {"box": 9, "decomposed": 1, "ranked": 3},
    ]
    assert '"decomposed"' not in report_to_json(report)
    twisted = {
        "name": "twisted",
        "torus": {"n": 2, "K": 1},
        "structure": {"type": "complex", "H": [{"indices": [0, 1, 2], "c": [1.0, 0]}]},
        "experiments": [{"kind": "hodge-table"}],
    }
    assert run_scenario(twisted)[1][0]["modes"] == {"box": 81, "decomposed": 1, "ranked": 27}
    report, timings = run_scenario(minimal_config())
    assert timings[0]["modes"] == {"box": 9, "decomposed": 25, "ranked": 3}
    assert '"decomposed"' not in report_to_json(report)


def test_t4_deform_eigendecomposes_at_most_3000_laplacian_blocks(monkeypatch):
    """The benchmark's t4-deform config, complex T^4 K=2 with two extends
    and a scan over six deformed structures, hands ``np.linalg.eigh`` at
    most 100 matrices in process (41): a package counts its kernels from
    rank stacks, and a read decomposes only the modes it reads.  A first
    pass of each package at one mode per orbit of its structure's lattice
    symmetries made 2,876, and one over the first half of the box 10,996.
    A count is deterministic, so a regression shows here without timing."""
    import numpy as np

    config = json.loads((BENCH_CONFIGS / "t4-deform" / "t4_deform.json").read_text("utf-8"))
    matrices = []

    def counting(a, *args, _real=np.linalg.eigh, **kwargs):
        matrices.append(len(a) if np.ndim(a) > 2 else 1)
        return _real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    report, _ = run_scenario(config)
    assert [exp["status"] for exp in report["experiments"]] == ["pass", "pass", "pass"]
    assert sum(matrices) <= 100


def test_timings_sidecar_times_each_identity_suite():
    """An identity-suite entry of the sidecar gives the wall seconds of each
    of its four suites, and no other experiment has the key; the report
    holds none of it."""
    report, timings = run_scenario(minimal_config())
    suites = timings[0]["suites"]
    assert list(suites) == ["clifford", "structure", "calculus", "hodge"]
    assert all(isinstance(v, float) and v >= 0.0 for v in suites.values())
    assert sum(suites.values()) <= timings[0]["wall_time_s"]
    assert "suites" not in timings[1]
    assert '"suites"' not in report_to_json(report)
    assert '"clifford"' not in report_to_json(report)


def test_timings_sidecar_gives_the_scan_phases():
    """A scan entry of the sidecar gives its sample and extension counts and
    the wall seconds of its extension, deformed-context and image phases,
    none of which is in the report; other entries have none of these keys."""
    config = json.loads((SCENARIOS / "t2_criterion_scan.json").read_text())
    report, timings = run_scenario(config)
    criterion, scan = timings
    assert scan["samples"] == 4
    assert scan["extensions"] == 4  # T^2 harmonics at levels -1, 0, 1: 1 + 2 + 1
    assert list(scan["phases"]) == ["extension", "deformed", "image"]
    assert all(isinstance(v, float) and v >= 0.0 for v in scan["phases"].values())
    assert sum(scan["phases"].values()) <= scan["wall_time_s"]
    assert not {"samples", "extensions", "phases", "suites"} & set(criterion)
    text = report_to_json(report)
    assert '"phases"' not in text and '"extensions"' not in text


@pytest.mark.parametrize(
    "path, key",
    [((), "twist"), ((), "strucure_typo"), (("experiments", 1), "levles")],
    ids=["top-level-twist", "top-level-typo", "scan-levles"],
)
def test_unknown_config_keys_are_refused(path, key, tmp_path, capsys):
    """A key the schema does not know, at the top level or in an experiment
    of a known kind, is a config error naming the key, exit 1: it is not
    silently ignored."""
    config = json.loads((SCENARIOS / "t2_criterion_scan.json").read_text())
    target = config
    for step in path:
        target = target[step]
    target[key] = [0]
    with pytest.raises(ScenarioError, match=f"unknown (config )?key '{key}'"):
        Scenario(config)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


def _nested_config():
    """minimal_config with every nested block: a b_transform structure over
    a complex base, a deformation with a mode list, tolerances and output."""
    config = minimal_config()
    config.update(
        structure={"type": "b_transform", "base": {"type": "complex"}, "B": [[0, 0.5], [-0.5, 0]]},
        deformation={"coefficients": {"1,0": {"terms": {"0,1": {"modes": [{"k": [0, 0], "c": 0.1}]}}}}},
        tolerances={"default": 1e-9},
        output={"formats": ["json"]},
    )
    return config


# each nested block of _nested_config: its path and the keys it may hold
_NESTED_BLOCKS = {
    "torus": (("torus",), BLOCK_KEYS["torus"]),
    "structure": (("structure",), STRUCTURE_KEYS["b_transform"]),
    "base": (("structure", "base"), STRUCTURE_KEYS["complex"]),
    "metric": (("metric",), BLOCK_KEYS["metric"]),
    "deformation": (("deformation",), BLOCK_KEYS["deformation"]),
    "coefficient": (("deformation", "coefficients", "1,0"), BLOCK_KEYS["deformation coefficient"]),
    "series": (("deformation", "coefficients", "1,0", "terms", "0,1"), BLOCK_KEYS["Fourier series"]),
    "mode": (("deformation", "coefficients", "1,0", "terms", "0,1", "modes", 0),
             BLOCK_KEYS["Fourier mode"]),
    "tolerances": (("tolerances",), BLOCK_KEYS["tolerances"]),
    "output": (("output",), BLOCK_KEYS["output"]),
}


def _nested_block(config, name):
    target = config
    for step in _NESTED_BLOCKS[name][0]:
        target = target[step]
    return target


def test_the_nested_config_parses():
    """Every nested block of the fuzzed config holds known keys only."""
    Scenario(_nested_config())


@pytest.mark.parametrize("name", sorted(_NESTED_BLOCKS))
def test_unknown_nested_keys_are_refused(name, tmp_path, capsys):
    """A misspelt key in a nested block, for example
    "torus": {"n": 1, "K": 1, "polcy": "drop"}, is a config error naming
    the key, exit 1: it is not silently ignored."""
    config = _nested_config()
    _nested_block(config, name)["polcy"] = "drop"
    with pytest.raises(ScenarioError, match="unknown key 'polcy'"):
        Scenario(config)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "polcy" in err


def test_structure_keys_follow_the_type():
    """A key of another structure type is refused: an omega on a complex
    structure, a twist on a b_transform (its base carries the twist), and
    a misspelt key in a twist entry."""
    config = minimal_config()
    config["structure"] = {"type": "complex", "omega": [[0, 1], [-1, 0]]}
    with pytest.raises(ScenarioError, match="unknown key 'omega' in a 'complex' structure"):
        Scenario(config)
    config["structure"] = {"type": "b_transform", "base": {"type": "complex"},
                           "B": [[0, 0.5], [-0.5, 0]], "H": []}
    with pytest.raises(ScenarioError, match="unknown key 'H' in a 'b_transform' structure"):
        Scenario(config)
    config = json.loads((SCENARIOS / "t4_negative_control.json").read_text())
    config["structure"]["H"] = [{"indices": [0, 1, 2], "c": 1.0, "cc": 2.0}]
    with pytest.raises(ScenarioError, match="unknown key 'cc' in the H entry block"):
        Scenario(config)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from([None] + sorted(EXPERIMENT_KEYS) + sorted(_NESTED_BLOCKS)),
    key=st.text(max_size=6),
    value=_JSON,
)
def test_any_unknown_key_exits_1(kind, key, value, tmp_path_factory):
    """Any key outside the closed set, at the top level (kind None), in an
    experiment of a known kind or in a nested block, ends the run with
    exit 1 whatever its value."""
    config = _nested_config()
    if kind is None:
        assume(key not in CONFIG_KEYS)
        config[key] = value
    elif kind in EXPERIMENT_KEYS:
        assume(key not in ("kind",) + EXPERIMENT_KEYS[kind])
        config["experiments"] = [{"kind": kind, key: value}]
    else:
        assume(key not in _NESTED_BLOCKS[kind][1])
        _nested_block(config, kind)[key] = value
    path = tmp_path_factory.mktemp("unknown") / "bad.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path)]) == 1


@pytest.mark.parametrize(
    "path",
    sorted(SCENARIOS.glob("*.json")) + sorted(BENCH_CONFIGS.glob("**/*.json")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_every_shipped_config_parses(path):
    """Every shipped scenario and benchmark config uses only known keys."""
    Scenario(json.loads(path.read_text()))


def test_emit_report_identical_bytes(tmp_path):
    report, timings = run_scenario(minimal_config())
    p1 = emit_report(report, tmp_path / "a", formats=["json", "csv", "table"])
    p2 = emit_report(report, tmp_path / "b", formats=["json", "csv", "table"])
    for a, b in zip(p1, p2):
        assert a.read_bytes() == b.read_bytes()


def test_expand_deformation_through_runner():
    """First-order data is completed by the integrability recursion before
    the experiments run; varying deformations go through the norm gate."""
    # drop policy: the high-order criterion products overflow the box and
    # are accounted rather than fatal (diagnostics regime)
    config = {
        "name": "expand",
        "torus": {"n": 2, "K": 3, "policy": "drop"},
        "structure": {"type": "complex"},
        "deformation": {
            "coefficients": {
                "1,0": {"terms": {"0,2": {"modes": [{"k": [1, 0, 0, 0], "c": [0.3, 0]}]}}},
                "0,1": {"terms": {"0,3": {"modes": [{"k": [0, 1, 0, 0], "c": [0.25, 0]}]}}},
            },
            "expand": True,
            "order": 3,
        },
        "experiments": [
            {"kind": "criterion", "t": [0.3], "samples": 3, "seed": 5},
        ],
    }
    report, _ = run_scenario(config)
    assert report["summary"]["status"] == "pass"
    entries = {e["name"]: e for e in report["experiments"][0]["entries"]}
    gate = entries["criterion_norm_gate[t=0.3]"]
    assert 0 < gate["value"] < 1.0
    # the recursion generated a genuine mixed-order coefficient
    scenario = Scenario(config)
    assert (1, 1) in scenario.series.coefficients


def test_scan_levels_subset():
    config = json.loads((SCENARIOS / "t2_criterion_scan.json").read_text())
    config["experiments"] = [
        {"kind": "scan", "t_samples": [0.0, 0.1], "levels": [-1, 1], "order": 1}
    ]
    report, _ = run_scenario(config)
    rows = report["experiments"][0]["tables"]["rows"]
    assert {r["level"] for r in rows} == {-1, 1}
    assert report["summary"]["status"] == "pass"


def test_b_transform_structure_through_config():
    config = {
        "name": "sheared",
        "torus": {"n": 1, "K": 1},
        "structure": {
            "type": "b_transform",
            "base": {"type": "complex"},
            "B": [[0, 0.6], [-0.6, 0]],
        },
        "metric": {"g": [[1, 0], [0, 1]], "b": [[0, 0.6], [-0.6, 0]]},
        "experiments": [{"kind": "hodge-table"}],
    }
    report, _ = run_scenario(config)
    assert report["summary"]["status"] == "pass"
    dims = report["experiments"][0]["tables"]["kernel_dimensions"]["dbar"]
    assert dims == {"-1": 1, "0": 2, "1": 1}


def test_twisted_structure_reports_finding():
    """A twisted background genuinely fails solvability classes: the run
    surfaces it as a mathematical finding with exit code 2."""
    config = {
        "name": "twisted",
        "torus": {"n": 2, "K": 1},
        "structure": {"type": "complex", "H": [{"indices": [0, 1, 2], "c": [1.0, 0]}]},
        "experiments": [{"kind": "hodge-table"}],
    }
    report, _ = run_scenario(config)
    exp = report["experiments"][0]
    assert exp["status"] == "finding"
    assert any("class check" in f for f in exp["findings"])
    assert exit_code_for(report) == 2
    dims = exp["tables"]["kernel_dimensions"]["dbar"]
    assert dims == {"-2": 1, "-1": 3, "0": 4, "1": 3, "2": 1}


def test_fail_fast_stops_early():
    config = {
        "name": "ff",
        "torus": {"n": 1, "K": 1},
        "structure": {"type": "complex"},
        "deformation": {
            "coefficients": {
                "1,0": {"terms": {"0,1": {"modes": [{"k": [1, 0], "c": [0.4, 0]}]}}}
            }
        },
        "experiments": [
            {"kind": "extend", "level": -1, "order": 3},  # truncation error
            {"kind": "hodge-table"},
        ],
    }
    full, _ = run_scenario(config)
    assert len(full["experiments"]) == 2
    stopped, _ = run_scenario(config, fail_fast=True)
    assert len(stopped["experiments"]) == 1


@pytest.mark.parametrize(
    "t_samples", [[0.05], [0.05, 0.05], [0, 0.05, 0.1]], ids=["one", "repeated", "zero"]
)
def test_extend_refuses_a_decay_fit_it_cannot_make(t_samples, capfd):
    """The decay exponent is the slope of log residual against log |t|.  With
    fewer than two distinct nonzero |t|, or a t = 0, the first extend of
    ``t2_deformation`` is an error naming the samples, with no warning and
    nothing from LAPACK on stderr.  (It was a false fail for one sample, the
    same with a RankWarning for a repeated one, and ``LinAlgError: SVD did
    not converge`` with DLASCL lines for a zero.)"""
    config = json.loads((SCENARIOS / "t2_deformation.json").read_text())
    config["experiments"] = [dict(config["experiments"][0], t_samples=t_samples)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, _ = run_scenario(config)
    (record,) = report["experiments"]
    assert record["status"] == "error" and exit_code_for(report) == 1
    assert record["error"] == (
        f"ScenarioError: t_samples {t_samples}: the decay-exponent fit needs "
        "two distinct nonzero |t| and no t = 0"
    )
    assert capfd.readouterr().err == ""


def test_report_digests_tool_hashes_the_canonical_report():
    """``tools/report_digests.py`` names every shipped scenario and every
    benchmark config at seeds 0 and 1, and the digest it prints for a
    scenario is the sha256 of the golden report, byte for byte."""
    import hashlib
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    names = [name for name, _ in tool.configs()]
    assert names[:len(list(SCENARIOS.glob("*.json")))] == [
        f"scenarios/{p.name}" for p in sorted(SCENARIOS.glob("*.json"))
    ]
    assert "perfbench/configs/t4-hodge/t4_hodge.json@seed1" in names
    path = SCENARIOS / "t2_complex_identity.json"
    golden = GOLDENS / "t2-complex-identity.json"
    assert tool.digest(json.loads(path.read_text())) == hashlib.sha256(golden.read_bytes()).hexdigest()


def test_report_digests_tool_compares_against_a_saved_file(tmp_path, capsys, monkeypatch):
    """``tools/report_digests.py --against FILE`` prints the digests as
    without it and exits 0 when FILE holds each of them, and otherwise
    exits 1 and names on stderr every config whose digest differs from
    FILE's or is missing from it, and no other."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "report_digests", ROOT / "tools" / "report_digests.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    shipped = [(f"scenarios/{p.name}", json.loads(p.read_text())) for p in sorted(SCENARIOS.glob("*.json"))][:3]
    monkeypatch.setattr(tool, "configs", lambda: iter(shipped))
    assert tool.main([]) == 0
    printed = capsys.readouterr().out
    saved = tmp_path / "digests.txt"
    saved.write_text(printed)
    assert tool.main(["--against", str(saved)]) == 0
    out, err = capsys.readouterr()
    assert out == printed and err == ""
    second, third = shipped[1][0], shipped[2][0]
    lines = printed.splitlines()
    saved.write_text("\n".join([lines[0], f"{second} {'0' * 64}"]) + "\n")
    assert tool.main(["--against", str(saved)]) == 1
    out, err = capsys.readouterr()
    assert out == printed
    assert err.splitlines() == [f"{second}: differs from {saved}", f"{third}: missing from {saved}"]


def test_hodge_peaks_tool_estimate_covers_the_traced_peak(capsys):
    """``tools/hodge_peaks.py`` runs a complex hodge-table on T^4 K=1 and
    K=2 in a fresh interpreter each; the admission estimate is at least the
    tracemalloc peak of ``hodge_table``, and the printed table has one row
    per case."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("hodge_peaks", ROOT / "tools" / "hodge_peaks.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for K in (1, 2):
        m = tool.measure(2, K)
        assert (m["n"], m["K"]) == (2, K)
        assert 0 < m["peak_bytes"] <= m["estimate_bytes"]
        assert m["peak_bytes"] < m["max_rss_bytes"]
    assert tool.main(["--case", "2", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2 and rows[1].startswith("T^4 K=1")
