"""The stacked Hodge-number scan against the per-extension loop it replaced.

``loop_scan`` below is the scan as it was before its images were stacked:
for each sample t and level, every extended harmonic is summed at t as a
spinor, undressed and transported by the spinor maps, projected by the
deformed dbar package, and paired with each deformed harmonic by
``bi_inner``.  The stacked scan must report the same dimensions and
injectivity ranks, and the Gram matrices it ranks must agree with the
loop's to 1e-12 relative.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gentorus import deformation
from gentorus.deformation import DeformedStructure, extend_closed_form, hodge_number_scan
from gentorus.hodge import HodgeContext, _rank
from gentorus.scenario import Scenario, run_scenario

ROOT = Path(__file__).resolve().parent.parent


def loop_scan(context, series, t_samples, levels=None, order=2, tol=1e-9):
    """Per sample, the dims, injectivity ranks and Gram matrices by the
    per-extension loop."""
    structure = context.structure
    if levels is None:
        levels = list(structure.levels())
    pk = context.package("dbar")
    base_dims = {k: pk.kernel_dimension(k) for k in levels}
    extensions = {
        k: [
            extend_closed_form(context, series, sig, order, variant="standard", tol=tol)
            for sig in pk.harmonic_basis(k)
        ]
        for k in levels
    }
    rows = []
    for t in t_samples:
        t = complex(t)
        eps_t = series.eps_at(t)
        if eps_t.is_zero():
            rows.append({"dims": dict(base_dims), "injectivity_rank": dict(base_dims), "grams": {}})
            continue
        ds = DeformedStructure(structure, eps_t)
        ctx_t = ds.context
        pk_t = ctx_t.package("dbar")
        transport = ds.transport
        ranks, grams = {}, {}
        for k in levels:
            harm_basis = pk_t.harmonic_basis(k)
            images = []
            for ext in extensions[k]:
                sigma_t = transport.undress(ext.dressed_at(t))
                image = pk_t.harmonic(transport.forward(sigma_t))
                images.append([ctx_t.metric.bi_inner(image, h) for h in harm_basis])
            if images and harm_basis:
                grams[k] = np.asarray(images, dtype=complex)
                ranks[k] = int(_rank(grams[k]))
            else:
                ranks[k] = 0
        dims = {k: pk_t.kernel_dimension(k) for k in levels}
        rows.append({"dims": dims, "injectivity_rank": ranks, "grams": grams})
    return rows


def _config(path):
    return json.loads((ROOT / path).read_text())


def _twisted_t4():
    return {
        "name": "twisted-t4",
        "torus": {"n": 2, "K": 1},
        "structure": {"type": "complex", "H": [{"indices": [0, 1, 2], "c": 1.0}]},
        "deformation": {"coefficients": {"1,0": {"terms": {"0,2": [0.3, 0]}}}},
        "experiments": [],
    }


CASES = {
    "t4-deform": (
        lambda: _config("perfbench/configs/t4-deform/t4_deform.json"),
        [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 0.7], None,
    ),
    "t2-criterion-scan": (
        lambda: _config("scenarios/t2_criterion_scan.json"), [0.0, 0.05, 0.1, 0.15], None,
    ),
    # h = {1, 3, 4, 3, 1}; the twist breaks the class conditions at levels
    # -2, 0 and 1, so the extensions exist only at -1 and 2
    "twisted-t4-levels": (_twisted_t4, [0.0, 0.1, 0.2, 0.5], [-1, 2]),
    "t4-deform-levels": (
        lambda: _config("perfbench/configs/t4-deform/t4_deform.json"), [0.0, 0.3], [0, -2],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_scan_matches_the_per_extension_loop(case, monkeypatch):
    """The scan's dims, the lengths of the harmonic bases it reads, are the
    dbar packages' kernel dimensions, undeformed and at every sample, and
    its injectivity ranks and Gram matrices are the loop's."""
    make, t_samples, levels = CASES[case]
    scenario = Scenario(make())
    context = HodgeContext(scenario.structure, scenario.metric)
    grams = []

    def recorded_rank(mats, floor=0.0):
        grams.append(mats)
        return _rank(mats, floor)

    monkeypatch.setattr(deformation, "_rank", recorded_rank)
    report = hodge_number_scan(context, scenario.series, t_samples, levels=levels)
    monkeypatch.undo()
    want = loop_scan(context, scenario.series, t_samples, levels=levels)

    pk = context.package("dbar")
    assert report["base_dims"] == {k: pk.kernel_dimension(k) for k in report["levels"]}
    assert [row["dims"] for row in report["rows"]] == [row["dims"] for row in want]
    assert [row["injectivity_rank"] for row in report["rows"]] == [
        row["injectivity_rank"] for row in want
    ]
    want_grams = [gram for row in want for gram in row["grams"].values()]
    assert len(grams) == len(want_grams) > 0
    for got, ref in zip(grams, want_grams):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())



def test_scan_finding_names_the_level_being_extended():
    """On twisted complex T^4 the level -2 harmonics cannot be extended (the
    class check S_upper fails at level -1): the finding names the level
    whose harmonics were being extended as well as the failed check."""
    config = _twisted_t4()
    config["experiments"] = [{"kind": "scan", "t_samples": [0.1]}]
    report, _ = run_scenario(config)
    (record,) = report["experiments"]
    assert record["status"] == "finding"
    assert record["findings"] == [
        "extending the level -2 harmonics: class condition S_upper fails at level -1"
    ]


def test_scan_labels_a_real_sample_by_its_value():
    """A negative real t is reported as itself, as the criterion labels it,
    not as its absolute value."""
    config = _config("scenarios/t2_criterion_scan.json")
    config["experiments"] = [{"kind": "scan", "t_samples": [-0.1, 0.1, 0.0], "order": 2}]
    report, _ = run_scenario(config)
    rows = report["experiments"][0]["tables"]["rows"]
    assert [row["t"] for row in rows] == [-0.1] * 3 + [0.1] * 3 + [0.0] * 3
