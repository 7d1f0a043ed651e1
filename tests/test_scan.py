"""The stacked Hodge-number scan against the per-extension loop it replaced.

``loop_scan`` below is the scan as it was before its images were stacked:
for each sample t and level, every extended harmonic is summed at t as a
spinor, undressed and transported by the spinor maps, projected by the
deformed dbar package, and paired with each deformed harmonic by
``bi_inner``.  The stacked scan must report the same dimensions and
injectivity ranks, and the Gram matrices it ranks must agree with the
loop's to 1e-12 relative.  The scan extends each level's harmonics as one
batch (``extend_closed_forms``), which must equal ``extend_closed_form``
seed by seed, and raise the error that the loop over the seeds raises.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gentorus import deformation, hodge
from gentorus.deformation import (
    DeformedStructure,
    extend_closed_form,
    extend_closed_forms,
    hodge_number_scan,
)
from gentorus.fourier import FourierMatrix
from gentorus.hodge import HodgeContext, ObstructionError, _rank
from gentorus.scenario import Scenario, run_scenario
from gentorus.spinor import Spinor

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


def _fourier_twisted_t4():
    """Twisted T^4 K=2 under a first-order eps with one nonzero Fourier
    mode: its level -1 harmonics pick up (1, 0) and (2, 0) terms, and the
    twist breaks the class conditions of levels -2, 0 and 1."""
    config = _twisted_t4()
    config["torus"]["K"] = 2
    config["deformation"] = {
        "coefficients": {"1,0": {"terms": {"0,2": {"modes": [{"k": [1, 0, 0, 0], "c": 0.3}]}}}}
    }
    return config


# the scan cases at their levels, all levels when None, and the Fourier eps
BATCH_CASES = {
    **{name: (make, levels) for name, (make, _, levels) in CASES.items()},
    "twisted-t4-fourier-eps": (_fourier_twisted_t4, None),
}


def _column(stack, e):
    """Column e of a batch's coefficient stack, as a spinor."""
    return Spinor.from_stack(FourierMatrix(stack.geometry, stack.box, stack.modes, stack.coeffs[:, :, e:e + 1]))


def _outcome(call):
    """What a call returns and the ValueError it raises, one of them None."""
    try:
        return call(), None
    except ValueError as err:
        return None, err


@pytest.mark.parametrize("variant", ["standard", "h_vanishing"])
@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_extensions_equal_the_per_seed_extensions(case, variant):
    """Each level's harmonic basis extended as one batch: its coefficients
    equal the per-seed extensions to 1e-12 relative, column by column,
    with the same residual keys, scales to 1e-12, residual verdicts and
    class checks; where the loop over the seeds raises, the batch raises
    that error, the same type, message and data."""
    make, levels = BATCH_CASES[case]
    scenario = Scenario(make())
    context = HodgeContext(scenario.structure, scenario.metric)
    series, pk, tol = scenario.series, context.package("dbar"), 1e-9
    solved, raised, orders = 0, [], set()
    for k in levels or list(scenario.structure.levels()):
        seeds = pk.harmonic_basis(k)
        if not seeds:
            continue
        singles, want = _outcome(
            lambda: [extend_closed_form(context, series, sigma, 2, variant) for sigma in seeds]
        )
        batch, got = _outcome(lambda: extend_closed_forms(context, series, seeds, 2, variant))
        if want is not None:
            assert got is not None and type(got) is type(want)
            assert (str(got), getattr(got, "data", None)) == (str(want), getattr(want, "data", None))
            raised.append(k)
            continue
        assert got is None
        assert batch.level == k
        orders.update(batch.coefficients)
        for e, single in enumerate(singles):
            assert batch.class_checks == single.class_checks
            assert list(batch.residuals[e]) == list(single.residuals)
            for key, ref in single.residuals.items():
                res = batch.residuals[e][key]
                assert list(res) == list(ref)
                assert res["scale"] == pytest.approx(ref["scale"], rel=1e-12)
                for name in ("equation", "lowering"):
                    assert np.isnan(res[name]) == np.isnan(ref[name])
                    assert (res[name] <= tol * res["scale"]) == (ref[name] <= tol * ref["scale"])
            zero = Spinor.zero(context.geometry, context.box)
            for key in set(batch.coefficients) | set(single.coefficients):
                ref = single.coefficients.get(key, zero)
                col = _column(batch.coefficients[key], e) if key in batch.coefficients else zero
                assert (col - ref).norm() <= 1e-12 * max(1.0, ref.norm())
            solved += 1
    assert solved > 0
    if case == "twisted-t4-fourier-eps":
        # the level -1 seeds pick up (1, 0) and (2, 0); standard extends
        # only the levels whose class conditions hold
        assert sorted(orders) == [(0, 0), (1, 0), (2, 0)]
        assert raised == ([-2, 0, 1] if variant == "standard" else [1])
    else:
        assert not raised


def test_an_obstructed_batch_raises_the_per_seed_loops_error():
    """A batch whose second seed mixes levels and whose first is not
    harmonic: the batch fails on the second seed's level first, and is
    extended again one seed at a time, so it raises the first seed's
    error, as the loop over the seeds does."""
    scenario = Scenario(_config("perfbench/configs/t4-deform/t4_deform.json"))
    context = HodgeContext(scenario.structure, scenario.metric)
    harmonics = context.package("dbar").harmonic_basis(0)
    lb = context.level_basis
    coords = np.zeros((1, lb.size), dtype=complex)
    coords[0, lb.level(0)] = 1.0
    not_harmonic = lb.spinor(lb.modes[5:6], coords)
    mixed = harmonics[1].add(context.package("dbar").harmonic_basis(1)[0])
    seeds = [not_harmonic, mixed, harmonics[2]]
    _, want = _outcome(lambda: [extend_closed_form(context, scenario.series, sigma, 2) for sigma in seeds])
    assert isinstance(want, ObstructionError) and "not harmonic" in str(want)
    _, got = _outcome(lambda: extend_closed_forms(context, scenario.series, seeds, 2))
    assert type(got) is ObstructionError
    assert (str(got), got.data) == (str(want), want.data)


def test_scan_extends_each_level_once_and_projects_each_sample_once(monkeypatch):
    """On t4-deform the scan makes one extension solve per level that has
    harmonics (5, holding 1, 4, 6, 4 and 1 seeds), not one per harmonic,
    and one Hodge apply on the deformed side per nonzero sample."""
    scenario = Scenario(_config("perfbench/configs/t4-deform/t4_deform.json"))
    context = HodgeContext(scenario.structure, scenario.metric)
    solves, applies = [], []
    real_solve, real_apply = deformation._extend_batch, hodge._ModeSpectra.apply

    def solve(context, series, seeds, *args):
        solves.append(len(seeds))
        return real_solve(context, series, seeds, *args)

    def apply(self, index, coords, weights):
        if self.level_basis is not context.level_basis:
            applies.append(len(index))
        return real_apply(self, index, coords, weights)

    monkeypatch.setattr(deformation, "_extend_batch", solve)
    monkeypatch.setattr(hodge._ModeSpectra, "apply", apply)
    report = hodge_number_scan(context, scenario.series, [0.0, 0.05, 0.1, 0.3])
    assert solves == [1, 4, 6, 4, 1]
    assert report["extensions"] == 16
    assert len(applies) == 3
