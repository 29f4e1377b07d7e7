import dataclasses
import json
from math import nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critgyro.curves as curves_module
import critgyro.spectrum as spectrum
from conftest import make_logistic_curve
from critgyro.curves import (
    CATALOG_VERSION,
    CurveCatalog,
    ResonanceCurve,
    catalog_build,
    catalog_load,
    catalog_save,
    compute_curve,
    curve_diagnostics,
    lookup_by_width,
)
from critgyro.errors import ParameterError, StaleCatalogError
from critgyro.fock import enumerate_basis
from critgyro.melem import ElementCache
from critgyro.observables import critical_frequency, transition_width


def test_from_values_validation():
    with pytest.raises(ParameterError):
        ResonanceCurve.from_values(0.5, 0.04, [0.1, 0.1, 0.2], [1, 1, 0])
    with pytest.raises(ParameterError):
        ResonanceCurve.from_values(0.5, 0.04, [0.1, 0.2], [1.0, -0.2])


def test_metadata_matches_recomputation():
    curve = make_logistic_curve(width=0.03)
    assert curve.center == pytest.approx(
        critical_frequency(curve.omega, curve.p0), abs=1e-12
    )
    assert curve.width == pytest.approx(
        transition_width(curve.omega, curve.p0), abs=1e-9
    )
    assert curve.width == pytest.approx(0.03, rel=2e-2)


def test_flat_extension_evaluate():
    curve = make_logistic_curve(center=0.9, width=0.02)
    left = curve.evaluate(curve.omega[0] - 1.0)
    right = curve.evaluate(curve.omega[-1] + 1.0)
    assert left == curve.p0[0]
    assert right == curve.p0[-1]


def test_catalog_rejects_duplicates_and_flat_curves():
    c1 = make_logistic_curve(width=0.02)
    with pytest.raises(ParameterError):
        CurveCatalog(curves=(c1, c1))
    flat = ResonanceCurve.from_values(
        0.5, 0.0, np.linspace(0, 1, 11), np.full(11, 0.8)
    )
    with pytest.raises(ParameterError):
        CurveCatalog(curves=(flat,))


def test_catalog_sorted_by_width():
    curves = tuple(
        make_logistic_curve(anisotropy=a, width=w)
        for a, w in [(0.04, 0.05), (0.02, 0.01), (0.03, 0.03)]
    )
    cat = CurveCatalog(curves=curves)
    widths = [c.width for c in cat.curves]
    assert widths == sorted(widths)
    assert cat.widest().width == max(widths)


def test_lookup_by_width_rules():
    narrow = make_logistic_curve(anisotropy=0.01, width=0.01)
    wide = make_logistic_curve(anisotropy=0.04, width=0.05)
    cat = CurveCatalog(curves=(narrow, wide))
    assert lookup_by_width(cat, 1e-4) is cat.curves[0]
    assert lookup_by_width(cat, 10.0) is cat.curves[1]
    assert lookup_by_width(cat, narrow.width) is cat.curves[0]
    single = CurveCatalog(curves=(wide,))
    assert lookup_by_width(single, 1e-6) is single.curves[0]


def test_lookup_tie_prefers_steeper():
    a = make_logistic_curve(anisotropy=0.01, width=0.02)
    b = make_logistic_curve(anisotropy=0.02, width=0.04)
    cat = CurveCatalog(curves=(a, b))
    target = (a.width + b.width) / 2
    assert lookup_by_width(cat, target) is min(cat.curves, key=lambda c: c.width)


def test_catalog_roundtrip_is_bit_exact(tmp_path):
    curves = tuple(
        make_logistic_curve(anisotropy=a, width=w)
        for a, w in [(0.04, 0.05), (0.02, 0.012)]
    )
    cat = CurveCatalog(curves=curves, provenance={"version": "x"})
    path = tmp_path / "catalog.json"
    catalog_save(cat, path)
    loaded = catalog_load(path)
    assert len(loaded.curves) == len(cat.curves)
    for a, b in zip(cat.curves, loaded.curves):
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.p0, b.p0)
        assert a.center == b.center
        assert a.width == b.width


def test_catalog_load_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(StaleCatalogError):
        catalog_load(missing)
    empty = tmp_path / "empty.json"
    empty.write_text("")
    with pytest.raises(StaleCatalogError):
        catalog_load(empty)
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"version": "other", "curves": []}))
    with pytest.raises(StaleCatalogError):
        catalog_load(wrong)


def _payload(drop=None, **changes):
    """A saved one-curve catalog, with an entry field dropped or changed."""
    curve = make_logistic_curve(width=0.02, points=41)
    entry = {"g": curve.g, "anisotropy": curve.anisotropy,
             "omega": curve.omega.tolist(), "p0": curve.p0.tolist(),
             "center": curve.center, "width": curve.width, **changes}
    entry.pop(drop, None)
    return {"version": CATALOG_VERSION, "curves": [entry]}


_FIELDS = st.sampled_from(["g", "anisotropy", "omega", "p0"])
_JUNK = st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_MALFORMED = st.one_of(
    _JUNK,
    st.just({"version": CATALOG_VERSION}),
    _JUNK.filter(lambda j: j != []).map(lambda j: {"version": CATALOG_VERSION, "curves": j}),
    _JUNK.map(lambda j: {"version": CATALOG_VERSION, "curves": [j]}),
    _FIELDS.map(lambda field: _payload(drop=field)),
    st.tuples(_FIELDS, _JUNK).map(lambda fj: _payload(**{fj[0]: fj[1]})),
)


@settings(max_examples=60, deadline=None)
@given(payload=_MALFORMED)
def test_catalog_load_fails_closed_on_malformed_payloads(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("bad") / "catalog.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(StaleCatalogError):
        catalog_load(path)


def test_catalog_load_accepts_the_unmodified_payload(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(_payload()))
    assert len(catalog_load(path).curves) == 1


def test_catalog_load_detects_tampered_metadata(tmp_path):
    cat = CurveCatalog(curves=(make_logistic_curve(width=0.02),))
    path = tmp_path / "catalog.json"
    catalog_save(cat, path)
    payload = json.loads(path.read_text())
    payload["curves"][0]["width"] *= 1.5
    path.write_text(json.dumps(payload))
    with pytest.raises(StaleCatalogError):
        catalog_load(path)


def test_catalog_build_requires_pairs(system6):
    basis, cache = system6
    with pytest.raises(ParameterError):
        catalog_build(basis, cache, pairs=[])


# ---------------------------------------------------------------------------
# physical curves (shared session catalog keeps eigensolve cost bounded)
# ---------------------------------------------------------------------------

def test_compute_curve_deterministic(system6):
    basis, cache = system6
    grid = np.linspace(0.885, 0.905, 31)
    c1 = compute_curve(basis, cache, 0.5, 0.02, grid=grid)
    c2 = compute_curve(basis, cache, 0.5, 0.02, grid=grid)
    assert np.array_equal(c1.p0, c2.p0)
    assert np.array_equal(c1.omega, c2.omega)


def test_zero_anisotropy_keeps_the_condensate(system6):
    """Without the deformation the sectors never mix, so the adiabatic
    sweep stays on the zero-momentum branch and the likelihood stays high
    across the whole scan (no vortex nucleation pathway)."""
    basis, cache = system6
    grid = np.linspace(0.80, 0.97, 35)
    curve = compute_curve(basis, cache, 0.5, 0.0, grid=grid)
    assert curve.center is None
    assert curve.width is None
    assert curve.p0.min() > 0.9


def test_default_catalog_properties(catalog_default):
    widths = [c.width for c in catalog_default.curves]
    assert all(w > 0 for w in widths)
    assert widths == sorted(widths)
    keys = {c.key for c in catalog_default.curves}
    assert (0.5, 0.04) in keys and (0.6, 0.025) in keys
    # a usable tuning ladder: widths span more than a decade
    assert max(widths) / min(widths) > 8


def test_default_catalog_curve_invariants(catalog_default):
    for c in catalog_default.curves:
        assert (np.diff(c.omega) > 0).all()
        assert c.p0.min() >= 0.0 and c.p0.max() <= 1.0
        assert c.width == pytest.approx(
            transition_width(c.omega, c.p0), abs=1e-9
        )
        assert c.center == pytest.approx(
            critical_frequency(c.omega, c.p0), abs=1e-9
        )


def test_curve_diagnostics_shapes(system6, catalog_default):
    basis, cache = system6
    curve = catalog_default.find(0.5, 0.02)
    sub = ResonanceCurve.from_values(
        curve.g, curve.anisotropy, curve.omega[::40], curve.p0[::40]
    )
    diag = curve_diagnostics(basis, cache, sub)
    n = len(sub.omega)
    assert diag.gap.shape == (n,)
    assert (diag.gap > 0).all()
    assert diag.lam1.shape == (n,)
    assert (diag.lam1 >= diag.lam2 - 1e-12).all()
    assert diag.exp_L.min() > -0.5 and diag.exp_L.max() < 8.5
    assert np.allclose(diag.spdm_trace, 6.0, atol=1e-10)


def test_curve_sweeps_only_the_condensate_sector(system6, monkeypatch):
    basis, cache = system6
    dims = []
    real = spectrum.sweep_lowest

    def recording(h0_dense, *args, **kwargs):
        dims.append(h0_dense.shape[0])
        return real(h0_dense, *args, **kwargs)

    monkeypatch.setattr(spectrum, "sweep_lowest", recording)
    compute_curve(basis, cache, 0.5, 0.04, grid=[0.85, 0.88])
    assert dims == [int(np.sum(basis.L % 2 == 0))] == [191]


def test_diagnostics_gap_stays_in_the_condensate_sector(system6):
    # at Omega = 0.75 the lowest excitation of the whole spectrum is odd-L
    # (gap 0.2490) and never couples to the condensate
    basis, cache = system6
    curve = compute_curve(basis, cache, 0.5, 0.04, grid=[0.75, 0.85, 0.88])
    diag = curve_diagnostics(basis, cache, curve)
    assert np.allclose(diag.gap, [0.3253, 0.1288, 0.0746], atol=5e-5)


def test_diagnostics_reuse_the_curve_sweep(system6, monkeypatch):
    basis, cache = system6
    sweeps = []
    real = spectrum.sweep_lowest

    def counting(*args, **kwargs):
        sweeps.append(1)
        # the kept sweep is released before a new one allocates
        assert curves_module._last_sweep is None
        return real(*args, **kwargs)

    monkeypatch.setattr(spectrum, "sweep_lowest", counting)
    grid = np.linspace(0.86, 0.92, 13)
    curve = compute_curve(basis, cache, 0.5, 0.04, grid=grid)
    diag = curve_diagnostics(basis, cache, curve)
    assert len(sweeps) == 1
    # a curve never reuses a sweep; another grid or pair sweeps again
    assert np.array_equal(compute_curve(basis, cache, 0.5, 0.04, grid=grid).p0, curve.p0)
    assert len(sweeps) == 2
    curve_diagnostics(basis, cache, ResonanceCurve.from_values(
        0.5, 0.04, grid[:-1], curve.p0[:-1]))
    assert len(sweeps) == 3
    curve_diagnostics(basis, cache, ResonanceCurve.from_values(
        0.5, 0.032, grid, curve.p0))
    assert len(sweeps) == 4
    # the reused sweep gives what a fresh basis and cache compute
    fresh_basis = enumerate_basis(6, 2, 8)
    fresh = curve_diagnostics(fresh_basis, ElementCache.build(fresh_basis.modes), curve)
    assert len(sweeps) == 5
    for field in dataclasses.fields(diag):
        assert np.array_equal(getattr(diag, field.name), getattr(fresh, field.name))


@pytest.mark.parametrize("g,a", [(nan, 0.04), (0.5, -0.04), (0.5, nan)])
def test_curve_refuses_unphysical_parameters(g, a):
    basis = enumerate_basis(2, 2, 4)
    with pytest.raises(ParameterError):
        compute_curve(basis, ElementCache.build(basis.modes), g, a,
                      grid=[0.85, 0.9])
