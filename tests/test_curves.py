import dataclasses
import json
from math import nan

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critgyro.curves as curves
import critgyro.hamiltonian as hamiltonian
import critgyro.spectrum as spectrum
from conftest import make_logistic_curve
from critgyro.cli import main
from critgyro.curves import (
    CATALOG_VERSION,
    DEFAULT_CATALOG_PAIRS,
    PRESCAN_POINTS,
    PRESCAN_RANGE,
    REFINED_POINTS,
    CurveCatalog,
    ResonanceCurve,
    catalog_build,
    catalog_load,
    catalog_save,
    compute_curve,
    curve_diagnostics,
    locate_grid,
    lookup_by_width,
    _transition_grid,
)
from critgyro.errors import ParameterError, StaleCatalogError
from critgyro.fock import KeyIndex, enumerate_basis
from critgyro.hamiltonian import System
from critgyro.melem import ElementCache
from critgyro.observables import (
    crossing_offset,
    gap_profile,
    p_zero,
    transition_width,
)


def test_from_values_validation():
    with pytest.raises(ParameterError):
        ResonanceCurve.from_values(0.5, 0.04, [0.1, 0.1, 0.2], [1, 1, 0])
    with pytest.raises(ParameterError):
        ResonanceCurve.from_values(0.5, 0.04, [0.1, 0.2], [1.0, -0.2])


def _first_downward_crossing(omega, p, level):
    """The first downward crossing of `level`, interpolated linearly on the
    grid: a loop of its own, apart from `crossing_offset`."""
    for i in range(len(p) - 1):
        if p[i] >= level > p[i + 1]:
            return omega[i] + (p[i] - level) / (p[i] - p[i + 1]) * (omega[i + 1] - omega[i])
    return None


def test_metadata_matches_recomputation():
    curve = make_logistic_curve(width=0.03)
    assert curve.center == pytest.approx(
        _first_downward_crossing(curve.omega, curve.p0, 0.5), abs=1e-12
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
            _first_downward_crossing(c.omega, c.p0, 0.5), abs=1e-9
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
    real = spectrum.ReducedModel.sweep

    def recording(self, *args, **kwargs):
        dims.append(self.h0.shape[0])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", recording)
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
    monkeypatch.setattr(hamiltonian, "_shared", None)  # no earlier test's model
    sweeps = []
    real = spectrum.ReducedModel.sweep

    def counting(*args, **kwargs):
        sweeps.append(1)
        # the kept sweep is released before a new one allocates
        assert hamiltonian._shared.last_sweep is None
        return real(*args, **kwargs)

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", counting)
    grid = np.linspace(0.86, 0.92, 13)
    curve = compute_curve(basis, cache, 0.5, 0.04, grid=grid)
    diag = curve_diagnostics(basis, cache, curve)
    assert len(sweeps) == 1
    # the same curve reuses the kept sweep too; another grid or pair sweeps again
    assert np.array_equal(compute_curve(basis, cache, 0.5, 0.04, grid=grid).p0, curve.p0)
    assert len(sweeps) == 1
    curve_diagnostics(basis, cache, ResonanceCurve.from_values(
        0.5, 0.04, grid[:-1], curve.p0[:-1]))
    assert len(sweeps) == 2
    curve_diagnostics(basis, cache, ResonanceCurve.from_values(
        0.5, 0.032, grid, curve.p0))
    assert len(sweeps) == 3
    # the reused sweep, made on a fresh model of the pair, gives what a
    # fresh basis and cache compute, bit for bit
    fresh_basis = enumerate_basis(6, 2, 8)
    fresh = curve_diagnostics(fresh_basis, ElementCache.build(fresh_basis.modes), curve)
    assert len(sweeps) == 4
    for field in dataclasses.fields(diag):
        assert np.array_equal(getattr(diag, field.name), getattr(fresh, field.name)), field


@pytest.mark.parametrize("g,a", [(nan, 0.04), (0.5, -0.04), (0.5, nan)])
def test_curve_refuses_unphysical_parameters(g, a):
    basis = enumerate_basis(2, 2, 4)
    with pytest.raises(ParameterError):
        compute_curve(basis, ElementCache.build(basis.modes), g, a,
                      grid=[0.85, 0.9])


def _first_crossing(p, threshold):
    return next(i for i in range(len(p) - 1) if p[i] >= threshold > p[i + 1])


@pytest.mark.parametrize("g,a", DEFAULT_CATALOG_PAIRS + ((0.5, 0.0),))
def test_prescan_stops_at_its_crossings(system6, monkeypatch, g, a):
    """The located grid is the one the whole 61-point dense pre-scan gives,
    bit for bit, and the pre-scan ends where the dense one does: at the
    first point after both first crossings. Before `dense_from` the dense
    pre-scan follows the ground state at rank 0; from there on the
    pre-scan is the dense one, bit for bit."""
    basis, cache = system6
    real = spectrum.ReducedModel.sweep
    swept = []

    def counting(*args, **kwargs):
        result = real(*args, **kwargs)
        swept.append(len(result.omegas))
        return result

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", counting)
    grid, prescan = _transition_grid(basis, cache, g, a)
    system = System.of(basis, cache)
    coarse = np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS)
    whole_prescan = spectrum.sweep_lowest(system.sector_h0(g, a), system.sector_l, coarse)
    p = p_zero(system.lift(whole_prescan.followed), basis)
    assert len(p) == PRESCAN_POINTS
    rel_hi, rel_lo = (crossing_offset(coarse, p, t) for t in (0.9, 0.1))
    if a == 0.0:  # no transition: the pre-scan runs in full
        assert rel_hi is None or rel_lo is None
        assert swept == [PRESCAN_POINTS]
        assert grid is None
        assert np.array_equal(locate_grid(basis, cache, g, a),
                              np.linspace(*PRESCAN_RANGE, REFINED_POINTS))
    else:
        span = max(rel_lo - rel_hi, coarse[1] - coarse[0])
        whole = np.linspace(coarse[0] + rel_hi - span, coarse[0] + rel_lo + span,
                            REFINED_POINTS)
        assert np.array_equal(grid, whole)
        last = max(_first_crossing(p, 0.9), _first_crossing(p, 0.1))
        assert swept == [last + 2] and last + 2 < PRESCAN_POINTS
    tail = slice(prescan.dense_from, len(prescan.omegas))
    assert not whole_prescan.followed_rank[:prescan.dense_from].any()
    for name in ("energies", "vec0", "vec1", "followed", "followed_rank"):
        assert np.array_equal(getattr(prescan, name)[tail], getattr(whole_prescan, name)[tail])


@pytest.mark.parametrize("g,a", [(0.5, 0.04), (0.5, 0.012)])
def test_the_located_grid_is_history_free(system6, g, a):
    """Locating a pair again, after its refined sweep added anchors to the
    pair's model, gives the grid a fresh System locates, bit for bit."""
    basis, cache = system6
    first = locate_grid(basis, cache, g, a)
    system = System.of(basis, cache)
    model = system.model[1]
    anchors = len(model.anchors)
    system.sweep(g, a, first)
    assert system.model[1] is model and len(model.anchors) > anchors
    again = locate_grid(basis, cache, g, a)
    assert system.model[1] is model
    fresh_basis = enumerate_basis(6, 2, 8)
    fresh = locate_grid(fresh_basis, ElementCache.build(fresh_basis.modes), g, a)
    assert np.array_equal(again, fresh) and np.array_equal(first, fresh)


@pytest.mark.parametrize("a", [0.04, 0.0])
def test_prescan_computes_p0_once_per_swept_point(system6, monkeypatch, a):
    """The stop rule computes p0 once per state it is handed: once per
    swept point, again at each point it answered None and got back at
    sine 0, and once per bracket point read from a dense solve. There is
    no second p_zero pass over the swept stack."""
    basis, cache = system6
    real_sweep, real_p0 = spectrum.ReducedModel.sweep, curves.p_zero
    real_dense = curves.sweep_lowest
    swept, shapes, undecided, brackets = [], [], [], []

    def counting_sweep(self, omegas, stop=None):
        def answering(state, sine):
            answer = stop(state, sine)
            undecided.append(answer is None)
            return answer

        result = real_sweep(self, omegas, answering)
        swept.append(len(result.omegas))
        return result

    def counting_dense(*args, **kwargs):
        brackets.append(1)
        return real_dense(*args, **kwargs)

    def counting_p0(psi, basis):
        shapes.append(np.shape(psi))
        return real_p0(psi, basis)

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", counting_sweep)
    monkeypatch.setattr(curves, "p_zero", counting_p0)
    monkeypatch.setattr(curves, "sweep_lowest", counting_dense)
    locate_grid(basis, cache, 0.5, a)
    assert len(swept) == 1
    assert shapes == [(basis.size,)] * (swept[0] + sum(undecided) + len(brackets))
    # (0.5, 0.04) reads its two brackets from 4 dense solves; A = 0 crosses neither
    assert len(brackets) == (4 if a else 0)


def test_diagnostics_do_not_reuse_an_early_stopped_prescan(system6, monkeypatch):
    basis, cache = system6
    sweeps = []
    real = spectrum.ReducedModel.sweep

    def counting(*args, **kwargs):
        sweeps.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", counting)
    _, prescan = _transition_grid(basis, cache, 0.5, 0.04)
    coarse = np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS)
    assert len(prescan.omegas) < PRESCAN_POINTS
    assert System.of(basis, cache).last_sweep is None  # a stopped sweep is kept nowhere
    curve = ResonanceCurve.from_values(0.5, 0.04, coarse,
                                       np.linspace(1.0, 0.0, PRESCAN_POINTS))
    diag = curve_diagnostics(basis, cache, curve)
    assert len(sweeps) == 2
    assert diag.gap.shape == (PRESCAN_POINTS,)


def test_catalog_build_refuses_duplicate_pairs_before_sweeping(system6, monkeypatch,
                                                              tmp_path):
    sweeps = []
    monkeypatch.setattr(spectrum.ReducedModel, "sweep",
                        lambda *args, **kwargs: sweeps.append(1))
    with pytest.raises(ParameterError, match="duplicate"):
        catalog_build(*system6, [(0.5, 0.04), (0.5, 0.032), (0.5, 0.04)])
    out = tmp_path / "catalog.json"
    assert main(["catalog", "--n", "2", "--pairs", "0.5:0.04,0.5:0.04",
                 "--out", str(out)]) == 2
    assert sweeps == []
    assert not out.exists()


def test_catalog_build_refuses_a_pair_without_transition_after_its_prescan(
        system6, monkeypatch, tmp_path):
    real = spectrum.ReducedModel.sweep
    swept = []

    def counting(self, omegas, *args, **kwargs):
        swept.append(len(omegas))
        return real(self, omegas, *args, **kwargs)

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", counting)
    with pytest.raises(ParameterError, match="positive widths"):
        catalog_build(*system6, [(0.5, 0.0)])
    assert swept == [PRESCAN_POINTS]
    swept.clear()
    with pytest.raises(ParameterError, match="positive widths"):
        catalog_build(*system6, [(0.5, 0.04), (0.5, 0.0)])
    assert swept == [PRESCAN_POINTS, PRESCAN_POINTS]
    swept.clear()
    out = tmp_path / "catalog.json"
    assert main(["catalog", "--pairs", "0.5:0", "--out", str(out)]) == 2
    assert swept == [PRESCAN_POINTS]
    assert not out.exists()
    # a single curve still gets the pre-scan window, for plotting
    curve = compute_curve(*system6, 0.5, 0.0)
    assert np.array_equal(curve.omega, np.linspace(*PRESCAN_RANGE, REFINED_POINTS))
    assert curve.width is None


def test_p_zero_of_each_followed_state_is_the_curve_p0(system6):
    basis, cache = system6
    curve = compute_curve(basis, cache, 0.5, 0.04, grid=np.linspace(0.85, 0.95, 41))
    system = System.of(basis, cache)
    followed = system.lift(system.last_sweep.followed)
    assert np.array_equal([p_zero(state, basis) for state in followed], curve.p0)
    assert np.array_equal(p_zero(followed, basis), curve.p0)


def test_diagnostics_refuse_a_one_state_sector(monkeypatch):
    """N=0 and N=1, n_LL=1, l_max=0 have one state each. The diagnostics
    read `SweepResult.gap`, which such a sweep does not have, and refuse
    before any SPDM work."""
    monkeypatch.setattr(curves, "spdm", lambda *args: pytest.fail("SPDM computed"))
    for n, n_ll, l_max in [(0, 2, 2), (1, 1, 0)]:
        basis = enumerate_basis(n, n_ll, l_max)
        cache = ElementCache.build(basis.modes)
        curve = compute_curve(basis, cache, 0.5, 0.04, grid=np.linspace(0.8, 0.9, 3))
        with pytest.raises(ParameterError, match="one-state sector"):
            curve_diagnostics(basis, cache, curve)


def test_curves_and_gap_profile_share_one_operator_build(monkeypatch):
    """locate_grid -> catalog_build (compute_curve) -> curve_diagnostics ->
    gap_profile on one (basis, cache) build the operators once, and the
    basis key index they and the SPDM hop table share once."""
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    builds, index_builds = [], []
    real, real_index = hamiltonian.build_operators, KeyIndex.build.__func__

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    def counting_index(cls, occupations):
        index_builds.append(1)
        return real_index(cls, occupations)

    monkeypatch.setattr(hamiltonian, "build_operators", counting)
    monkeypatch.setattr(KeyIndex, "build", classmethod(counting_index))
    locate_grid(basis, cache, 0.5, 0.04)
    curve = catalog_build(basis, cache, [(0.5, 0.04)]).find(0.5, 0.04)
    curve_diagnostics(basis, cache, curve)
    gap_profile(basis, cache, 0.5, 0.04, curve.omega, center=curve.center)
    assert len(builds) == 1
    assert len(index_builds) == 1


@pytest.mark.parametrize("pair", [(0.5, 0.04), (0.6, 0.025)])
def test_gap_profile_and_diagnostics_share_one_sweep_rule(system6, catalog_default, pair):
    """On a catalog curve's own grid, the gap profile and the curve
    diagnostics read the same sector sweep: the same gap, bit for bit."""
    basis, cache = system6
    curve = catalog_default.find(*pair)
    diag = curve_diagnostics(basis, cache, curve)
    profile = gap_profile(basis, cache, *pair, curve.omega, center=curve.center)
    assert np.array_equal(profile.gap, diag.gap)
