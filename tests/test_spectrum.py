import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

import critgyro.spectrum as spectrum
from critgyro.errors import InputError
from critgyro.fock import Mode, enumerate_basis
from critgyro.curves import (
    DEFAULT_CATALOG_PAIRS,
    PRESCAN_POINTS,
    PRESCAN_RANGE,
    REFINED_POINTS,
    catalog_load,
    _transition_grid,
)
from critgyro.hamiltonian import System, build_operators
from critgyro.melem import ElementCache
from critgyro.observables import p_zero
from critgyro.spectrum import ReducedModel, sweep_lowest
from conftest import row_of
from oracle import reference_sweep_followed

REFERENCE_CATALOG = (Path(__file__).resolve().parent.parent
                     / "perfbench" / "data" / "reference_catalog.json")


def sweep(h0_dense, l_diag, omegas, stop=None):
    """One sweep of a fresh reduced model."""
    return ReducedModel(h0_dense, l_diag).sweep(omegas, stop)


def physical(n):
    """The basis of n particles and its System."""
    basis = enumerate_basis(n, 2, n + 2)
    return basis, System(basis, ElementCache.build(basis.modes))


def test_diagonal_matrix_ground_state():
    res = sweep_lowest(np.diag([3.0, 1.0, 2.0]), np.zeros(3), [0.0])
    assert res.energies[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(res.vec0[0]) == pytest.approx([0, 1, 0], abs=1e-12)


@pytest.mark.parametrize("subset", [(0, 1), (0, 5), None])
def test_solver_gives_the_bits_of_scipy_eigh(subset):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    kept = a.copy()
    energies, vectors = spectrum._eigh(a, spectrum._workspace(40), subset_by_index=subset)
    ref_energies, ref_vectors = sla.eigh(kept, subset_by_index=subset)
    assert np.array_equal(energies, ref_energies)
    assert np.array_equal(vectors, ref_vectors)
    assert np.array_equal(a, kept)


@pytest.mark.parametrize("where", ["h0_dense", "l_diag", "omegas"])
def test_sweep_refuses_non_finite_inputs(where):
    inputs = {"h0_dense": np.diag([3.0, 1.0, 2.0]), "l_diag": np.array([0.0, 1.0, 2.0]),
              "omegas": np.linspace(0.0, 0.5, 3)}
    inputs[where] = inputs[where].copy()
    inputs[where].flat[-1] = np.nan
    for swept in (sweep_lowest, sweep):  # the dense sweep and the continuation
        with pytest.raises(InputError):
            swept(**inputs)


def test_ground_state_is_condensate_dominated_without_rotation():
    """With no rotation and no anisotropy, the lowest state in the L = 0
    sector is the interaction-dressed condensate: the bare occupation-basis
    state is dominant but not exact, because the contact term couples it to
    pair and radial excitations inside the sector."""
    basis, system = physical(6)
    res = system.sweep(0.5, 0.0, [0.0])
    energy, vec = res.energies[0, 0], system.lift(res.vec0[0])
    dense = system.operators.hamiltonian(0.5, 0.0, 0.0).toarray()
    assert energy == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
    i = row_of(basis, {Mode(0, 0): 6})
    assert vec[i] ** 2 > 0.80
    # dressing lowers the energy strictly below the diagonal entry
    assert energy < dense[i, i] - 1e-3


def test_uniform_shift_moves_ground_energy():
    l_diag = np.zeros(3)
    e0 = sweep_lowest(np.diag([0.4, 1.7, 2.2]), l_diag, [0.0]).energies[0, 0]
    e1 = sweep_lowest(np.diag([0.4 + 5.0, 1.7 + 5.0, 2.2 + 5.0]), l_diag, [0.0]).energies[0, 0]
    assert e1 - e0 == pytest.approx(5.0, abs=1e-12)


def test_variational_bound():
    """No state of the condensate's sector lies below its swept E0."""
    _, system = physical(3)
    e0 = system.sweep(0.5, 0.04, [0.7]).energies[0, 0]
    dense = system.operators.hamiltonian(0.5, 0.04, 0.7).toarray()
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = system.lift(rng.standard_normal(len(system.sector_rows)))
        v /= np.linalg.norm(v)
        assert v @ dense @ v >= e0 - 1e-10


def test_ground_energy_is_lipschitz_in_omega():
    _, system = physical(3)
    delta = 1e-3
    for om in (0.0, 0.5, 0.9):
        e1, e2 = system.sweep(0.5, 0.04, [om, om + delta]).energies[:, 0]
        assert abs(e2 - e1) <= delta * 5 + 1e-12


def test_orthonormality_and_residuals():
    _, system = physical(3)
    res = system.sweep(0.6, 0.03, [0.8])
    vectors = np.column_stack([res.vec0[0], res.vec1[0]])
    overlap = vectors.T @ vectors
    assert np.allclose(np.diag(overlap), 1.0, atol=1e-12)
    assert np.max(np.abs(overlap - np.eye(2))) < 1e-10
    ham = system.sector_h0(0.6, 0.03) - 0.8 * np.diag(system.sector_l)
    residuals = np.linalg.norm(ham @ vectors - vectors * res.energies[0], axis=0)
    assert (residuals < 1e-9).all()
    assert (np.diff(res.energies[0]) >= -1e-12).all()


def test_sweep_follows_sector_through_exact_crossing():
    """At zero anisotropy the rotation sweep must stay on the followed
    branch even after another angular-momentum sector dips below it."""
    basis = enumerate_basis(4, 2, 6)
    cache = ElementCache.build(basis.modes)
    ham0 = System(basis, cache).operators.hamiltonian(0.5, 0.0, 0.0)
    omegas = np.linspace(0.7, 1.0, 61)
    sweep = sweep_lowest(ham0.toarray(), basis.L.astype(float), omegas)
    # the followed state keeps total L = 0 across the whole scan
    follow_l = np.array([vec**2 @ basis.L for vec in sweep.followed])
    assert np.max(np.abs(follow_l)) < 1e-8
    # while the true ground state has acquired angular momentum by the end
    assert sweep.vec0[-1] ** 2 @ basis.L > 3.0


def test_gap_positive_with_anisotropy():
    basis = enumerate_basis(4, 2, 6)
    cache = ElementCache.build(basis.modes)
    ham0 = System(basis, cache).operators.hamiltonian(0.5, 0.03, 0.0)
    omegas = np.linspace(0.8, 1.0, 41)
    sweep = sweep_lowest(ham0.toarray(), basis.L.astype(float), omegas)
    gap = sweep.energies[:, 1] - sweep.energies[:, 0]
    assert (gap > 0).all()


def test_sector_sweep_reproduces_full_space_p0():
    basis = enumerate_basis(4, 2, 6)
    cache = ElementCache.build(basis.modes)
    ham0 = System(basis, cache).operators.hamiltonian(0.5, 0.04, 0.0)
    l_diag = basis.L.astype(float)
    omegas = np.linspace(0.7, 1.0, 61)
    full = sweep_lowest(ham0.toarray(), l_diag, omegas)
    system = System(basis, cache)
    sector = sweep_lowest(system.sector_h0(0.5, 0.04), system.sector_l, omegas)
    followed = system.lift(sector.followed)
    even = basis.L % 2 == 0
    assert followed.shape == full.followed.shape
    assert not followed[:, ~even].any()
    mask = basis.zero_momentum_mask
    p_full = (full.followed[:, mask] ** 2).sum(axis=1)
    p_sector = (followed[:, mask] ** 2).sum(axis=1)
    assert np.max(np.abs(p_sector - p_full)) < 1e-10
    # the sector ground state is the full one wherever that one is even
    ground_even = (full.vec0[:, even] ** 2).sum(axis=1) > 0.5
    assert ground_even.any()
    assert np.allclose(sector.energies[ground_even, 0],
                       full.energies[ground_even, 0], atol=1e-12)


@pytest.mark.parametrize("g,a", [(0.6, 0.025), (0.5, 0.012)])
def test_lost_branch_resolves_like_the_full_spectrum(system6, monkeypatch, g, a):
    """On the curve pre-scan of these pairs the ground state loses the
    followed branch; the BRANCH_WINDOW rule keeps the branch a full-spectrum
    resolution picks, with fewer full-spectrum solves."""
    basis, cache = system6
    rows = np.flatnonzero(basis.L % 2 == 0)
    h0 = build_operators(basis, cache).hamiltonian(g, a, 0.0).toarray()
    h0 = h0[np.ix_(rows, rows)]
    l_diag = basis.L[rows].astype(float)
    omegas = np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS)
    ref, ref_full_solves = reference_sweep_followed(h0, l_diag, omegas)

    full_solves = []
    real = spectrum._eigh

    def counting(mat, *args, **kwargs):
        if "subset_by_index" not in kwargs:
            full_solves.append(mat.shape)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_eigh", counting)
    sweep = sweep_lowest(h0, l_diag, omegas)
    mask = basis.zero_momentum_mask[rows]
    p_ref = (ref[:, mask] ** 2).sum(axis=1)
    p_got = (sweep.followed[:, mask] ** 2).sum(axis=1)
    assert ref_full_solves > 0
    assert len(full_solves) < ref_full_solves
    assert np.max(np.abs(p_got - p_ref)) <= 1e-12


def _sector_prescan(basis, cache, g, a):
    rows = np.flatnonzero(basis.L % 2 == 0)
    h0 = build_operators(basis, cache).hamiltonian(g, a, 0.0).toarray()
    return (h0[np.ix_(rows, rows)], basis.L[rows].astype(float),
            np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS), basis.zero_momentum_mask[rows])


def _exact_crossing_sweep():
    basis = enumerate_basis(4, 2, 6)
    cache = ElementCache.build(basis.modes)
    h0 = System(basis, cache).operators.hamiltonian(0.5, 0.0, 0.0).toarray()
    return h0, basis.L.astype(float), np.linspace(0.7, 1.0, 61), basis.zero_momentum_mask


def _diagonals(h0, l_diag, omegas):
    """Row i: the diagonal of the sweep matrix at omegas[i]."""
    return np.diagonal(h0) - np.multiply.outer(omegas, l_diag)


@pytest.mark.parametrize("case", ["0.6:0.025", "0.5:0.012", "exact crossing"])
def test_sweep_widens_only_where_the_follow_rule_needs(system6, monkeypatch, case):
    """Each point solves two pairs; the BRANCH_WINDOW is solved exactly where
    E1 - E0 ties or the ground state holds less than FOLLOW_FLOOR of the
    followed state, and the followed branch is the full-spectrum one."""
    if case == "exact crossing":
        h0, l_diag, omegas, mask = _exact_crossing_sweep()
    else:
        h0, l_diag, omegas, mask = _sector_prescan(*system6, *map(float, case.split(":")))
    ref, _ = reference_sweep_followed(h0, l_diag, omegas)

    # each solve is keyed by its point's diagonal
    index_of = {d.tobytes(): i for i, d in enumerate(_diagonals(h0, l_diag, omegas))}
    solves = {}  # per point, the number of pairs each solve asked for
    real = spectrum._eigh

    def spying(mat, *args, **kwargs):
        lo, hi = kwargs.get("subset_by_index", (0, mat.shape[0] - 1))
        solves.setdefault(index_of[kwargs["diagonal"].tobytes()], []).append(hi - lo + 1)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_eigh", spying)
    sweep = sweep_lowest(h0, l_diag, omegas)
    assert sweep.energies.shape == (len(omegas), 2)
    assert len(solves) == len(omegas)
    solves = [solves[i] for i in range(len(omegas))]
    assert all(point[0] == 2 for point in solves)
    widened = [len(point) > 1 for point in solves]
    assert all(point[1] == 6 for point in solves if len(point) > 1)
    tied = sweep.energies[:, 1] - sweep.energies[:, 0] < spectrum.DEGENERACY_TIE
    lost = np.zeros(len(omegas), dtype=bool)
    lost[1:] = np.einsum("ij,ij->i", sweep.followed[:-1], sweep.vec0[1:]) ** 2 \
        < spectrum.FOLLOW_FLOOR
    assert widened == list(tied | lost)
    if case != "exact crossing":
        assert any(widened)  # these pre-scans lose the branch
    p_ref = (ref[:, mask] ** 2).sum(axis=1)
    p_got = (sweep.followed[:, mask] ** 2).sum(axis=1)
    assert np.max(np.abs(p_got - p_ref)) <= 1e-12


def test_sweep_stop_ends_after_the_point_it_accepts():
    h0, l_diag, omegas, _ = _exact_crossing_sweep()
    whole = sweep_lowest(h0, l_diag, omegas)
    seen = []

    def stop(state, sine):
        assert sine == 0.0  # the dense sweep's states are exact
        seen.append(state)
        return len(seen) == 7

    part = sweep_lowest(h0, l_diag, omegas, stop=stop)
    assert len(seen) == 7
    assert np.array_equal(part.omegas, omegas[:7])
    for name in ("energies", "vec0", "vec1", "followed", "followed_rank"):
        assert np.array_equal(getattr(part, name), getattr(whole, name)[:7])
    assert np.array_equal(np.array(seen), whole.followed[:7])
    # a sector sweep hands `stop` the sector state, which the System lifts
    basis = enumerate_basis(4, 2, 6)
    system = System(basis, ElementCache.build(basis.modes))
    lifted = []
    sector = sweep_lowest(system.sector_h0(0.5, 0.0), system.sector_l, omegas,
                          stop=lambda state, sine: lifted.append(system.lift(state)) or True)
    assert len(sector.omegas) == 1
    assert np.array_equal(lifted[0], system.lift(sector.followed)[0])


_SWEEP_FIELDS = ("omegas", "energies", "vec0", "vec1", "followed", "followed_rank")


def test_a_stopped_sweep_solves_nothing_past_its_stop(system6, monkeypatch):
    """The dense sweep solves exactly the points up to the one `stop`
    accepts. So does the model's walk, but for the seed anchors it solves
    before it starts: on the (0.6, 0.025) pre-scan grid, the dense tail
    that takes the grid over makes no solve past the stop either."""
    h0, l_diag, omegas, _ = _exact_crossing_sweep()
    index_of = {d.tobytes(): i for i, d in enumerate(_diagonals(h0, l_diag, omegas))}
    points = []
    real = spectrum._eigh

    def spying(mat, *args, **kwargs):
        if kwargs.get("diagonal") is not None:
            points.append(index_of[kwargs["diagonal"].tobytes()])
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_eigh", spying)
    whole = sweep_lowest(h0, l_diag, omegas)
    seen = []
    points.clear()
    part = sweep_lowest(h0, l_diag, omegas,
                        stop=lambda state, sine: seen.append(state) or len(seen) == 7)
    assert len(part.omegas) == 7 and part.dense_solves == 7
    for name in _SWEEP_FIELDS:
        assert np.array_equal(getattr(part, name), getattr(whole, name)[:7]), name
    assert sorted(set(points)) == list(range(7))

    h0, l_diag, omegas, _ = _sector_prescan(*system6, 0.6, 0.025)
    index_of = {d.tobytes(): i for i, d in enumerate(_diagonals(h0, l_diag, omegas))}
    points.clear()
    seen.clear()
    stopped = ReducedModel(h0, l_diag).sweep(
        omegas, stop=lambda state, sine: seen.append(state) or len(seen) == 37)
    assert len(stopped.omegas) == 37 and stopped.dense_from < 36  # stopped in the tail
    seeds = np.linspace(0, len(omegas) - 1, spectrum.SEED_POINTS).round().astype(int)
    assert {i for i in points if i >= 37} <= set(seeds.tolist())


def test_a_stop_undecided_at_every_positive_sine_makes_every_point_dense(system6):
    """A `stop` that answers None wherever the sine is above 0 gets each
    walked point again as a dense anchor, at sine 0, and answers each point
    of the result once: the walk's points are its anchors, and the result
    certifies them with sine 0."""
    h0, l_diag, omegas, _ = _sector_prescan(*system6, 0.5, 0.04)
    asked, answered = [], []

    def exact_only(state, sine):
        asked.append(sine)
        if sine > 0:
            return None
        answered.append(state)
        return False

    model = ReducedModel(h0, l_diag)
    result = model.sweep(omegas, stop=exact_only)
    walked = result.omegas[:result.dense_from]
    assert len(answered) == len(result.omegas) == len(omegas)
    assert 0 < result.dense_from and set(walked) <= set(model.anchors)
    assert result.sine_bound == 0.0 and any(sine > 0 for sine in asked)
    assert np.array_equal(np.array(answered[:result.dense_from]), result.vec0[:result.dense_from])
    # the tail's first point repeats the walk's last, which `stop` answered
    assert np.array_equal(np.array(answered[result.dense_from + 1:]),
                          result.followed[result.dense_from + 1:])


def test_a_failed_solve_propagates_from_the_sweep(monkeypatch):
    h0, l_diag, omegas, _ = _exact_crossing_sweep()
    failing = _diagonals(h0, l_diag, omegas)[23].tobytes()
    real = spectrum._eigh

    def breaking(mat, *args, **kwargs):
        if kwargs["diagonal"].tobytes() == failing:
            raise sla.LinAlgError("syevr failed: 1")
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectrum, "_eigh", breaking)
    seen = []
    with pytest.raises(sla.LinAlgError):
        sweep_lowest(h0, l_diag, omegas, stop=lambda state, sine: seen.append(state) or False)
    assert len(seen) == 23  # every point before the failing one, none after


def test_an_exact_tie_fails_closed():
    """diag(3, 1 - Omega, 2 - 2 Omega) has its two lowest levels tied
    exactly at Omega = 1: the sweep raises InputError naming that Omega as
    a plain float, after the points before it, and no thread outlives it."""
    h0, l_diag = np.diag([3.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])
    seen = []
    threads = threading.active_count()
    with pytest.raises(InputError, match=r"at Omega = 1\.0: "):
        sweep_lowest(h0, l_diag, np.linspace(0.0, 1.5, 7),
                     stop=lambda state, sine: seen.append(state) or False)
    assert len(seen) == 4
    assert threading.active_count() == threads
    with pytest.raises(ValueError, match=r"at Omega = 1\.0$"):  # so does the oracle
        reference_sweep_followed(h0, l_diag, np.linspace(0.0, 1.5, 7), k=3)


def test_a_one_state_sweep_repeats_its_one_vector():
    h0, l_diag = np.array([[3.0]]), np.array([1.0])
    omegas = np.linspace(0.0, 0.5, 9)
    for swept in (sweep_lowest, sweep):
        result = swept(h0, l_diag, omegas)
        assert result.energies.shape == (9, 1)
        assert np.array_equal(result.energies[:, 0], 3.0 - omegas)
        assert np.array_equal(result.vec0, result.vec1)
        assert result.dense_solves == 9 and result.dense_from == 0


def test_solver_diagonal_replaces_the_copy_diagonal_only():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 30))
    a = a + a.T
    kept = a.copy()
    diagonal = rng.standard_normal(30)
    ref = kept.copy()
    np.fill_diagonal(ref, diagonal)
    got = spectrum._eigh(a, spectrum._workspace(30), subset_by_index=(0, 1), diagonal=diagonal)
    assert all(np.array_equal(x, y) for x, y in zip(got, sla.eigh(ref, subset_by_index=(0, 1))))
    assert np.array_equal(a, kept)


_BLAS_PROBE = """
import json
import numpy as np
import critgyro.spectrum as spectrum
controls = spectrum._openblas_thread_controls()
inside = []
real = spectrum._eigh
def probe(*args, **kwargs):
    inside.append([get() for get, _ in controls])
    return real(*args, **kwargs)
spectrum._eigh = probe
before = [get() for get, _ in controls]
h0 = np.diag(np.arange(12.0))
h0[0, 1] = h0[1, 0] = 0.1  # couples L = 0 to L = 1: the model's walk runs
spectrum.sweep_lowest(h0, np.arange(12.0), np.linspace(0.0, 0.5, 3))
spectrum.ReducedModel(h0, np.arange(12.0)).sweep(np.linspace(0.0, 0.5, 3))
after = [get() for get, _ in controls]
print(json.dumps({"before": before, "after": after,
                  "inside": sorted({n for counts in inside for n in counts})}))
"""


def test_sweep_runs_on_one_blas_thread_and_restores_the_count():
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(spectrum.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    counts = json.loads(out.stdout)
    if not counts["before"]:
        pytest.skip("no OpenBLAS with a thread control in numpy or scipy")
    assert counts["inside"] == [1]
    assert counts["after"] == counts["before"]


# ---------------------------------------------------------------------------
# certified continuation against the dense sweep
# ---------------------------------------------------------------------------

def _window(p0, points=81, margin=10):
    """`points` evenly strided indices over the 0.9 -> 0.1 fall of p0,
    reaching `margin` points past both crossings: the curves benchmark's
    window of a reference grid."""
    hi, lo = int(np.argmax(p0 < 0.9)), int(np.argmax(p0 < 0.1))
    stride = max(1, -(-(lo - hi + 2 * margin) // (points - 1)))
    span = stride * (points - 1)
    start = min(max((hi + lo - span) // 2, 0), len(p0) - 1 - span)
    return slice(start, start + span + 1, stride)


def _restricted(result, rows):
    """The sweep result at the given rows of its grid."""
    return dataclasses.replace(result, **{name: getattr(result, name)[rows]
                                          for name in _SWEEP_FIELDS})


def _agree(continued, dense, mask):
    """The continuation matches the dense sweep: the same points, its
    followed state the ground state, p0 within its certified sine and
    1e-10, E0 and E1 - E0 within 1e-12."""
    assert np.array_equal(continued.omegas, dense.omegas)
    assert not dense.followed_rank.any() and not continued.followed_rank.any()
    assert np.array_equal(continued.followed, continued.vec0)
    assert 0.0 < continued.sine_bound <= spectrum.SINE_TOL
    p0 = [(s.followed[:, mask] ** 2).sum(axis=1) for s in (continued, dense)]
    assert np.max(np.abs(p0[0] - p0[1])) <= min(continued.sine_bound, 1e-10)
    assert np.max(np.abs(continued.energies[:, 0] - dense.energies[:, 0])) <= 1e-12
    assert np.max(np.abs(continued.gap - dense.gap)) <= 1e-12


def _dense_at(system, g, a, omegas, rows):
    """The dense sweep at omegas[rows]. A dense sweep that stays at rank 0
    solves each point alone, so these are its values on all of omegas."""
    dense = sweep_lowest(system.sector_h0(g, a), system.sector_l, omegas[rows])
    assert not dense.followed_rank.any()
    return dense


@pytest.mark.parametrize("g,a", DEFAULT_CATALOG_PAIRS)
def test_continuation_matches_the_dense_sweep_on_the_ladder_grids(system6, catalog_default,
                                                                  g, a):
    """Each catalog curve is the continuation on its located 601-point grid:
    at every tenth point and on its 81-point benchmark window, its p0 is the
    dense sweep's within SINE_TOL and 1e-10. On the window, the continuation
    gives the dense sweep's p0, E0 and gap from at most 30 dense solves."""
    basis, cache = system6
    system = System.of(basis, cache)
    curve, mask = catalog_default.find(g, a), basis.zero_momentum_mask[system.sector_rows]
    window = np.arange(len(curve.omega))[_window(curve.p0)]
    rows = np.union1d(window, np.arange(0, len(curve.omega), 10))
    dense = _dense_at(system, g, a, curve.omega, rows)
    dense_p0 = (dense.followed[:, mask] ** 2).sum(axis=1)
    assert np.max(np.abs(curve.p0[rows] - dense_p0)) <= min(spectrum.SINE_TOL, 1e-10)
    continued = sweep(system.sector_h0(g, a), system.sector_l, curve.omega[window])
    assert continued.dense_solves <= 30
    _agree(continued, _restricted(dense, np.searchsorted(rows, window)), mask)


@pytest.mark.parametrize("g,a", DEFAULT_CATALOG_PAIRS)
def test_located_grids_match_the_reference_catalog(system6, g, a):
    """The benchmark's correctness gate on every ladder pair: the located
    grid is the reference catalog's within 1e-9 (perfbench's GRID_TOL).
    The refined sweep of the 81-point benchmark window reuses the
    pre-scan's model: its p0 is the reference's within 1e-10, and the two
    sweeps take at most 30 dense solves."""
    basis, cache = system6
    system = System.of(basis, cache)
    reference = catalog_load(REFERENCE_CATALOG).find(g, a)
    grid, prescan = _transition_grid(basis, cache, g, a)
    assert grid.shape == reference.omega.shape
    assert np.max(np.abs(grid - reference.omega)) <= 1e-9
    model = system.model[1]
    window = _window(reference.p0)
    refined = system.sweep(g, a, reference.omega[window])
    assert system.model[1] is model
    assert prescan.dense_solves + refined.dense_solves <= 30
    p0 = p_zero(system.lift(refined.followed), basis)
    assert np.max(np.abs(p0 - reference.p0[window])) <= 1e-10


def test_continuation_on_a_located_grid_takes_at_most_60_dense_solves(system6):
    """On the (0.5, 0.04) reference grid the continuation matches the dense
    sweep at every fifth point, from at most 60 dense solves of 601."""
    basis, cache = system6
    system = System.of(basis, cache)
    grid = catalog_load(REFERENCE_CATALOG).find(0.5, 0.04).omega
    rows = np.arange(0, len(grid), 5)
    continued = sweep(system.sector_h0(0.5, 0.04), system.sector_l, grid)
    assert continued.dense_solves <= 60
    _agree(_restricted(continued, rows), _dense_at(system, 0.5, 0.04, grid, rows),
           basis.zero_momentum_mask[system.sector_rows])


def test_continuation_bounds_lambda_2_through_a_negative_l_min():
    """In the n_LL = 3 sector L reaches -2, and on [0, 1] the third level
    rises with Omega somewhere, so only the L_min term keeps the bound on
    lambda_2 below it; the continuation still matches the dense sweep."""
    basis = enumerate_basis(4, 3, 6)
    system = System(basis, ElementCache.build(basis.modes))
    h0, l_diag = system.sector_h0(0.5, 0.04), system.sector_l
    omegas = np.linspace(0.0, 1.0, 41)
    assert l_diag.min() == -2.0
    lam2 = [sla.eigvalsh(h0 - om * np.diag(l_diag), subset_by_index=(2, 2))[0]
            for om in omegas]
    assert np.diff(lam2).max() > 0  # lambda_2 rises: L_min = 0 would overstate it
    continued = sweep(h0, l_diag, omegas)
    _agree(continued, sweep_lowest(h0, l_diag, omegas),
           basis.zero_momentum_mask[system.sector_rows])
    assert continued.dense_solves < len(omegas)


def _levels(e, l_diag):
    """diag(e) with one weak coupling between its two highest states, which
    must differ in L: an H0 that does not commute with diag(L), so its
    sweeps run the model's walk, while its low states stay the levels
    e_k - Omega L_k."""
    assert l_diag[-1] != l_diag[-2]
    h0 = np.diag(np.asarray(e, dtype=float))
    h0[-1, -2] = h0[-2, -1] = 0.01
    return h0


def test_a_level_rising_with_omega_cannot_slip_past_the_lambda_2_bound():
    """The level 1.42 + Omega (L = -1) is the second lowest only between
    the two lowest seed points, where no dense vector holds it. The bound
    lambda_2(Omega_b) + (Omega_b - Omega) L_min sends those points to a
    dense solve; lambda_2(Omega_b) alone would certify the level above it
    there and miss E1 by 0.104."""
    e = np.r_[0.0, 1.42, 1.399, 1.803, np.arange(10.0, 22.0)]
    l_diag = np.r_[0.0, -1.0, -2.0, 1.0, np.zeros(11), 1.0]
    omegas = np.linspace(0.0, 1.0, 41)
    h0 = _levels(e, l_diag)
    continued = sweep(h0, l_diag, omegas)
    assert continued.dense_solves > spectrum.SEED_POINTS
    assert continued.dense_from == len(omegas)  # the walk took every point
    assert np.array_equal(continued.energies, sweep_lowest(h0, l_diag, omegas).energies)


def test_the_chord_bound_is_never_extrapolated():
    """Anchors from a first grid on [0.5, 0.9] hold the levels 0, 1 and
    2.5 - 2 Omega; the level 0.7 + 2 Omega (L = -2) lies above them there
    but below 1 at Omega < 0.15. A second grid from 0.1 walks below the
    first anchor: the Weyl bound from it sends that point to a dense solve,
    while the Ky Fan chord of the two lowest anchors, extrapolated, would
    certify E1 = 1, 0.1 too high."""
    e = np.r_[0.0, 1.0, 0.7, 2.5, np.arange(10.0, 22.0)]
    l_diag = np.r_[0.0, 0.0, -2.0, 2.0, np.zeros(11), 1.0]
    h0 = _levels(e, l_diag)
    model = ReducedModel(h0, l_diag)
    first = model.sweep(np.linspace(0.5, 0.9, 9))
    assert first.dense_from == 9
    omegas = np.linspace(0.1, 0.9, 17)
    second = model.sweep(omegas)
    assert second.dense_from == len(omegas) and 0.1 in model.anchors
    assert np.array_equal(second.energies, sweep_lowest(h0, l_diag, omegas).energies)
    assert second.energies[0, 1] == pytest.approx(0.9, abs=1e-12)


def test_continuation_hands_a_branch_change_to_the_dense_sweep(system6, monkeypatch):
    """At A = 0 H0 commutes with diag(L), the ground state changes L sector
    inside PRESCAN_RANGE, and the follow rule leaves it: the sweep goes to
    the dense sweep at once, and the result is that sweep's, bit for bit,
    from its 601 dense solves and no other."""
    basis, cache = system6
    system = System.of(basis, cache)
    omegas = np.linspace(*PRESCAN_RANGE, REFINED_POINTS)
    dense = []
    real = spectrum.sweep_lowest

    def recording(*args, **kwargs):
        dense.append(real(*args, **kwargs))
        return dense[-1]

    monkeypatch.setattr(spectrum, "sweep_lowest", recording)
    result = sweep(system.sector_h0(0.5, 0.0), system.sector_l, omegas)
    assert len(dense) == 1 and dense[0].followed_rank.any()
    for name in _SWEEP_FIELDS + ("sine_bound", "dense_solves", "dense_from"):
        assert np.array_equal(getattr(result, name), getattr(dense[0], name)), name
    assert result.dense_solves == REFINED_POINTS and result.dense_from == 0


def test_a_sector_of_two_states_takes_the_dense_path():
    """Its first anchor would pass half the dimension, so the walk keeps no
    anchor and hands the whole grid to the dense follow rule."""
    h0, l_diag = np.array([[0.0, 0.1], [0.1, 1.0]]), np.array([0.0, 2.0])
    omegas = np.linspace(0.0, 1.0, 5)
    model = ReducedModel(h0, l_diag)
    result = model.sweep(omegas)
    assert not model.dense_only and model.anchors == {} and model.q.shape == (2, 0)
    dense = sweep_lowest(h0, l_diag, omegas)
    for name in _SWEEP_FIELDS + ("sine_bound", "dense_solves", "dense_from"):
        assert np.array_equal(getattr(result, name), getattr(dense, name)), name
    assert result.dense_solves == len(omegas) and result.sine_bound == 0.0


@pytest.mark.parametrize("dim", [1, 2, 4])
def test_a_pencil_of_fewer_than_six_states_is_the_dense_sweep(dim):
    """With and without `stop`, a model of fewer than six states returns
    `sweep_lowest`'s result field for field: a 1-state pencil has no
    coupling and goes to it at once, and a larger one hands point 0 to
    its follow rule."""
    rng = np.random.default_rng(dim)
    a = 0.1 * rng.standard_normal((dim, dim))
    h0, l_diag = np.diag(np.arange(dim) * 2.0) + a + a.T, np.arange(dim, dtype=float)
    omegas = np.linspace(0.0, 1.0, 7)

    def stop_at(last):
        calls = []
        return lambda state, sine: calls.append(sine) or len(calls) == last

    for make_stop, points in ((lambda: None, 7), (lambda: stop_at(4), 4)):
        model = ReducedModel(h0, l_diag)
        result = model.sweep(omegas, make_stop())
        dense = sweep_lowest(h0, l_diag, omegas, make_stop())
        assert model.dense_only == (dim == 1) and model.anchors == {}
        for field in dataclasses.fields(result):
            assert np.array_equal(getattr(result, field.name), getattr(dense, field.name)), field
        assert result.dense_from == 0 and result.sine_bound == 0
        assert len(result.omegas) == points


def test_a_whole_grid_through_an_exact_tie_fails_closed():
    """A tie met by the walk, at a seed anchor here, hands the grid to the
    dense sweep, which names the first tied Omega."""
    e = np.r_[3.0, 1.0, 2.0, np.arange(4.0, 13.0)]
    l_diag = np.r_[0.0, 1.0, 2.0, np.zeros(8), 1.0]
    with pytest.raises(InputError, match=r"at Omega = 1\.0: "):
        sweep(_levels(e, l_diag), l_diag, np.linspace(0.0, 1.5, 7))
