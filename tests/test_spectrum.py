import numpy as np
import pytest

import critgyro.spectrum as spectrum
from critgyro.errors import ConvergenceError, ParameterError
from critgyro.fock import Mode, enumerate_basis
from critgyro.curves import PRESCAN_POINTS, PRESCAN_RANGE
from critgyro.hamiltonian import ModelParams, SparseHamiltonian, assemble, build_operators
from critgyro.melem import ElementCache
from critgyro.observables import condensate_index
from critgyro.spectrum import ground_state, lowest_k, sweep_lowest, sweep_sector
from oracle import oracle_hamiltonian, reference_sweep_followed


def diag_ham(values):
    n = len(values)
    return SparseHamiltonian(
        dim=n,
        rows=np.arange(n, dtype=np.int64),
        cols=np.arange(n, dtype=np.int64),
        vals=np.asarray(values, dtype=float),
    )


def physical(n, g, a, omega):
    basis = enumerate_basis(n, 2, n + 2)
    cache = ElementCache.build(basis.modes)
    ham = assemble(basis, ModelParams(n, g, a, omega), cache)
    return basis, ham


def test_diagonal_matrix_ground_state():
    res = lowest_k(diag_ham([3.0, 1.0, 2.0]), 1)
    assert res.energies[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(res.vectors[:, 0]) == pytest.approx([0, 1, 0], abs=1e-12)


def test_k_validation():
    ham = diag_ham([1.0, 2.0])
    with pytest.raises(ParameterError):
        lowest_k(ham, 0)
    with pytest.raises(ParameterError):
        lowest_k(ham, 3)


def test_matches_dense_oracle_n2():
    basis, ham = physical(2, 0.5, 0.04, 0.6)
    _, _, ref = oracle_hamiltonian(2, 0.5, 0.04, 0.6, 2, 4)
    res = lowest_k(ham, 2)
    expect = np.sort(np.linalg.eigvalsh(ref))[:2]
    assert np.allclose(res.energies, expect, atol=1e-10)


def test_ground_state_is_condensate_dominated_without_rotation():
    """With no rotation and no anisotropy, the lowest state in the L = 0
    sector is the interaction-dressed condensate: the bare occupation-basis
    state is dominant but not exact, because the contact term couples it to
    pair and radial excitations inside the sector."""
    basis, ham = physical(6, 0.5, 0.0, 0.0)
    energy, vec = ground_state(ham)
    dense_spectrum = np.linalg.eigvalsh(ham.to_dense())
    assert energy == pytest.approx(dense_spectrum[0], abs=1e-10)
    i = basis.index_of({Mode(0, 0): 6})
    assert vec[i] ** 2 > 0.80
    # dressing lowers the energy strictly below the diagonal entry
    assert energy < ham.to_dense()[i, i] - 1e-3


def test_uniform_shift_moves_ground_energy():
    base = diag_ham([0.4, 1.7, 2.2])
    shifted = diag_ham([0.4 + 5.0, 1.7 + 5.0, 2.2 + 5.0])
    e0, _ = ground_state(base)
    e1, _ = ground_state(shifted)
    assert e1 - e0 == pytest.approx(5.0, abs=1e-12)


def test_variational_bound():
    _, ham = physical(3, 0.5, 0.04, 0.7)
    e0, _ = ground_state(ham)
    dense = ham.to_dense()
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.standard_normal(ham.dim)
        v /= np.linalg.norm(v)
        assert v @ dense @ v >= e0 - 1e-10


def test_ground_energy_is_lipschitz_in_omega():
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    delta = 1e-3
    for om in (0.0, 0.5, 0.9):
        e1, _ = ground_state(
            assemble(basis, ModelParams(3, 0.5, 0.04, om, l_max=5), cache)
        )
        e2, _ = ground_state(
            assemble(basis, ModelParams(3, 0.5, 0.04, om + delta, l_max=5), cache)
        )
        assert abs(e2 - e1) <= delta * 5 + 1e-12


def test_orthonormality_and_residuals():
    _, ham = physical(3, 0.6, 0.03, 0.8)
    res = lowest_k(ham, 4)
    overlap = res.vectors.T @ res.vectors
    assert np.allclose(np.diag(overlap), 1.0, atol=1e-12)
    assert np.max(np.abs(overlap - np.eye(4))) < 1e-10
    assert (res.residuals < 1e-9).all()
    assert (np.diff(res.energies) >= -1e-12).all()


def test_iterative_path_agrees_with_dense(monkeypatch):
    _, ham = physical(6, 0.5, 0.04, 0.88)
    dense = lowest_k(ham, 2)
    monkeypatch.setattr(spectrum, "DENSE_CUTOFF", 10)
    iterative = lowest_k(ham, 2, tol=1e-12)
    assert np.allclose(dense.energies, iterative.energies, atol=1e-9)


def test_convergence_error_carries_residual(monkeypatch):
    _, ham = physical(6, 0.5, 0.04, 0.88)
    monkeypatch.setattr(spectrum, "DENSE_CUTOFF", 10)

    def fail(*args, **kwargs):
        raise spectrum.spla.ArpackNoConvergence("no", np.array([]), np.array([]))

    monkeypatch.setattr(spectrum.spla, "eigsh", fail)
    with pytest.raises(ConvergenceError):
        lowest_k(ham, 1)


def test_sweep_follows_sector_through_exact_crossing():
    """At zero anisotropy the rotation sweep must stay on the followed
    branch even after another angular-momentum sector dips below it."""
    basis = enumerate_basis(4, 2, 6)
    cache = ElementCache.build(basis.modes)
    ham0 = assemble(basis, ModelParams(4, 0.5, 0.0, 0.0, l_max=6), cache)
    anchor = basis.index_of({Mode(0, 0): 4})
    omegas = np.linspace(0.7, 1.0, 61)
    sweep = sweep_lowest(ham0.to_dense(), basis.L.astype(float), omegas,
                         anchor_index=anchor)
    # the followed state keeps total L = 0 across the whole scan
    follow_l = np.array([vec**2 @ basis.L for vec in sweep.followed])
    assert np.max(np.abs(follow_l)) < 1e-8
    # while the true ground state has acquired angular momentum by the end
    assert sweep.vec0[-1] ** 2 @ basis.L > 3.0


def test_gap_positive_with_anisotropy():
    basis = enumerate_basis(4, 2, 6)
    cache = ElementCache.build(basis.modes)
    ham0 = assemble(basis, ModelParams(4, 0.5, 0.03, 0.0, l_max=6), cache)
    omegas = np.linspace(0.8, 1.0, 41)
    sweep = sweep_lowest(ham0.to_dense(), basis.L.astype(float), omegas, k=2)
    gap = sweep.energies[:, 1] - sweep.energies[:, 0]
    assert (gap > 0).all()


def test_sector_sweep_reproduces_full_space_p0():
    basis = enumerate_basis(4, 2, 6)
    cache = ElementCache.build(basis.modes)
    ham0 = assemble(basis, ModelParams(4, 0.5, 0.04, 0.0, l_max=6), cache)
    anchor = basis.index_of({Mode(0, 0): 4})
    l_diag = basis.L.astype(float)
    omegas = np.linspace(0.7, 1.0, 61)
    full = sweep_lowest(ham0.to_dense(), l_diag, omegas, anchor_index=anchor)
    sector = sweep_sector(ham0.to_dense(), l_diag, omegas, anchor)
    even = basis.L % 2 == 0
    assert sector.followed.shape == full.followed.shape
    assert not sector.followed[:, ~even].any()
    mask = basis.zero_momentum_mask()
    p_full = (full.followed[:, mask] ** 2).sum(axis=1)
    p_sector = (sector.followed[:, mask] ** 2).sum(axis=1)
    assert np.max(np.abs(p_sector - p_full)) < 1e-10
    # the sector ground state is the full one wherever that one is even
    ground_even = (full.vec0[:, even] ** 2).sum(axis=1) > 0.5
    assert ground_even.any()
    assert np.allclose(sector.energies[ground_even, 0],
                       full.energies[ground_even, 0], atol=1e-12)


@pytest.mark.parametrize("g,a", [(0.6, 0.025), (0.5, 0.012)])
def test_lost_branch_resolves_like_the_full_spectrum(system6, monkeypatch, g, a):
    """On the curve pre-scan of these pairs the ground state loses the
    followed branch; the k-window rule keeps the branch a full-spectrum
    resolution picks, with fewer full-spectrum solves."""
    basis, cache = system6
    rows = np.flatnonzero(basis.L % 2 == 0)
    h0 = build_operators(basis, cache).hamiltonian(g, a, 0.0).to_dense()
    h0 = h0[np.ix_(rows, rows)]
    l_diag = basis.L[rows].astype(float)
    anchor = int(np.searchsorted(rows, condensate_index(basis)))
    omegas = np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS)
    ref, ref_full_solves = reference_sweep_followed(h0, l_diag, omegas, anchor)

    full_solves = []
    real = spectrum.sla.eigh

    def counting(mat, *args, **kwargs):
        if "subset_by_index" not in kwargs:
            full_solves.append(mat.shape)
        return real(mat, *args, **kwargs)

    monkeypatch.setattr(spectrum.sla, "eigh", counting)
    sweep = sweep_lowest(h0, l_diag, omegas, anchor_index=anchor)
    mask = basis.zero_momentum_mask()[rows]
    p_ref = (ref[:, mask] ** 2).sum(axis=1)
    p_got = (sweep.followed[:, mask] ** 2).sum(axis=1)
    assert ref_full_solves > 0
    assert len(full_solves) < ref_full_solves
    assert np.max(np.abs(p_got - p_ref)) <= 1e-12
