import dataclasses
import numpy as np
import pytest
from math import inf, nan, pi, sqrt

import critgyro.spectrum as spectrum
from critgyro.curves import DEFAULT_CATALOG_PAIRS, compute_curve
from critgyro.errors import ParameterError, StructureError
from critgyro.fock import Mode, enumerate_basis
from critgyro.hamiltonian import SPARSITY_EPS, System, build_operators
from critgyro.melem import ElementCache
from critgyro.observables import gap_profile
from conftest import row_of, rows_of
from oracle import oracle_hamiltonian, oracle_v


def build(n, g, anisotropy, omega, l_max=None):
    l_max = n + 2 if l_max is None else l_max
    basis = enumerate_basis(n, 2, l_max)
    cache = ElementCache.build(basis.modes)
    return basis, cache, System(basis, cache).operators.hamiltonian(g, anisotropy, omega)


def test_params_validation():
    with pytest.raises(ParameterError):
        enumerate_basis(-1, 2, 4)
    with pytest.raises(ParameterError):
        build(2, -0.1, 0.0, 0.0)


def test_params_warns_on_large_anisotropy():
    basis = enumerate_basis(2, 2, 4)
    ops = System(basis, ElementCache.build(basis.modes)).operators
    with pytest.warns(UserWarning):
        ops.hamiltonian(0.1, 0.2, 0.0)


@pytest.mark.parametrize("path", ["compute_curve", "gap_profile"])
def test_every_h_build_warns_on_large_anisotropy(path):
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    omegas = np.linspace(0.8, 1.0, 5)
    with pytest.warns(UserWarning, match="anisotropy 0.15"):
        if path == "compute_curve":
            compute_curve(basis, cache, 0.5, 0.15, grid=omegas)
        else:
            gap_profile(basis, cache, 0.5, 0.15, omegas, center=0.9)


def test_condensate_diagonal():
    # one-body N plus pair count times the condensate self-element g/(2 pi)
    basis, cache, ham = build(6, 0.5, 0.04, 0.3, l_max=8)
    dense = ham.toarray()
    i = row_of(basis, {Mode(0, 0): 6})
    expect = 6 + 0.5 * 6 * 5 * (0.5 / (2 * pi))
    assert dense[i, i] == pytest.approx(expect, rel=1e-12)


def test_symmetric_by_construction():
    _, _, ham = build(4, 0.6, 0.05, 0.7)
    dense = ham.toarray()
    assert np.array_equal(dense, dense.T)


def test_block_diagonal_without_anisotropy():
    basis, _, ham = build(4, 0.5, 0.0, 0.4)
    for r, c in zip(*ham.nonzero()):
        assert basis.L[r] == basis.L[c]


def test_deformation_offdiagonal_ladder_factor():
    basis, cache, ham = build(6, 0.0, 0.04, 0.0, l_max=8)
    dense = ham.toarray()
    s = row_of(basis, {Mode(0, 0): 6})
    t = row_of(basis, {Mode(0, 0): 5, Mode(0, 2): 1})
    expect = sqrt(6) * oracle_v(Mode(0, 0), Mode(0, 2), 0.04)
    assert dense[t, s] == pytest.approx(expect, rel=1e-12)


def test_h_drops_the_cancellation_remainders_of_u(system6):
    """Terms of U that cancel exactly leave rounding remainders, below
    SPARSITY_EPS and far below every true entry; H at a ladder pair holds
    none of them."""
    ops = System.of(*system6).operators
    small = np.abs(ops.u.data) < SPARSITY_EPS
    assert np.count_nonzero(small) == 4 and np.abs(ops.u.data[small]).max() < 1e-16
    assert np.abs(ops.u.data[~small]).min() > 1e-3
    for g, a in DEFAULT_CATALOG_PAIRS:
        assert np.abs(ops.hamiltonian(g, a, 0.9).data).min() >= SPARSITY_EPS


def test_omega_enters_linearly_on_the_diagonal():
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    ops = System(basis, cache).operators
    h1 = ops.hamiltonian(0.5, 0.04, 0.2)
    h2 = ops.hamiltonian(0.5, 0.04, 0.9)
    diff = h2.toarray() - h1.toarray()
    assert np.allclose(diff, np.diag(-(0.9 - 0.2) * basis.L), atol=1e-12)


def test_matvec():
    _, _, ham = build(2, 0.5, 0.03, 0.5)
    dim = ham.shape[0]
    zero = np.zeros(dim)
    assert np.array_equal(ham @ zero, zero)
    dense = ham.toarray()
    e0 = np.zeros(dim)
    e0[3] = 1.0
    assert np.allclose(ham @ e0, dense[:, 3], atol=1e-15)
    with pytest.raises(ValueError):
        ham @ np.ones(dim + 1)


@pytest.mark.parametrize("n,g,a,omega", [(2, 0.5, 0.04, 0.6), (3, 0.7, 0.02, 0.85)])
def test_matches_dense_ladder_oracle(n, g, a, omega):
    basis, cache, ham = build(n, g, a, omega)
    modes, states, ref = oracle_hamiltonian(n, g, a, omega, 2, n + 2)
    assert [tuple(m) for m in basis.modes] == modes
    # the oracle sorts states purely lexicographically; map the orders
    perm = rows_of(basis, states)
    dense = ham.toarray()[np.ix_(perm, perm)]
    assert np.max(np.abs(dense - ref)) < 1e-12


def test_assemble_matches_oracle_n4():
    basis, _, ham = build(4, 0.5, 0.04, 0.7, l_max=6)
    modes, states, ref = oracle_hamiltonian(4, 0.5, 0.04, 0.7, 2, 6)
    perm = rows_of(basis, states)
    assert np.max(np.abs(ham.toarray()[np.ix_(perm, perm)] - ref)) < 1e-12


@pytest.mark.parametrize("g,a,omega", [(0.5, 0.04, 0.0), (0.6, 0.025, 0.9),
                                       (0.5, 0.012, 0.3)])
def test_assemble_is_linear_in_its_parameters(g, a, omega):
    basis = enumerate_basis(6, 2, 8)
    cache = ElementCache.build(basis.modes)
    ops = build_operators(basis, cache)
    expect = (np.diag(ops.d) + a * ops.v.toarray() + g * ops.u.toarray()
              - omega * np.diag(ops.l))
    got = System(basis, cache).operators.hamiltonian(g, a, omega).toarray()
    assert np.max(np.abs(got - expect)) < 1e-14


def test_matvec_matches_oracle_product():
    n = 2
    basis, cache, ham = build(n, 0.5, 0.04, 0.6)
    modes, states, ref = oracle_hamiltonian(n, 0.5, 0.04, 0.6, 2, n + 2)
    perm = np.array(rows_of(basis, states))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(ham.shape[0])
    ours = ham @ v
    theirs = ref @ v[perm]
    assert np.max(np.abs(ours[perm] - theirs)) < 1e-12


def test_cache_basis_mismatch():
    basis = enumerate_basis(2, 2, 4)
    other = enumerate_basis(2, 2, 3)
    cache = ElementCache.build(other.modes)
    with pytest.raises(StructureError):
        System(basis, cache).operators.hamiltonian(0.5, 0.0, 0.0)


def test_system_operators_are_shared_per_basis_and_cache():
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    ops = System.of(basis, cache).operators
    assert System.of(basis, cache).operators is ops
    # a second cache over the same modes is another object: rebuilt, equal
    other = ElementCache.build(basis.modes)
    rebuilt = System.of(basis, other).operators
    assert rebuilt is not ops
    assert np.array_equal(rebuilt.d, ops.d) and np.array_equal(rebuilt.l, ops.l)
    assert (rebuilt.v != ops.v).nnz == 0 and (rebuilt.u != ops.u).nnz == 0
    assert System.of(basis, other).operators is rebuilt
    with pytest.raises(ValueError):
        ops.d[0] = 0.0


@pytest.mark.parametrize("g,a", [(0.5, 0.04), (0.6, 0.025)])
def test_sector_h0_is_the_sector_block_of_the_dense_h(system6, g, a):
    """On the production basis the sector matrix, sliced from the sparse H
    before it is densified, is the sector block of the dense H, bit for
    bit."""
    system = System.of(*system6)
    full = system.operators.hamiltonian(g, a, 0.0).toarray()
    sector = np.ix_(system.sector_rows, system.sector_rows)
    assert np.array_equal(system.sector_h0(g, a), full[sector])


@pytest.mark.parametrize("grid", [0.9, [], [[0.85, 0.9], [0.92, 0.95]],
                                  [0.95, 0.9, 0.85], [0.85, 0.9, 0.9, 0.95],
                                  [0.85, nan, 0.95], [0.5, inf]],
                         ids=["scalar", "empty", "2d", "descending", "repeated",
                              "nan", "inf"])
def test_system_sweep_refuses_a_bad_grid_before_any_solve(grid, monkeypatch):
    """The grid is refused before the kept sweep is dropped or another
    pair's model is built."""
    basis = enumerate_basis(2, 2, 4)
    system = System(basis, ElementCache.build(basis.modes))
    kept = system.sweep(0.5, 0.04, [0.85, 0.9])
    model = system.model
    sweeps = []
    monkeypatch.setattr(spectrum.ReducedModel, "sweep",
                        lambda *args, **kwargs: sweeps.append(1))
    with pytest.raises(ParameterError, match="strictly ascending"):
        system.sweep(0.6, 0.04, grid)
    assert system.last_sweep is kept and system.model is model
    with pytest.raises(ParameterError, match="strictly ascending"):
        compute_curve(basis, system.cache, 0.5, 0.04, grid=grid)
    assert sweeps == []


def test_system_sweep_returns_the_kept_sweep_for_its_key(monkeypatch):
    """A sweep without `stop` for the kept g, A and points is the kept
    result; a new g, A or grid, and any call with `stop`, sweep again, and
    the kept sweep is released before each new one; a call with `stop`
    keeps nothing. Every sweep of one pair runs through that pair's one
    model, which a sweep of another pair replaces."""
    basis = enumerate_basis(4, 2, 6)
    system = System(basis, ElementCache.build(basis.modes))
    sweeps = []
    real = spectrum.ReducedModel.sweep

    def counting(self, *args, **kwargs):
        sweeps.append(self)
        assert system.last_sweep is None
        return real(self, *args, **kwargs)

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", counting)
    grid = np.linspace(0.85, 0.95, 11)
    first = system.sweep(0.5, 0.04, grid)
    assert system.last_sweep is first
    assert system.model[0] == (0.5, 0.04) and sweeps == [system.model[1]]
    grid[-1] = 2.0  # the key is a copy of the caller's points
    grid = np.linspace(0.85, 0.95, 11)
    assert system.sweep(0.5, 0.04, list(grid)) is first
    assert len(sweeps) == 1
    for g, a, points in ((0.5, 0.04, grid[:-1]), (0.6, 0.04, grid), (0.5, 0.03, grid),
                         (0.5, 0.04, grid)):
        again = system.sweep(g, a, points)
        assert again is not first
    assert len(sweeps) == 5
    assert sweeps[1] is sweeps[0] and len({id(model) for model in sweeps}) == 4
    for field in dataclasses.fields(first):  # a fresh model on the same grid
        assert np.array_equal(getattr(again, field.name), getattr(first, field.name)), field
    # `stop` sees full-basis states; a call with it always sweeps, and its
    # result, which certifies the ground state alone, is kept nowhere
    seen = []
    whole = system.sweep(0.5, 0.04, grid, stop=lambda state, sine: seen.append(state) or False)
    assert len(sweeps) == 6 and whole is not again
    assert np.array_equal(np.array(seen), system.lift(whole.followed))
    assert system.last_sweep is None
    assert len(whole.omegas) == len(grid)
    part = system.sweep(0.5, 0.04, grid, stop=lambda state, sine: True)
    assert len(sweeps) == 7 and len(part.omegas) == 1
    assert system.sweep(0.5, 0.04, grid) is not part
    assert len(sweeps) == 8 and len(set(map(id, sweeps[4:]))) == 1


@pytest.mark.parametrize("g,a,omega", [(nan, 0.04, 0.9), (inf, 0.04, 0.9),
                                       (-0.1, 0.04, 0.9), (0.5, nan, 0.9),
                                       (0.5, -0.04, 0.9), (0.5, 0.04, nan)])
def test_hamiltonian_refuses_unphysical_parameters(g, a, omega):
    basis = enumerate_basis(2, 2, 4)
    ops = build_operators(basis, ElementCache.build(basis.modes))
    with pytest.raises(ParameterError):
        ops.hamiltonian(g, a, omega)

