import numpy as np
import pytest
from math import inf, nan, pi, sqrt

from critgyro.errors import ParameterError, StructureError
from critgyro.fock import Mode, enumerate_basis
from critgyro.hamiltonian import (
    ModelParams,
    assemble,
    build_operators,
    matvec,
    physical_to_g,
)
from critgyro.melem import ElementCache, v_element
from oracle import oracle_hamiltonian


def build(n, g, anisotropy, omega, l_max=None):
    l_max = n + 2 if l_max is None else l_max
    basis = enumerate_basis(n, 2, l_max)
    cache = ElementCache.build(basis.modes)
    params = ModelParams(n_particles=n, g=g, anisotropy=anisotropy,
                         omega=omega, l_max=l_max)
    return basis, cache, assemble(basis, params, cache)


def test_params_validation():
    with pytest.raises(ParameterError):
        ModelParams(n_particles=-1, g=0.5, anisotropy=0.0, omega=0.0)
    with pytest.raises(ParameterError):
        ModelParams(n_particles=2, g=-0.1, anisotropy=0.0, omega=0.0)
    p = ModelParams(n_particles=4, g=0.5, anisotropy=0.0, omega=0.0)
    assert p.l_max == 6


def test_params_warns_on_large_anisotropy():
    with pytest.warns(UserWarning):
        ModelParams(n_particles=2, g=0.1, anisotropy=0.2, omega=0.0)


def test_condensate_diagonal():
    # one-body N plus pair count times the condensate self-element g/(2 pi)
    basis, cache, ham = build(6, 0.5, 0.04, 0.3, l_max=8)
    dense = ham.to_dense()
    i = basis.index_of({Mode(0, 0): 6})
    expect = 6 + 0.5 * 6 * 5 * (0.5 / (2 * pi))
    assert dense[i, i] == pytest.approx(expect, rel=1e-12)


def test_symmetric_by_construction():
    _, _, ham = build(4, 0.6, 0.05, 0.7)
    dense = ham.to_dense()
    assert np.array_equal(dense, dense.T)


def test_block_diagonal_without_anisotropy():
    basis, _, ham = build(4, 0.5, 0.0, 0.4)
    for r, c in zip(ham.rows, ham.cols):
        assert basis.L[r] == basis.L[c]


def test_deformation_offdiagonal_ladder_factor():
    basis, cache, ham = build(6, 0.0, 0.04, 0.0, l_max=8)
    dense = ham.to_dense()
    s = basis.index_of({Mode(0, 0): 6})
    t = basis.index_of({Mode(0, 0): 5, Mode(0, 2): 1})
    expect = sqrt(6) * v_element(Mode(0, 0), Mode(0, 2), 0.04)
    assert dense[t, s] == pytest.approx(expect, rel=1e-12)


def test_omega_enters_linearly_on_the_diagonal():
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    h1 = assemble(basis, ModelParams(3, 0.5, 0.04, 0.2, l_max=5), cache)
    h2 = assemble(basis, ModelParams(3, 0.5, 0.04, 0.9, l_max=5), cache)
    diff = h2.to_dense() - h1.to_dense()
    assert np.allclose(diff, np.diag(-(0.9 - 0.2) * basis.L), atol=1e-12)


def test_matvec():
    _, _, ham = build(2, 0.5, 0.03, 0.5)
    zero = np.zeros(ham.dim)
    assert np.array_equal(matvec(ham, zero), zero)
    dense = ham.to_dense()
    e0 = np.zeros(ham.dim)
    e0[3] = 1.0
    assert np.allclose(matvec(ham, e0), dense[:, 3], atol=1e-15)
    with pytest.raises(StructureError):
        matvec(ham, np.ones(ham.dim + 1))


@pytest.mark.parametrize("n,g,a,omega", [(2, 0.5, 0.04, 0.6), (3, 0.7, 0.02, 0.85)])
def test_matches_dense_ladder_oracle(n, g, a, omega):
    basis, cache, ham = build(n, g, a, omega)
    modes, states, ref = oracle_hamiltonian(n, g, a, omega, 2, n + 2)
    assert [tuple(m) for m in basis.modes] == modes
    # the oracle sorts states purely lexicographically; map the orders
    perm = [basis.index[occ] for occ in states]
    dense = ham.to_dense()[np.ix_(perm, perm)]
    assert np.max(np.abs(dense - ref)) < 1e-12


def test_assemble_matches_oracle_n4():
    basis, _, ham = build(4, 0.5, 0.04, 0.7, l_max=6)
    modes, states, ref = oracle_hamiltonian(4, 0.5, 0.04, 0.7, 2, 6)
    perm = [basis.index[occ] for occ in states]
    assert np.max(np.abs(ham.to_dense()[np.ix_(perm, perm)] - ref)) < 1e-12


@pytest.mark.parametrize("g,a,omega", [(0.5, 0.04, 0.0), (0.6, 0.025, 0.9),
                                       (0.5, 0.012, 0.3)])
def test_assemble_is_linear_in_its_parameters(g, a, omega):
    basis = enumerate_basis(6, 2, 8)
    cache = ElementCache.build(basis.modes)
    ops = build_operators(basis, cache)

    def full(upper):
        dense = upper.toarray()
        return dense + np.triu(dense, 1).T

    expect = (np.diag(ops.d) + a * full(ops.v) + g * full(ops.u)
              - omega * np.diag(ops.l))
    got = assemble(basis, ModelParams(6, g, a, omega, l_max=8), cache).to_dense()
    assert np.max(np.abs(got - expect)) < 1e-14


def test_matvec_matches_oracle_product():
    n = 2
    basis, cache, ham = build(n, 0.5, 0.04, 0.6)
    modes, states, ref = oracle_hamiltonian(n, 0.5, 0.04, 0.6, 2, n + 2)
    perm = np.array([basis.index[occ] for occ in states])
    rng = np.random.default_rng(5)
    v = rng.standard_normal(ham.dim)
    ours = matvec(ham, v)
    theirs = ref @ v[perm]
    assert np.max(np.abs(ours[perm] - theirs)) < 1e-12


def test_cache_basis_mismatch():
    basis = enumerate_basis(2, 2, 4)
    other = enumerate_basis(2, 2, 3)
    cache = ElementCache.build(other.modes)
    with pytest.raises(StructureError):
        assemble(basis, ModelParams(2, 0.5, 0.0, 0.0, l_max=4), cache)


def test_build_operators_is_shared_per_basis_and_cache():
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    ops = build_operators(basis, cache)
    assert build_operators(basis, cache) is ops
    # a second cache over the same modes is another object: rebuilt, equal
    other = ElementCache.build(basis.modes)
    rebuilt = build_operators(basis, other)
    assert rebuilt is not ops
    assert np.array_equal(rebuilt.d, ops.d) and np.array_equal(rebuilt.l, ops.l)
    assert (rebuilt.v != ops.v).nnz == 0 and (rebuilt.u != ops.u).nnz == 0
    assert build_operators(basis, other) is rebuilt
    with pytest.raises(ValueError):
        ops.d[0] = 0.0


@pytest.mark.parametrize("g,a,omega", [(nan, 0.04, 0.9), (inf, 0.04, 0.9),
                                       (-0.1, 0.04, 0.9), (0.5, nan, 0.9),
                                       (0.5, -0.04, 0.9), (0.5, 0.04, nan)])
def test_hamiltonian_refuses_unphysical_parameters(g, a, omega):
    basis = enumerate_basis(2, 2, 4)
    ops = build_operators(basis, ElementCache.build(basis.modes))
    with pytest.raises(ParameterError):
        ops.hamiltonian(g, a, omega)


def test_physical_to_g():
    assert physical_to_g(0.0, 1e-25, 2 * pi * 1000) == 0.0
    g1 = physical_to_g(5.2e-9, 1.44e-25, 2 * pi * 1000)
    g4 = physical_to_g(5.2e-9, 1.44e-25, 4 * 2 * pi * 1000)
    assert g4 == pytest.approx(2 * g1, rel=1e-12)
    # rubidium-like numbers land at a dimensionless strength of order 0.1
    assert 0.01 < g1 < 1.0
    with pytest.raises(ParameterError):
        physical_to_g(1e-9, -1.0, 1.0)
    with pytest.raises(ParameterError):
        physical_to_g(1e-9, 1e-25, 0.0)
