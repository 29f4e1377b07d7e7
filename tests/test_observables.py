import numpy as np
import pytest
import scipy.sparse as sp

import critgyro.fock as fock

from critgyro.curves import ResonanceCurve
from critgyro.errors import InputError, ParameterError, RangeError
from critgyro.fock import Mode, enumerate_basis
from critgyro.hamiltonian import System
from critgyro.melem import ElementCache
from critgyro.observables import (
    GapProfile,
    adiabatic_time,
    expected_L,
    gap_profile,
    hwhm_points,
    p_zero,
    preparation_hwhm,
    spdm,
    spdm_branch_gap,
    transition_width,
)
from critgyro.spectrum import sweep_lowest
from conftest import make_logistic_curve, row_of, rows_of
from oracle import oracle_hamiltonian, oracle_spdm


@pytest.fixture(scope="module")
def basis6():
    return enumerate_basis(6, 2, 8)


def unit_state(basis, occupations):
    psi = np.zeros(basis.size)
    psi[row_of(basis, occupations)] = 1.0
    return psi


def test_p_zero_pure_condensate(basis6):
    assert p_zero(unit_state(basis6, {Mode(0, 0): 6}), basis6) == 1.0


def test_p_zero_vortex_state(basis6):
    assert p_zero(unit_state(basis6, {Mode(0, 1): 6}), basis6) == 0.0


def test_p_zero_counts_both_landau_levels(basis6):
    psi = (
        unit_state(basis6, {Mode(0, 0): 6})
        + unit_state(basis6, {Mode(0, 0): 5, Mode(1, 0): 1})
        + unit_state(basis6, {Mode(0, 0): 5, Mode(0, 1): 1})
    ) / np.sqrt(3)
    assert p_zero(psi, basis6) == pytest.approx(2 / 3, rel=1e-12)


def test_p_zero_rejects_unnormalized(basis6):
    with pytest.raises(InputError):
        p_zero(np.ones(basis6.size), basis6)
    stack = np.stack([unit_state(basis6, {Mode(0, 0): 6}), np.ones(basis6.size)])
    with pytest.raises(InputError):
        p_zero(stack, basis6)


def test_expected_L_examples(basis6):
    assert expected_L(unit_state(basis6, {Mode(0, 0): 6}), basis6) == 0.0
    assert expected_L(unit_state(basis6, {Mode(0, 1): 6}), basis6) == 6.0
    psi = (
        unit_state(basis6, {Mode(0, 0): 6})
        + unit_state(basis6, {Mode(0, 1): 6})
    ) / np.sqrt(2)
    assert expected_L(psi, basis6) == pytest.approx(3.0, rel=1e-12)


def test_spdm_pure_condensate(basis6):
    dens = spdm(unit_state(basis6, {Mode(0, 0): 6}), basis6)
    i = basis6.modes.index(Mode(0, 0))
    expect = np.zeros((len(basis6.modes), len(basis6.modes)))
    expect[i, i] = 6.0
    assert np.allclose(dens.matrix, expect, atol=1e-14)
    assert dens.eigenvalues[0] == pytest.approx(6.0)


def test_spdm_superposition_across_landau_levels():
    # both kets have L = 0; occupation differences of six suppress coherences
    basis = enumerate_basis(6, 7, 0)
    psi = (
        unit_state(basis, {Mode(0, 0): 6}) + unit_state(basis, {Mode(1, 0): 6})
    ) / np.sqrt(2)
    dens = spdm(psi, basis)
    i00 = basis.modes.index(Mode(0, 0))
    i10 = basis.modes.index(Mode(1, 0))
    assert dens.matrix[i00, i00] == pytest.approx(3.0, rel=1e-12)
    assert dens.matrix[i10, i10] == pytest.approx(3.0, rel=1e-12)
    assert abs(dens.matrix[i00, i10]) < 1e-14


def test_spdm_matches_oracle_on_random_state():
    basis = enumerate_basis(2, 2, 4)
    modes, states, _ = oracle_hamiltonian(2, 0.5, 0.04, 0.5, 2, 4)
    rng = np.random.default_rng(8)
    psi = rng.standard_normal(basis.size)
    psi /= np.linalg.norm(psi)
    dens = spdm(psi, basis)
    perm = rows_of(basis, states)
    ref = oracle_spdm(psi[perm], modes, states)
    assert np.max(np.abs(dens.matrix - ref)) < 1e-12


def test_spdm_invariants(basis6):
    rng = np.random.default_rng(17)
    psi = rng.standard_normal(basis6.size)
    psi /= np.linalg.norm(psi)
    dens = spdm(psi, basis6)
    assert np.allclose(dens.matrix, dens.matrix.T, atol=1e-14)
    assert abs(np.trace(dens.matrix) - 6.0) < 1e-10
    assert dens.eigenvalues.min() > -1e-12
    assert (np.diff(dens.eigenvalues) <= 1e-12).all()


def test_spdm_of_a_stack_equals_per_vector_spdm(basis6):
    rng = np.random.default_rng(23)
    psis = rng.standard_normal((7, basis6.size))
    psis /= np.linalg.norm(psis, axis=1)[:, None]
    batch = spdm(psis, basis6)
    nm = len(basis6.modes)
    assert batch.matrix.shape == (7, nm, nm) and batch.eigenvalues.shape == (7, nm)
    assert batch.eigenvectors.shape == (7, nm, nm)
    for k, psi in enumerate(psis):
        one = spdm(psi, basis6)
        assert np.max(np.abs(batch.matrix[k] - one.matrix)) < 1e-14
        assert np.max(np.abs(batch.eigenvalues[k] - one.eigenvalues)) < 1e-14
        assert abs(np.trace(batch.matrix[k]) - 6.0) < 1e-12


def test_expected_L_and_branch_gap_of_a_stack_match_each_state(basis6):
    """A stack gives an array with one entry per row; one state a float."""
    psis = np.stack([unit_state(basis6, {Mode(0, 0): 6}),
                     unit_state(basis6, {Mode(0, 1): 6}),
                     unit_state(basis6, {Mode(0, 0): 3, Mode(0, 1): 3})])
    exp_l = expected_L(psis, basis6)
    gaps = spdm_branch_gap(spdm(psis, basis6), basis6)
    assert exp_l.shape == gaps.shape == (3,)
    assert np.array_equal(exp_l, [0.0, 6.0, 3.0])
    for k, psi in enumerate(psis):
        assert isinstance(expected_L(psi, basis6), float)
        one = spdm_branch_gap(spdm(psi, basis6), basis6)
        assert isinstance(one, float) and one == gaps[k]
    assert gaps[0] > 0 > gaps[1]


def test_branch_gap_of_a_one_mode_basis_is_its_occupation():
    basis = enumerate_basis(3, 1, 0)
    psi = unit_state(basis, {Mode(0, 0): 3})
    assert spdm_branch_gap(spdm(psi, basis), basis) == 3.0
    assert np.array_equal(spdm_branch_gap(spdm(np.stack([psi, psi]), basis), basis), [3.0, 3.0])


def test_spdm_hop_table_is_built_once_per_basis(monkeypatch):
    basis = enumerate_basis(3, 2, 5)
    calls = []
    real = fock.ladder_entries

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fock, "ladder_entries", counting)
    psi = unit_state(basis, {Mode(0, 0): 3})
    spdm(psi, basis)
    built = len(calls)
    spdm(psi, basis)
    assert built == len(basis.modes)
    assert len(calls) == built


def test_cached_basis_tables_are_read_only(basis6):
    src, tgt, table_t = basis6.spdm_hop_table
    for arr in (basis6.zero_momentum_mask, src, tgt,
                table_t.data, table_t.indices, table_t.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_spdm_contraction_keeps_the_bits_of_the_hop_row_product(system6):
    """`table_t @ (psi[src] * psi[tgt])` gives the bits of the row-vector
    product `psi[src] * psi[tgt] @ table` with the untransposed table."""
    basis, cache = system6
    system = System(basis, cache)
    sweep = sweep_lowest(system.sector_h0(0.5, 0.04), system.sector_l,
                         np.linspace(0.8, 0.95, 16))
    followed = system.lift(sweep.followed)
    src, tgt, table_t = basis.spdm_hop_table
    table = sp.csr_matrix(table_t.T)
    nm = len(basis.modes)
    dens = spdm(followed, basis)
    for psi, matrix in zip(followed, dens.matrix):
        upper = (psi[src] * psi[tgt] @ table).reshape(nm, nm)
        assert np.array_equal(table_t @ (psi[src] * psi[tgt]), upper.ravel())
        rows, cols = np.triu_indices(nm, 1)
        assert np.array_equal(matrix[rows, cols], upper[rows, cols])


def test_spdm_branch_gap_sign(basis6):
    cond = spdm(unit_state(basis6, {Mode(0, 0): 6}), basis6)
    vort = spdm(unit_state(basis6, {Mode(0, 1): 6}), basis6)
    assert spdm_branch_gap(cond, basis6) > 0
    assert spdm_branch_gap(vort, basis6) < 0


def test_critical_frequency_step():
    """The critical frequency is a curve's first downward 0.5 crossing,
    `ResonanceCurve.center`."""
    omega = np.linspace(0.8, 1.0, 201)
    p = np.where(omega < 0.9, 1.0, 0.0)
    oc = ResonanceCurve.from_values(0.5, 0.04, omega, p).center
    assert abs(oc - 0.9) <= (omega[1] - omega[0])


def test_critical_frequency_linear_ramp():
    omega = np.linspace(0.0, 1.0, 101)
    curve = ResonanceCurve.from_values(0.5, 0.04, omega, 1 - omega)
    assert curve.center == pytest.approx(0.5, abs=1e-12)


def test_curve_that_never_crosses_0_5_has_no_center():
    omega = np.linspace(0.0, 1.0, 11)
    curve = ResonanceCurve.from_values(0.5, 0.04, omega, np.full(11, 0.8))
    assert curve.center is None and curve.rel_center is None


def test_transition_width_step_and_ramp():
    omega = np.linspace(0.8, 1.0, 201)
    step = np.where(omega < 0.9, 1.0, 0.0)
    assert transition_width(omega, step) <= (omega[1] - omega[0]) + 1e-12
    ramp_omega = np.linspace(0.0, 1.0, 501)
    assert transition_width(ramp_omega, 1 - ramp_omega) == pytest.approx(
        0.8, abs=1e-12
    )
    with pytest.raises(RangeError):
        transition_width(ramp_omega, np.full(501, 0.5))


def test_hwhm_triangle():
    omega = np.linspace(-1, 1, 2001)
    density = np.maximum(1 - np.abs(omega), 0)
    assert hwhm_points(omega, density) == pytest.approx(0.5, abs=1e-3)


def test_hwhm_flat_distribution_spans_support():
    omega = np.linspace(0.0, 1.0, 101)
    assert hwhm_points(omega, np.ones(101)) == pytest.approx(0.5, abs=1e-12)


def test_gap_profile_requires_anisotropy(basis6):
    cache = ElementCache.build(basis6.modes)
    with pytest.raises(ParameterError):
        gap_profile(basis6, cache, 0.5, 0.0, np.linspace(0.8, 0.9, 5), center=0.9)


def test_gap_profile_small_system():
    basis = enumerate_basis(3, 2, 5)
    cache = ElementCache.build(basis.modes)
    omegas = np.linspace(0.7, 1.0, 31)
    prof = gap_profile(basis, cache, 0.5, 0.01, omegas, center=0.9)
    assert (prof.gap > 0).all()
    assert np.isfinite(prof.l01).all()


def test_gap_profile_stays_in_the_ramp_parity_sector(basis6):
    # odd-L states never couple to the even-L ramp: as state 1 they would
    # give |<1|L|0>| ~ 1e-13 and a vanishing adiabatic-time integrand
    cache = ElementCache.build(basis6.modes)
    omegas = np.linspace(0.67, 0.91, 25)
    prof = gap_profile(basis6, cache, 0.5, 0.04, omegas, center=0.894)
    assert prof.l01.min() > 1e-2
    assert (prof.gap > 0).all()


def synthetic_profile():
    omegas = np.linspace(0.6, 1.0, 401)
    gap = 0.05 + (omegas - 0.9) ** 2
    l01 = np.ones_like(omegas)
    return GapProfile(omegas=omegas, gap=gap, l01=l01, center=0.9)


def test_adiabatic_time_scales_inverse_eps():
    prof = synthetic_profile()
    assert adiabatic_time(prof, 0.0, eps=0.05) == pytest.approx(
        2 * adiabatic_time(prof, 0.0, eps=0.1), rel=1e-12
    )


def test_adiabatic_time_grows_toward_the_gap_minimum():
    prof = synthetic_profile()
    t_far = adiabatic_time(prof, -0.25)
    t_zero = adiabatic_time(prof, 0.0)
    assert t_zero > t_far > 0


def test_adiabatic_time_endpoint_validation():
    prof = synthetic_profile()
    with pytest.raises(RangeError):
        adiabatic_time(prof, 0.2)
    for eps in (0.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            adiabatic_time(prof, 0.0, eps=eps)


def test_adiabatic_time_partial_interval_is_interpolated():
    prof = synthetic_profile()
    # an endpoint between grid points integrates a consistent partial cell
    t1 = adiabatic_time(prof, -0.0505)
    t2 = adiabatic_time(prof, -0.0495)
    assert t1 < t2
    assert t2 - t1 < 0.01 * adiabatic_time(prof, 0.0)


@pytest.mark.parametrize("lo,hi", [(0.93, 0.87), (0.9, 0.9), (np.nan, 0.93), (0.87, np.inf)])
def test_preparation_hwhm_refuses_a_bad_prior(lo, hi):
    curve = make_logistic_curve(center=0.9, width=0.02)
    with pytest.raises(ParameterError):
        preparation_hwhm(curve, -0.01, lo, hi)
