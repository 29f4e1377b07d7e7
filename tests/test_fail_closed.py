"""Malformed input to a public entry point fails closed with a package error.

Each case calls one entry point with one malformed input and must raise a
`CritgyroError` subclass (the CLI maps those to its documented exit codes),
never a bare TypeError, IndexError or numpy ValueError.
"""

import json
import tempfile
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

from conftest import make_logistic_curve
from critgyro.curves import (
    CurveCatalog,
    ResonanceCurve,
    catalog_build,
    catalog_load,
    catalog_save,
    compute_curve,
    lookup_by_width,
)
from critgyro.errors import CritgyroError
from critgyro.estimate import (
    EnsembleResult,
    Posterior,
    ProtocolConfig,
    run_ensemble,
    sigma_scaling,
    trajectory_rng,
)
from critgyro.fock import KeyIndex, enumerate_basis
from critgyro.melem import ElementCache
from critgyro.observables import (
    GapProfile,
    adiabatic_time,
    crossing_offset,
    expected_L,
    gap_profile,
    hwhm_points,
    p_zero,
    preparation_hwhm,
    spdm,
    transition_width,
)
from critgyro.spectrum import ReducedModel, sweep_lowest


def _hwhm_without_center():
    curve = ResonanceCurve.from_values(0.5, 0.04, [0.8, 0.9, 1.0], [1.0, 0.9, 0.8])
    assert curve.center is None
    preparation_hwhm(curve, 0.0, 0.88, 0.92)


def _ensemble(n_trajectories):
    def call():
        config = ProtocolConfig(n_measurements=5)
        run_ensemble(config, CurveCatalog(curves=(make_logistic_curve(),)),
                     n_trajectories=n_trajectories)
    return call


def _of_a_nan_state(observable):
    def call():
        basis = enumerate_basis(2, 2, 4)
        observable(np.full(basis.size, nan), basis)
    return call


def _of_a_3d_stack(observable):
    def call():
        basis = enumerate_basis(2, 2, 4)
        observable(np.eye(basis.size)[None], basis)
    return call


def _median_sigma_at(mu):
    ens = EnsembleResult(sigma=np.ones((2, 3)), seeds=[(0, 0), (0, 1)], n_aborted=0,
                         abort_indices=[], max_dropped_mass=0.0)
    return lambda: ens.median_sigma(mu)


def _lookup_at(width):
    return lambda: lookup_by_width(CurveCatalog(curves=(make_logistic_curve(),)), width)


def _adiabatic_time_at_a_nan_offset():
    profile = GapProfile(omegas=np.linspace(0.8, 0.9, 3), gap=np.ones(3),
                         l01=np.ones(3), center=0.85)
    adiabatic_time(profile, nan)


def _on_a_small_system(sweep, grid):
    """`sweep(basis, cache, grid)` on N=2, n_LL=2, l_max=4."""
    def call():
        basis = enumerate_basis(2, 2, 4)
        sweep(basis, ElementCache.build(basis.modes), grid)
    return call


def _curve(basis, cache, grid):
    compute_curve(basis, cache, 0.5, 0.04, grid=grid)


def _gap_profile(basis, cache, grid):
    gap_profile(basis, cache, 0.5, 0.04, grid, center=0.9)


def _catalog_with_a_nan_anisotropy():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "catalog.json"
        catalog_save(CurveCatalog(curves=(make_logistic_curve(),)), path)
        payload = json.loads(path.read_text())
        payload["curves"][0]["anisotropy"] = nan  # written as the JSON token NaN
        path.write_text(json.dumps(payload))
        catalog_load(path)


def _curve_of(g, anisotropy):
    return lambda: ResonanceCurve.from_values(g, anisotropy, [0.8, 0.9, 1.0],
                                              [1.0, 0.5, 0.0])


def _one_state_gap_profile():
    basis = enumerate_basis(1, 1, 0)
    gap_profile(basis, ElementCache.build(basis.modes), 0.5, 0.04,
                np.linspace(0.8, 0.9, 3), center=0.85)


CASES = {
    "hwhm_of_a_curve_without_center": _hwhm_without_center,
    "curve_from_empty_arrays": lambda: ResonanceCurve.from_values(0.5, 0.04, [], []),
    "crossing_offset_of_empty_arrays": lambda: crossing_offset([], [], 0.5),
    "transition_width_of_empty_arrays": lambda: transition_width([], []),
    "hwhm_of_empty_arrays": lambda: hwhm_points([], []),
    "spdm_of_a_3d_stack": _of_a_3d_stack(spdm),
    "expected_L_of_a_3d_stack": _of_a_3d_stack(expected_L),
    "p_zero_of_a_state_of_another_basis": lambda: p_zero(np.eye(5)[0], enumerate_basis(2, 2, 4)),
    "ensemble_of_True_trajectories": _ensemble(True),
    "ensemble_of_2.5_trajectories": _ensemble(2.5),
    "ensemble_of_'3'_trajectories": _ensemble("3"),
    "gap_of_a_one_state_sector": _one_state_gap_profile,
    "curve_on_a_scalar_grid": _on_a_small_system(_curve, 0.9),
    "curve_on_a_descending_grid": _on_a_small_system(_curve, np.linspace(0.95, 0.85, 5)),
    "catalog_on_a_scalar_grid": _on_a_small_system(
        lambda basis, cache, grid: catalog_build(basis, cache, [(0.5, 0.04)], grid=grid), 0.9),
    "gap_profile_on_an_empty_grid": _on_a_small_system(_gap_profile, np.array([])),
    "gap_profile_on_a_2d_grid": _on_a_small_system(_gap_profile,
                                                   np.linspace(0.85, 0.95, 6).reshape(2, 3)),
    "lookup_in_an_empty_catalog": lambda: lookup_by_width(CurveCatalog(curves=()), 0.01),
    "lookup_of_a_nan_width": _lookup_at(nan),
    "lookup_of_a_negative_width": _lookup_at(-1.0),
    "lookup_of_an_infinite_width": _lookup_at(inf),
    "trajectory_rng_of_a_negative_seed": lambda: trajectory_rng(-1, 0),
    "trajectory_rng_of_a_negative_index": lambda: trajectory_rng(0, -1),
    "median_sigma_at_True": _median_sigma_at(True),
    "median_sigma_at_1.5": _median_sigma_at(1.5),
    "key_index_past_63_bits": lambda: KeyIndex.build(np.ones((1, 64), dtype=np.int64)),
    "curve_of_a_nan_omega": lambda: ResonanceCurve.from_values(0.5, 0.04, [0.8, nan, 1.0],
                                                               [1.0, 0.5, 0.0]),
    "curve_of_an_infinite_p0": lambda: ResonanceCurve.from_values(0.5, 0.04, [0.8, 0.9, 1.0],
                                                                  [inf, 0.5, 0.0]),
    "sweep_of_a_non_finite_matrix": lambda: sweep_lowest(
        np.array([[0.0, np.nan], [np.nan, 1.0]]), np.zeros(2), np.array([0.5])),
    "p_zero_of_a_nan_state": _of_a_nan_state(p_zero),
    "expected_L_of_a_nan_state": _of_a_nan_state(expected_L),
    "spdm_of_a_nan_state": _of_a_nan_state(spdm),
    "adiabatic_time_at_a_nan_offset": _adiabatic_time_at_a_nan_offset,
    "hwhm_at_a_nan_offset": lambda: preparation_hwhm(make_logistic_curve(), nan, 0.87, 0.93),
    "gap_profile_with_a_nan_center": _on_a_small_system(
        lambda basis, cache, grid: gap_profile(basis, cache, 0.5, 0.04, grid, center=nan),
        np.linspace(0.85, 0.95, 3)),
    "hwhm_of_a_nan_density": lambda: hwhm_points([0.8, 0.9, 1.0], [0.2, nan, 0.1]),
    "sigma_scaling_of_a_nan_trace": lambda: sigma_scaling(np.full(100, nan)),
    "posterior_of_a_nan_mass": lambda: Posterior(omega=np.array([0.8, 0.9]),
                                                 mass=np.array([nan, 1.0])),
    "transition_width_on_a_nan_grid": lambda: transition_width([0.8, nan, 1.0],
                                                               [1.0, 0.5, 0.0]),
    "crossing_offset_of_a_short_grid": lambda: crossing_offset([0.8, 0.9],
                                                                 [1.0, 0.9, 0.0], 0.5),
    "crossing_offset_of_a_long_grid": lambda: crossing_offset([0.8, 0.9, 1.0, 1.1],
                                                                [1.0, 0.0], 0.5),
    "hwhm_on_a_shorter_grid": lambda: hwhm_points([0.8, 0.9], [0.1, 1.0, 0.1]),
    "hwhm_on_a_longer_grid": lambda: hwhm_points([0.8, 0.9, 1.0, 1.1], [0.1, 1.0, 0.1]),
    "curve_of_a_nan_anisotropy": _curve_of(0.5, nan),
    "curve_of_a_negative_anisotropy": _curve_of(0.5, -1.0),
    "curve_of_a_string_g": _curve_of("0.5", 0.04),
    "catalog_of_a_nan_anisotropy": _catalog_with_a_nan_anisotropy,
    "continued_sweep_of_a_non_finite_matrix": lambda: ReducedModel(
        np.array([[0.0, 0.1, 0.0], [0.1, nan, 0.0], [0.0, 0.0, 1.0]]),
        np.array([0.0, 1.0, 2.0])).sweep(np.array([0.5, 0.6])),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_malformed_input_raises_a_package_error(call):
    with pytest.raises(Exception) as err:
        call()
    assert isinstance(err.value, CritgyroError), f"{type(err.value).__name__}: {err.value}"
