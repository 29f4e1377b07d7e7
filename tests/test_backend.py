import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critgyro._kernels as kernels
from conftest import make_logistic_curve
from critgyro._backend import active_backend
from critgyro.curves import CurveCatalog, ResonanceCurve
from critgyro.estimate import ProtocolConfig, run_protocol
from oracle import reference_bayes_stage

CATALOG = CurveCatalog(curves=tuple(
    make_logistic_curve(anisotropy=0.01 * (i + 1), width=w)
    for i, w in enumerate((0.05, 0.02, 0.008))
))
SIGMA_RTOL = 1e-12


def _full_grid_stage(*args):
    return reference_bayes_stage(*args[:11])  # no window, nothing dropped


def _windowed_and_full(monkeypatch, config, catalog=CATALOG):
    windowed = run_protocol(config, catalog)
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "bayes_stage", _full_grid_stage)
        full = run_protocol(config, catalog)
    return windowed, full


def _assert_matches_reference(windowed, full):
    assert np.array_equal(windowed.outcomes, full.outcomes)
    rel = np.abs(windowed.sigma_trace - full.sigma_trace) / full.sigma_trace
    assert rel.max() <= SIGMA_RTOL
    assert 0.0 <= windowed.dropped_mass <= windowed.posterior.mass.size * kernels.WINDOW_FLOOR


def _support(result) -> int:
    return int(np.count_nonzero(result.posterior.mass))


def test_window_matches_full_grid_untuned_10k(monkeypatch):
    cfg = ProtocolConfig(seed=3, n_measurements=10_000,
                         initial_g=0.5, initial_anisotropy=0.01)
    windowed, full = _windowed_and_full(monkeypatch, cfg)
    _assert_matches_reference(windowed, full)
    assert _support(windowed) < 0.2 * cfg.grid_size
    assert windowed.dropped_mass > 0.0


def test_window_matches_full_grid_two_retunes(monkeypatch):
    cfg = ProtocolConfig(seed=3, n_measurements=300, schedule=(12, 32),
                         initial_g=0.5, initial_anisotropy=0.01)
    windowed, full = _windowed_and_full(monkeypatch, cfg)
    _assert_matches_reference(windowed, full)
    assert len(windowed.stage_params) == 3
    assert _support(windowed) < cfg.grid_size


def test_window_matches_full_grid_recenter_interval_200(monkeypatch):
    cfg = ProtocolConfig(seed=3, n_measurements=2000, recenter_interval=200,
                         initial_g=0.5, initial_anisotropy=0.01)
    windowed, full = _windowed_and_full(monkeypatch, cfg)
    _assert_matches_reference(windowed, full)
    assert _support(windowed) < cfg.grid_size


def test_shift_metamorphism_configuration_trims():
    """The rigid-shift configuration of criterion 9b narrows the window, so
    its bit-exact comparison runs through the trimming code."""
    omega = np.linspace(0.84375, 0.96875, 513)
    tau = 0.03 / (2 * np.log(9.0))
    p = 1.0 / (1.0 + np.exp((omega - 0.90625) / tau))
    cat = CurveCatalog(curves=(ResonanceCurve.from_values(0.5, 0.01, omega, p),))
    res = run_protocol(ProtocolConfig(
        seed=501, n_measurements=500, grid_size=257, initial_g=0.5,
        initial_anisotropy=0.01, omega_true=0.90625, prior_lo=0.875,
        prior_hi=0.9375), cat)
    assert res.dropped_mass > 0.0
    assert _support(res) < 257 // 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       grid_size=st.integers(64, 1001),
       n_measurements=st.integers(50, 1500),
       recenter_interval=st.sampled_from((None, 1, 7, 50)),
       schedule=st.sampled_from(((), (12,), (12, 32))),
       initial_anisotropy=st.sampled_from((0.01, 0.02, 0.03)),
       omega_true=st.floats(0.88, 0.92))
def test_window_property_dropped_mass_bounded_and_sigma_matches(
        seed, grid_size, n_measurements, recenter_interval, schedule,
        initial_anisotropy, omega_true):
    cfg = ProtocolConfig(seed=seed, grid_size=grid_size,
                         n_measurements=n_measurements,
                         recenter_interval=recenter_interval, schedule=schedule,
                         initial_g=0.5, initial_anisotropy=initial_anisotropy,
                         omega_true=omega_true)
    with pytest.MonkeyPatch.context() as monkeypatch:
        windowed, full = _windowed_and_full(monkeypatch, cfg)
    _assert_matches_reference(windowed, full)


def test_active_backend_reports_known_value():
    assert active_backend() == "numpy"
