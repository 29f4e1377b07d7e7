import numpy as np
import pytest

import critgyro.curves as curves
import critgyro.estimate as estimate
from conftest import make_logistic_curve
from critgyro.curves import CurveCatalog, ResonanceCurve
from critgyro.errors import DegenerateUpdateError, ParameterError
from critgyro.estimate import (
    MeasurementRecord,
    Posterior,
    ProtocolConfig,
    bayes_update,
    init_prior,
    recenter_offset,
    retune,
    run_ensemble,
    run_protocol,
    sigma_scaling,
    simulate_outcome,
    trajectory_rng,
)
from oracle import oracle_bayes_update


def synthetic_catalog(widths=(0.05, 0.02, 0.008), center=0.90):
    curves = tuple(
        make_logistic_curve(anisotropy=0.01 * (i + 1), center=center, width=w)
        for i, w in enumerate(widths)
    )
    return CurveCatalog(curves=curves)


# ---------------------------------------------------------------------------
# priors and posteriors
# ---------------------------------------------------------------------------

def test_flat_prior_sigma_matches_uniform():
    post = init_prior(0.0, 1.0, 4001)
    assert post.sigma == pytest.approx(1 / np.sqrt(12), rel=1e-3)
    assert post.mean == pytest.approx(0.5, abs=1e-12)


def test_prior_sigma_for_default_window():
    post = init_prior(0.87, 0.93, 2001)
    assert post.sigma == pytest.approx(0.06 / np.sqrt(12), rel=1e-3)


def test_prior_validation():
    with pytest.raises(ParameterError):
        init_prior(1.0, 0.5, 100)
    with pytest.raises(ParameterError):
        init_prior(0.0, 1.0, 1)


def test_posterior_validation():
    with pytest.raises(ParameterError):
        Posterior(omega=np.array([0.0, 1.0]), mass=np.array([0.7, 0.2]))
    with pytest.raises(ParameterError):
        Posterior(omega=np.array([1.0, 0.0]), mass=np.array([0.5, 0.5]))
    with pytest.raises(ParameterError):
        Posterior(omega=np.array([0.0, 1.0]), mass=np.array([1.5, -0.5]))


def test_posterior_hwhm_flat():
    post = init_prior(0.0, 1.0, 101)
    assert post.hwhm == pytest.approx(0.5, abs=1e-9)


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------

def test_simulate_outcome_extremes():
    rng = np.random.default_rng(0)
    assert all(simulate_outcome(1.0, rng) for _ in range(20))
    assert not any(simulate_outcome(0.0, rng) for _ in range(20))
    with pytest.raises(ParameterError):
        simulate_outcome(1.2, rng)


def test_simulate_outcome_pinned_sequence():
    # frozen from one run at seed 42; guards the rng-consumption contract
    rng = np.random.default_rng(42)
    seq = [simulate_outcome(0.5, rng) for _ in range(10)]
    assert seq == [False, True, False, False, True, False, False,
                   False, True, True]


def test_simulate_outcome_consumes_one_draw():
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    simulate_outcome(0.3, a)
    b.random()
    assert a.random() == b.random()


# ---------------------------------------------------------------------------
# single updates
# ---------------------------------------------------------------------------

def test_update_with_constant_likelihood_is_identity():
    curve = ResonanceCurve.from_values(
        0.5, 0.04, np.linspace(0.8, 1.0, 21), np.full(21, 0.5)
    )
    post = init_prior(0.85, 0.95, 101)
    after = bayes_update(post, curve, 0.0, True)
    assert np.allclose(after.mass, post.mass, atol=1e-14)
    after = bayes_update(after, curve, 0.0, False)
    assert np.allclose(after.mass, post.mass, atol=1e-14)


def test_update_two_point_arithmetic():
    curve = ResonanceCurve.from_values(
        0.5, 0.04, np.array([0.0, 1.0]), np.array([0.8, 0.2])
    )
    post = Posterior(omega=np.array([0.0, 1.0]), mass=np.array([0.5, 0.5]))
    after = bayes_update(post, curve, 0.0, True)
    assert np.allclose(after.mass, [0.8, 0.2], atol=1e-12)
    ref = oracle_bayes_update([0.5, 0.5], [0.8, 0.2], True)
    assert np.allclose(after.mass, ref, atol=1e-12)


def test_update_step_likelihood_truncates():
    omega = np.linspace(0.0, 1.0, 1001)
    p = np.where(omega < 0.5, 1.0, 0.0)
    curve = ResonanceCurve.from_values(0.5, 0.04, omega, p)
    post = init_prior(0.0, 1.0, 1001)
    after = bayes_update(post, curve, 0.0, True)
    kept = after.omega < 0.5
    assert after.mass[~kept][1:].max() == 0.0
    nonzero = after.mass[after.mass > 0]
    assert np.allclose(nonzero, nonzero[0], rtol=1e-12)


def test_update_matches_loop_oracle_randomized():
    rng = np.random.default_rng(3)
    curve = make_logistic_curve(width=0.03)
    post = init_prior(0.85, 0.95, 301)
    for _ in range(5):
        outcome = bool(rng.integers(0, 2))
        like = curve.evaluate(post.omega + 0.01)
        ref = oracle_bayes_update(list(post.mass), list(like), outcome)
        post = bayes_update(post, curve, 0.01, outcome)
        assert np.allclose(post.mass, ref, atol=1e-13)


def test_degenerate_update_raises():
    omega = np.linspace(0.0, 0.5, 51)
    p = np.linspace(1.0, 0.0, 51)
    curve = ResonanceCurve.from_values(0.5, 0.04, omega, p)
    post = init_prior(2.0, 2.1, 51)  # support entirely on the 0-plateau
    with pytest.raises(DegenerateUpdateError):
        bayes_update(post, curve, 0.0, True)


# ---------------------------------------------------------------------------
# recentering and retuning
# ---------------------------------------------------------------------------

def test_recenter_offset_examples():
    curve = make_logistic_curve(center=0.9, width=0.02)
    post = init_prior(0.895, 0.905, 101)  # mean 0.9
    assert recenter_offset(post, curve) == pytest.approx(
        curve.center - 0.9, abs=1e-9
    )
    shifted = init_prior(0.795, 0.805, 101)
    assert recenter_offset(shifted, curve) == pytest.approx(
        curve.center - 0.8, abs=1e-9
    )


def test_retune_boundaries():
    cat = synthetic_catalog(widths=(0.05, 0.02, 0.008))
    wide_post = init_prior(0.0, 1.0, 101)  # sigma ~ 0.29, way over all widths
    assert retune(wide_post, cat, kappa=4.0) is cat.widest()
    single = CurveCatalog(curves=(make_logistic_curve(width=0.03),))
    assert retune(wide_post, single) is single.curves[0]


def test_retune_picks_published_second_stage(catalog_default):
    """A posterior with sigma = 0.0026 must select the (0.6, 0.025) curve
    from a catalog holding only the two published operating points."""
    two = CurveCatalog(curves=(
        catalog_default.find(0.5, 0.04),
        catalog_default.find(0.6, 0.025),
    ))
    sigma_target = 0.0026
    lo, hi = 0.9 - np.sqrt(3) * sigma_target, 0.9 + np.sqrt(3) * sigma_target
    post = init_prior(lo, hi, 501)
    assert post.sigma == pytest.approx(sigma_target, rel=3e-3)
    picked = retune(post, two, kappa=4.0)
    assert picked.key == (0.6, 0.025)


# ---------------------------------------------------------------------------
# protocol configuration
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        ProtocolConfig(schedule=(10, 5))
    with pytest.raises(ParameterError):
        ProtocolConfig(schedule=(12,), batch_size=5)
    with pytest.raises(ParameterError):
        ProtocolConfig(prior_lo=1.0, prior_hi=0.9)
    cfg = ProtocolConfig(schedule=(200,), batch_size=200, n_measurements=400)
    assert cfg.schedule == (200,)


def test_config_roundtrip():
    cfg = ProtocolConfig(seed=9, schedule=(12, 32), kappa=2.0)
    again = ProtocolConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ParameterError):
        ProtocolConfig.from_dict({"bogus": 1})


# ---------------------------------------------------------------------------
# full trajectories (synthetic catalog: no eigensolves)
# ---------------------------------------------------------------------------

def test_protocol_is_deterministic():
    cat = synthetic_catalog()
    cfg = ProtocolConfig(seed=123, n_measurements=200,
                         initial_g=0.5, initial_anisotropy=0.01)
    r1 = run_protocol(cfg, cat)
    r2 = run_protocol(cfg, cat)
    assert np.array_equal(r1.sigma_trace, r2.sigma_trace)
    assert np.array_equal(r1.outcomes, r2.outcomes)
    assert np.array_equal(r1.posterior.mass, r2.posterior.mass)


def test_seed_env_overrides_config(monkeypatch):
    cat = synthetic_catalog()
    cfg = ProtocolConfig(seed=1, n_measurements=50,
                         initial_g=0.5, initial_anisotropy=0.01)
    base = run_protocol(cfg, cat)
    monkeypatch.setenv("CRITGYRO_SEED", "999")
    overridden = run_protocol(cfg, cat)
    alt = run_protocol(
        ProtocolConfig(seed=999, n_measurements=50, initial_g=0.5,
                       initial_anisotropy=0.01), cat)
    assert np.array_equal(overridden.sigma_trace, alt.sigma_trace)
    assert not np.array_equal(overridden.sigma_trace, base.sigma_trace)


def test_records_follow_stages():
    cat = synthetic_catalog(widths=(0.05, 0.02, 0.008))
    cfg = ProtocolConfig(seed=5, n_measurements=40, schedule=(12, 32),
                         initial_g=0.5, initial_anisotropy=0.01)
    res = run_protocol(cfg, cat)
    assert len(res.records) == 40
    assert isinstance(res.records[0], MeasurementRecord)
    assert [r.index for r in res.records] == list(range(1, 41))
    # anisotropy switches exactly at the scheduled counts
    a_by_index = {r.index: r.anisotropy for r in res.records}
    assert a_by_index[12] == a_by_index[1]
    assert a_by_index[13] != a_by_index[12] or a_by_index[33] != a_by_index[32]
    assert (res.sigma_trace > 0).all()


def test_recentering_stabilizes():
    cat = synthetic_catalog(widths=(0.05,))
    cfg = ProtocolConfig(seed=11, n_measurements=400,
                         initial_g=0.5, initial_anisotropy=0.01)
    res = run_protocol(cfg, cat)
    deltas = res.deltas
    early = np.abs(np.diff(deltas[:20])).mean()
    late = np.abs(np.diff(deltas[-20:])).mean()
    assert late < early
    assert np.abs(np.diff(deltas[-50:])).max() < 5e-3


def test_batch_grouping_equals_sequential_with_same_cadence():
    cat = synthetic_catalog(widths=(0.05, 0.008))
    base = dict(seed=21, n_measurements=400, schedule=(200,),
                initial_g=0.5, initial_anisotropy=0.01)
    grouped = run_protocol(
        ProtocolConfig(batch_size=200, **base), cat)
    sequential = run_protocol(
        ProtocolConfig(batch_size=1, recenter_interval=200, **base), cat)
    assert np.array_equal(grouped.sigma_trace, sequential.sigma_trace)
    assert np.array_equal(grouped.outcomes, sequential.outcomes)
    assert np.array_equal(grouped.deltas, sequential.deltas)


def test_shift_metamorphism_bit_exact():
    """Rigidly shifting prior, truth and curve grid by a constant must
    reproduce the sigma trajectory bit for bit (same seed). All inputs are
    dyadic so the shifted grids are exactly representable."""
    shift = 0.25
    omega = np.linspace(0.84375, 0.96875, 513)   # step 2**-12
    tau = 0.03 / (2 * np.log(9.0))
    p = 1.0 / (1.0 + np.exp((omega - 0.90625) / tau))
    curve_a = ResonanceCurve.from_values(0.5, 0.01, omega, p)
    curve_b = ResonanceCurve.from_values(0.5, 0.01, omega + shift, p)
    cat_a = CurveCatalog(curves=(curve_a,))
    cat_b = CurveCatalog(curves=(curve_b,))
    common = dict(seed=77, n_measurements=300, grid_size=257,
                  initial_g=0.5, initial_anisotropy=0.01)
    cfg_a = ProtocolConfig(omega_true=0.90625, prior_lo=0.875,
                           prior_hi=0.9375, **common)
    cfg_b = ProtocolConfig(omega_true=0.90625 + shift, prior_lo=0.875 + shift,
                           prior_hi=0.9375 + shift, **common)
    res_a = run_protocol(cfg_a, cat_a)
    res_b = run_protocol(cfg_b, cat_b)
    assert np.array_equal(res_a.sigma_trace, res_b.sigma_trace)
    assert np.array_equal(res_a.outcomes, res_b.outcomes)
    assert np.array_equal(res_a.deltas, res_b.deltas)


def test_ensemble_reproducible_and_seed_isolated():
    cat = synthetic_catalog()
    cfg = ProtocolConfig(seed=31, n_measurements=60,
                         initial_g=0.5, initial_anisotropy=0.01)
    e1 = run_ensemble(cfg, cat, n_trajectories=8)
    e2 = run_ensemble(cfg, cat, n_trajectories=8)
    assert np.array_equal(e1.sigma, e2.sigma)
    assert e1.n_aborted == 0
    # distinct trajectories differ
    assert not np.array_equal(e1.sigma[0], e1.sigma[1])


def test_ensemble_seeds_replay_each_trajectory():
    cat = synthetic_catalog()
    cfg = ProtocolConfig(seed=5, n_measurements=60,
                         initial_g=0.5, initial_anisotropy=0.01)
    ens = run_ensemble(cfg, cat, n_trajectories=3)
    assert ens.seeds == [(5, 0), (5, 1), (5, 2)]
    for row, seed in zip(ens.sigma, ens.seeds):
        replay = run_protocol(cfg, cat, rng=trajectory_rng(*seed), collect_records=False)
        assert np.array_equal(replay.sigma_trace, row)


def test_non_integer_seed_env_is_a_parameter_error(monkeypatch):
    monkeypatch.setenv("CRITGYRO_SEED", "abc")
    cfg = ProtocolConfig(n_measurements=5, initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(ParameterError):
        run_protocol(cfg, synthetic_catalog())


def test_ensemble_counts_aborts(monkeypatch):
    cat = synthetic_catalog()
    cfg = ProtocolConfig(seed=31, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    calls = {"n": 0}
    real = estimate.run_protocol

    def flaky(config, catalog, rng=None, collect_records=True):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise DegenerateUpdateError("boom", measurement_index=calls["n"])
        return real(config, catalog, rng=rng, collect_records=collect_records)

    monkeypatch.setattr(estimate, "run_protocol", flaky)
    ens = run_ensemble(cfg, cat, n_trajectories=9)
    assert ens.n_aborted == 3
    assert ens.sigma.shape[0] == 6


@pytest.mark.parametrize("n_trajectories", [0, -1])
def test_ensemble_rejects_fewer_than_one_trajectory(n_trajectories):
    cfg = ProtocolConfig(seed=31, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(ParameterError):
        run_ensemble(cfg, synthetic_catalog(), n_trajectories=n_trajectories)


def test_ensemble_reports_largest_dropped_mass():
    cfg = ProtocolConfig(seed=31, n_measurements=300,
                         initial_g=0.5, initial_anisotropy=0.01)
    ens = run_ensemble(cfg, synthetic_catalog(), n_trajectories=4)
    dropped = [run_protocol(cfg, synthetic_catalog(), rng=trajectory_rng(*seed),
                            collect_records=False).dropped_mass
               for seed in ens.seeds]
    assert ens.max_dropped_mass == max(dropped) > 0.0


def test_sigma_scaling_synthetic():
    mu = np.arange(1, 10001)
    assert sigma_scaling(0.3 * mu**-0.5) == pytest.approx(-0.5, abs=1e-12)
    assert sigma_scaling(np.full(10000, 0.1)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ParameterError):
        sigma_scaling(np.ones(50))


@pytest.mark.parametrize("start_mu", [0, -3])
def test_sigma_scaling_refuses_a_start_below_one(start_mu):
    with pytest.raises(ParameterError):
        sigma_scaling(np.full(10000, 0.1), start_mu=start_mu)


def test_median_sigma_reads_only_measured_counts():
    sigma = np.array([[4.0, 3.0, 2.0], [6.0, 5.0, 1.0], [5.0, 4.0, 3.0]])
    ens = estimate.EnsembleResult(sigma=sigma, seeds=[], n_aborted=0,
                                  abort_indices=[], max_dropped_mass=0.0)
    assert np.array_equal(ens.median_sigma(), [5.0, 4.0, 2.0])
    assert [ens.median_sigma(mu) for mu in (1, 2, 3)] == [5.0, 4.0, 2.0]
    for mu in (0, -1, 4):
        with pytest.raises(ParameterError):
            ens.median_sigma(mu)


def test_curve_constants_are_computed_once_per_curve(monkeypatch):
    cat = synthetic_catalog()
    offsets = []
    real = curves.crossing_offset
    monkeypatch.setattr(curves, "crossing_offset",
                        lambda *args: offsets.append(1) or real(*args))
    cfg = ProtocolConfig(seed=5, n_measurements=40, schedule=(12, 32),
                         initial_g=0.5, initial_anisotropy=0.01)
    ens = run_ensemble(cfg, cat, n_trajectories=6)
    assert ens.n_aborted == 0
    assert 1 <= len(offsets) <= len(cat.curves)


def test_protocol_refuses_a_curve_on_a_non_uniform_grid():
    curve = make_logistic_curve(anisotropy=0.01)
    omega = curve.omega.copy()
    omega[len(omega) // 2] += 0.25 * (omega[1] - omega[0])
    cat = CurveCatalog(curves=(ResonanceCurve.from_values(0.5, 0.01, omega, curve.p0),))
    cfg = ProtocolConfig(seed=5, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(ParameterError, match="uniform"):
        run_protocol(cfg, cat)
