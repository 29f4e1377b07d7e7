import numpy as np
import pytest

import critgyro._kernels as kernels
import critgyro.cli as cli
import critgyro.curves as curves
import critgyro.estimate as estimate
from conftest import make_logistic_curve
from critgyro.curves import CurveCatalog, ResonanceCurve, lookup_by_width
from critgyro.errors import DegenerateUpdateError, ParameterError
from critgyro.estimate import (
    Posterior,
    ProtocolConfig,
    run_ensemble,
    run_protocol,
    sigma_scaling,
    trajectory_rng,
)
from oracle import oracle_bayes_update


def synthetic_catalog(widths=(0.05, 0.02, 0.008), center=0.90):
    curves = tuple(
        make_logistic_curve(anisotropy=0.01 * (i + 1), center=center, width=w)
        for i, w in enumerate(widths)
    )
    return CurveCatalog(curves=curves)


def _stage(mass, x, xc, pc, rel_center, true_off, uniforms, recenter_every=1):
    """Run `_kernels.bayes_stage` on fresh output arrays; returns
    (completed count, sigma, outcomes, shifts)."""
    n = len(uniforms)
    sigma, outcomes, shifts = np.zeros(n), np.zeros(n, dtype=np.int8), np.zeros(n)
    done = kernels.bayes_stage(mass, x, xc, pc, rel_center, true_off,
                               np.asarray(uniforms, dtype=float), recenter_every,
                               sigma, outcomes, shifts, np.zeros(n))
    return done, sigma, outcomes, shifts


def _prior_seen_by_the_kernel(monkeypatch, config):
    """(grid offsets, masses) that `run_protocol` hands its first stage."""
    seen = []
    real = kernels.bayes_stage

    def spy(mass, x, *args):
        seen.append((x.copy(), mass.copy()))
        return real(mass, x, *args)

    monkeypatch.setattr(kernels, "bayes_stage", spy)
    run_protocol(config, synthetic_catalog())
    return seen[0]


# ---------------------------------------------------------------------------
# priors and posteriors
# ---------------------------------------------------------------------------

def test_flat_prior_sigma_matches_uniform(monkeypatch):
    cfg = ProtocolConfig(prior_lo=0.0, prior_hi=1.0, grid_size=4001, omega_true=0.5,
                         n_measurements=1, initial_g=0.5, initial_anisotropy=0.01)
    x, mass = _prior_seen_by_the_kernel(monkeypatch, cfg)
    assert np.ptp(mass) == 0.0 and mass.sum() == pytest.approx(1.0, abs=1e-15)
    mean = mass @ x
    assert np.sqrt(mass @ (x - mean) ** 2) == pytest.approx(1 / np.sqrt(12), rel=1e-3)
    assert mean == pytest.approx(0.5, abs=1e-12)


def test_prior_sigma_for_default_window(monkeypatch):
    cfg = ProtocolConfig(n_measurements=1, initial_g=0.5, initial_anisotropy=0.01)
    x, mass = _prior_seen_by_the_kernel(monkeypatch, cfg)
    assert len(x) == 2001 and x[-1] == pytest.approx(0.06, abs=1e-15)
    mean = mass @ x
    assert np.sqrt(mass @ (x - mean) ** 2) == pytest.approx(0.06 / np.sqrt(12), rel=1e-3)


def test_prior_validation():
    with pytest.raises(ParameterError):
        ProtocolConfig(prior_lo=1.0, prior_hi=0.5)
    with pytest.raises(ParameterError):
        ProtocolConfig(prior_lo=0.0, prior_hi=1.0, grid_size=1)


def test_posterior_validation():
    with pytest.raises(ParameterError):
        Posterior(omega=np.array([0.0, 1.0]), mass=np.array([0.7, 0.2]))
    with pytest.raises(ParameterError):
        Posterior(omega=np.array([1.0, 0.0]), mass=np.array([0.5, 0.5]))
    with pytest.raises(ParameterError):
        Posterior(omega=np.array([0.0, 1.0]), mass=np.array([1.5, -0.5]))


# ---------------------------------------------------------------------------
# the Bayesian update (`_kernels.bayes_stage`)
# ---------------------------------------------------------------------------

def test_update_with_constant_likelihood_is_identity():
    x = np.linspace(0.0, 0.1, 101)
    prior = np.full(101, 1.0 / 101)
    mass = prior.copy()
    done, _, outcomes, _ = _stage(mass, x, np.linspace(0.0, 0.2, 21), np.full(21, 0.5),
                                  0.1, 0.05, [0.25, 0.75])
    assert done == 2 and list(outcomes) == [1, 0]
    assert np.allclose(mass, prior, atol=1e-14)


def test_update_two_point_arithmetic():
    mass = np.array([0.5, 0.5])
    # mean 0.5 lands on rel_center 0.5: no shift, likelihood (0.8, 0.2)
    done, _, outcomes, shifts = _stage(mass, np.array([0.0, 1.0]), np.array([0.0, 1.0]),
                                       np.array([0.8, 0.2]), 0.5, 0.5, [0.0])
    assert done == 1 and outcomes[0] == 1 and shifts[0] == 0.0
    assert np.allclose(mass, [0.8, 0.2], atol=1e-12)
    ref = oracle_bayes_update([0.5, 0.5], [0.8, 0.2], True)
    assert np.allclose(mass, ref, atol=1e-12)


def test_update_step_likelihood_truncates():
    x = np.linspace(0.0, 1.0, 1001)
    mass = np.full(1001, 1.0 / 1001)
    done, _, outcomes, _ = _stage(mass, x, x, np.where(x < 0.5, 1.0, 0.0),
                                  0.5, 0.25, [0.0])
    assert done == 1 and outcomes[0] == 1
    kept = x < 0.5
    assert mass[~kept][1:].max() == 0.0
    nonzero = mass[mass > 0]
    assert np.allclose(nonzero, nonzero[0], rtol=1e-12)


def test_update_matches_loop_oracle_randomized():
    """A stage with fixed uniforms equals a chain of plain-loop updates with
    the same outcomes and the same (once recentered) likelihood."""
    curve = make_logistic_curve(width=0.03)
    x = np.linspace(0.85, 0.95, 301) - 0.85
    mass = np.full(301, 1.0 / 301)
    ref = list(mass)
    xc, rel_center = curve.offsets(), curve.rel_center()
    uniforms = np.random.default_rng(3).random(5)
    done, sigma, outcomes, shifts = _stage(mass, x, xc, curve.p0, rel_center,
                                           0.9 - 0.85, uniforms, recenter_every=5)
    assert done == 5 and len(set(outcomes)) == 2
    assert np.all(shifts == rel_center - float(np.full(301, 1.0 / 301) @ x))
    like = np.interp(x + shifts[0], xc, curve.p0)
    for outcome, s in zip(outcomes, sigma):
        ref = oracle_bayes_update(ref, list(like), bool(outcome))
        mean = np.dot(ref, x)
        assert s == pytest.approx(np.sqrt(np.dot(ref, (x - mean) ** 2)), rel=1e-12)
    assert np.allclose(mass, ref, atol=1e-13)


def test_degenerate_update_raises():
    """Two grid points on either side of a step: once the first outcome puts
    all mass on one side, the opposite second outcome (no recentering in
    between) has zero likelihood there."""
    omega = np.linspace(0.8, 1.0, 201)
    p = np.where(np.arange(201) < 100, 1.0, 0.0)
    p[100] = 0.5
    cat = CurveCatalog(curves=(ResonanceCurve.from_values(0.5, 0.01, omega, p),))
    cfg = ProtocolConfig(grid_size=2, n_measurements=2, recenter_interval=2,
                         initial_g=0.5, initial_anisotropy=0.01)
    raised = []
    for seed in range(8):
        try:
            run_protocol(ProtocolConfig.from_dict({**cfg.to_dict(), "seed": seed}), cat)
        except DegenerateUpdateError as exc:
            raised.append(exc.measurement_index)
    assert raised and set(raised) == {2}


# ---------------------------------------------------------------------------
# recentering and retuning
# ---------------------------------------------------------------------------

def test_recenter_offset_examples():
    curve = make_logistic_curve(center=0.9, width=0.02)
    cat = CurveCatalog(curves=(curve,))
    for mean in (0.9, 0.8):  # the first shift maps the prior mean onto the center
        cfg = ProtocolConfig(prior_lo=mean - 0.005, prior_hi=mean + 0.005, grid_size=101,
                             omega_true=mean, n_measurements=1)
        delta = run_protocol(cfg, cat).deltas[0]
        assert delta == pytest.approx(curve.center - mean, abs=1e-9)


def test_retune_boundaries():
    cat = synthetic_catalog(widths=(0.05, 0.02, 0.008))
    wide_sigma = 1 / np.sqrt(12)  # a flat prior over [0, 1], way over all widths
    assert lookup_by_width(cat, 4.0 * wide_sigma) is cat.widest()
    single = CurveCatalog(curves=(make_logistic_curve(width=0.03),))
    assert lookup_by_width(single, estimate.KAPPA_DEFAULT * wide_sigma) is single.curves[0]


def test_retune_picks_published_second_stage(catalog_default):
    """A posterior with sigma = 0.0026 must select the (0.6, 0.025) curve
    from a catalog holding only the two published operating points."""
    two = CurveCatalog(curves=(
        catalog_default.find(0.5, 0.04),
        catalog_default.find(0.6, 0.025),
    ))
    picked = lookup_by_width(two, 4.0 * 0.0026)
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


def test_records_follow_stages(tmp_path):
    cat = synthetic_catalog(widths=(0.05, 0.02, 0.008))
    cfg = ProtocolConfig(seed=5, n_measurements=40, schedule=(12, 32),
                         initial_g=0.5, initial_anisotropy=0.01)
    res = run_protocol(cfg, cat)
    assert [first for first, _, _ in res.stage_params] == [1, 13, 33]
    assert res.stage_params[0][1:] == (0.5, 0.01)
    path = tmp_path / "trajectory.csv"
    cli._write_trajectory(path, res)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 41))
    # anisotropy switches exactly at the scheduled counts
    a_by_index = {int(r[0]): float(r[3]) for r in rows}
    for first, _, anisotropy in res.stage_params:
        assert a_by_index[first] == anisotropy
    assert a_by_index[12] == a_by_index[1]
    assert a_by_index[13] != a_by_index[12] or a_by_index[33] != a_by_index[32]
    assert [int(r[1]) for r in rows] == list(res.outcomes)
    assert [float(r[4]) for r in rows] == list(res.deltas)
    assert [float(r[5]) for r in rows] == list(res.sigma_trace)
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
        replay = run_protocol(cfg, cat, rng=trajectory_rng(*seed))
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

    def flaky(config, catalog, rng=None):
        calls["n"] += 1
        if calls["n"] % 3 == 0:
            raise DegenerateUpdateError("boom", measurement_index=calls["n"])
        return real(config, catalog, rng=rng)

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
    dropped = [run_protocol(cfg, synthetic_catalog(), rng=trajectory_rng(*seed)).dropped_mass
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


@pytest.mark.parametrize("k", [0, 3])
def test_annihilated_stage_raises_with_its_measurement_index(k, monkeypatch):
    """A second stage that completes k measurements aborts the trajectory at
    measurement stage_start + k + 1."""
    cfg = ProtocolConfig(seed=5, n_measurements=40, schedule=(12,),
                         initial_g=0.5, initial_anisotropy=0.01)
    real = kernels.bayes_stage
    calls = []

    def annihilates_in_stage_two(*args):
        calls.append(1)
        done = real(*args)
        return done if len(calls) == 1 else k

    monkeypatch.setattr(kernels, "bayes_stage", annihilates_in_stage_two)
    with pytest.raises(DegenerateUpdateError) as err:
        run_protocol(cfg, synthetic_catalog())
    assert err.value.measurement_index == 12 + k + 1
    assert len(calls) == 2


def test_protocol_refuses_an_initial_pair_missing_from_the_catalog():
    cfg = ProtocolConfig(n_measurements=5, initial_g=0.7, initial_anisotropy=0.01)
    with pytest.raises(ParameterError, match=r"g=0\.7, A=0\.01"):
        run_protocol(cfg, synthetic_catalog())


def test_protocol_refuses_a_curve_on_a_non_uniform_grid():
    curve = make_logistic_curve(anisotropy=0.01)
    omega = curve.omega.copy()
    omega[len(omega) // 2] += 0.25 * (omega[1] - omega[0])
    cat = CurveCatalog(curves=(ResonanceCurve.from_values(0.5, 0.01, omega, curve.p0),))
    cfg = ProtocolConfig(seed=5, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(ParameterError, match="uniform"):
        run_protocol(cfg, cat)
