import ast
import contextlib
import dataclasses
import inspect
import math
import multiprocessing
import os
import re
import signal
import threading
import time

import numpy as np
import pytest

import critgyro._kernels as kernels
import critgyro.cli as cli
import critgyro.curves as curves
import critgyro.estimate as estimate
from conftest import make_logistic_curve
from critgyro.curves import CurveCatalog, ResonanceCurve, lookup_by_width
from critgyro.errors import DegenerateUpdateError, ParameterError, RangeError
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
    xc, rel_center = curve.offsets(), curve.rel_center
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
    cfg = ProtocolConfig(grid_size=2, n_measurements=2, batch_size=2,
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
    assert lookup_by_width(cat, 4.0 * wide_sigma) is cat.curves[-1]  # sorted by width
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


def test_config_schema_documents_exactly_the_fields():
    """The `ProtocolConfig` docstring is the `--config` schema: one entry
    (`name:` or `name, name:` at the margin) per field, none more. The
    keys that the batch size, `--trajectories` and `--catalog` replaced are
    unknown."""
    documented = []
    for line in inspect.cleandoc(ProtocolConfig.__doc__).splitlines():
        entry = re.match(r"([a-z_]+(?:, [a-z_]+)*): ", line)
        if entry:
            documented += entry.group(1).split(", ")
    assert sorted(documented) == sorted(ProtocolConfig.__dataclass_fields__)
    for removed in ({"recenter_interval": 3}, {"n_trajectories": 3},
                    {"catalog_path": "c.json"}):
        with pytest.raises(ParameterError, match="unknown config keys"):
            ProtocolConfig.from_dict(removed)


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


def test_estimator_reads_no_seed_variable(monkeypatch):
    """run_protocol seeds from config.seed and run_ensemble from master_seed
    (or config.seed); CRITGYRO_SEED changes neither."""
    cat = synthetic_catalog()
    cfg = ProtocolConfig(seed=1, n_measurements=50, schedule=(12,),
                         initial_g=0.5, initial_anisotropy=0.01)

    def runs():
        return (run_protocol(cfg, cat), run_ensemble(cfg, cat, n_trajectories=3),
                run_ensemble(cfg, cat, n_trajectories=3, master_seed=7))

    base = runs()
    monkeypatch.setenv("CRITGYRO_SEED", "999")
    with_env = runs()
    assert np.array_equal(with_env[0].sigma_trace, base[0].sigma_trace)
    assert with_env[1].seeds == [(1, 0), (1, 1), (1, 2)]
    assert with_env[2].seeds == [(7, 0), (7, 1), (7, 2)]
    for got, want in zip(with_env[1:], base[1:]):
        assert np.array_equal(got.sigma, want.sigma)


@pytest.mark.parametrize("master_seed", [-1, 2.5, True, "7"])
def test_ensemble_refuses_a_master_seed_that_is_no_integer_at_least_0(master_seed):
    cfg = ProtocolConfig(n_measurements=5, initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(ParameterError, match="master_seed"):
        run_ensemble(cfg, synthetic_catalog(), n_trajectories=2, master_seed=master_seed)


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


def test_batch_size_sets_the_recentering_cadence():
    """Each batch of 200 measurements shares one shift, and the shift moves
    between batches, across the retune at 200 too."""
    cat = synthetic_catalog(widths=(0.05, 0.008))
    res = run_protocol(ProtocolConfig(seed=21, n_measurements=600, schedule=(200,),
                                      batch_size=200, initial_g=0.5,
                                      initial_anisotropy=0.01), cat)
    batches = res.deltas.reshape(3, 200)
    assert np.all(batches == batches[:, :1])
    assert len(set(batches[:, 0])) == 3


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


def _trajectory_index(rng) -> int:
    """Index of the trajectory an ensemble made `rng` for (`trajectory_rng`)."""
    return rng.bit_generator.seed_seq.spawn_key[0]


def _aborting_every_third(real):
    """run_protocol, except that trajectories 2, 5, 8, ... abort; keyed by
    the trajectory index, so the same ones abort in every worker process."""
    def flaky(config, catalog, rng=None):
        index = _trajectory_index(rng)
        if index % 3 == 2:
            raise DegenerateUpdateError("boom", measurement_index=index + 1)
        return real(config, catalog, rng=rng)
    return flaky


def test_ensemble_counts_aborts(monkeypatch):
    cat = synthetic_catalog()
    cfg = ProtocolConfig(seed=31, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    monkeypatch.setattr(estimate, "run_protocol", _aborting_every_third(estimate.run_protocol))
    ens = run_ensemble(cfg, cat, n_trajectories=9)
    assert ens.n_aborted == 3
    assert ens.sigma.shape[0] == 6
    assert ens.abort_indices == [3, 6, 9]
    assert ens.seeds == [(31, i) for i in (0, 1, 3, 4, 6, 7)]


def test_ensemble_of_only_aborted_trajectories_raises(monkeypatch):
    def aborts(config, catalog, rng=None):
        raise DegenerateUpdateError("boom", measurement_index=_trajectory_index(rng) + 1)

    monkeypatch.setattr(estimate, "run_protocol", aborts)
    cfg = ProtocolConfig(n_measurements=10, initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(DegenerateUpdateError, match="every trajectory") as err:
        run_ensemble(cfg, synthetic_catalog(), n_trajectories=3)
    assert err.value.measurement_index is None


def test_workers_fall_back_to_the_cpu_count(monkeypatch):
    assert estimate._workers() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert estimate._workers() == (os.cpu_count() or 1)


def _ensembles_on(workers, monkeypatch, cfg, cat, n_trajectories):
    """The ensemble run with `_workers` patched to each count in `workers`."""
    out = []
    for count in workers:
        monkeypatch.setattr(estimate, "_workers", lambda count=count: count)
        ens = run_ensemble(cfg, cat, n_trajectories=n_trajectories)
        chunk = math.ceil(n_trajectories / min(count, n_trajectories))
        assert ens.workers == math.ceil(n_trajectories / chunk)
        out.append(ens)
    return out


def _assert_same_bits(a, b):
    assert np.array_equal(a.sigma, b.sigma)
    assert np.array_equal(a.seeds, b.seeds)
    assert np.array_equal(a.n_aborted, b.n_aborted)
    assert np.array_equal(a.abort_indices, b.abort_indices)
    assert np.array_equal(a.max_dropped_mass, b.max_dropped_mass)


@pytest.mark.parametrize("n_trajectories,schedule", [(9, ()), (7, ()), (8, (12, 32))])
def test_ensemble_on_two_workers_equals_one(n_trajectories, schedule, monkeypatch):
    """7 is not a multiple of the worker count; (12, 32) retunes twice."""
    cfg = ProtocolConfig(seed=31, n_measurements=300, schedule=schedule,
                         initial_g=0.5, initial_anisotropy=0.01)
    serial, pooled = _ensembles_on((1, 2), monkeypatch, cfg, synthetic_catalog(),
                                   n_trajectories)
    _assert_same_bits(serial, pooled)
    assert serial.max_dropped_mass > 0.0


def test_ensemble_forks_one_worker_per_chunk(monkeypatch):
    """5 trajectories on 4 CPUs make chunks of 2, 2, 1: three workers."""
    cfg = ProtocolConfig(seed=31, n_measurements=60,
                         initial_g=0.5, initial_anisotropy=0.01)
    serial, pooled = _ensembles_on((1, 4), monkeypatch, cfg, synthetic_catalog(), 5)
    _assert_same_bits(serial, pooled)
    assert pooled.workers == 3


def test_ensemble_with_aborts_on_two_workers_equals_one(monkeypatch):
    cfg = ProtocolConfig(seed=31, n_measurements=60,
                         initial_g=0.5, initial_anisotropy=0.01)
    monkeypatch.setattr(estimate, "run_protocol", _aborting_every_third(estimate.run_protocol))
    serial, pooled = _ensembles_on((1, 2), monkeypatch, cfg, synthetic_catalog(), 8)
    _assert_same_bits(serial, pooled)
    assert pooled.abort_indices == [3, 6]


def test_estimate_keeps_no_global_state():
    """Every input of the estimator, in the caller and in an ensemble's
    workers, is an argument: `estimate` rebinds no module name."""
    tree = ast.parse(inspect.getsource(estimate))
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Global)]


def _assert_no_child_or_thread(threads):
    """No process or thread an ensemble made is left. `active_children`
    sees only the processes `multiprocessing` made; `waitpid` sees all."""
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


def test_ensemble_pool_leaves_no_process_or_thread(monkeypatch):
    threads = threading.active_count()
    cfg = ProtocolConfig(seed=31, n_measurements=20,
                         initial_g=0.5, initial_anisotropy=0.01)
    monkeypatch.setattr(estimate, "_workers", lambda: 2)
    assert run_ensemble(cfg, synthetic_catalog(), n_trajectories=5).workers == 2
    _assert_no_child_or_thread(threads)


@pytest.mark.parametrize("error", [ParameterError, RangeError])
def test_worker_error_reaches_the_caller_with_its_type(error, monkeypatch):
    threads = threading.active_count()
    real = estimate.run_protocol

    def fails_at_three(config, catalog, rng=None):
        if _trajectory_index(rng) == 3:
            raise error("trajectory 3 failed")
        return real(config, catalog, rng=rng)

    monkeypatch.setattr(estimate, "run_protocol", fails_at_three)
    monkeypatch.setattr(estimate, "_workers", lambda: 2)
    cfg = ProtocolConfig(seed=31, n_measurements=20,
                         initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(error, match="trajectory 3 failed"):
        run_ensemble(cfg, synthetic_catalog(), n_trajectories=6)
    _assert_no_child_or_thread(threads)


def _spy_on_forks(monkeypatch) -> list:
    """The processes the ensemble forks, in the order it starts them."""
    started = []
    real = multiprocessing.context.ForkProcess.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", start)
    return started


@contextlib.contextmanager
def _within(seconds):
    """Fail the test instead of hanging once `seconds` have passed (not with
    a TimeoutError: `multiprocessing` swallows an OSError from `waitpid`)."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n_trajectories,cpus,forks", [(9, 2, 1), (5, 4, 2), (9, 1, 0)])
def test_ensemble_runs_chunk_0_in_the_caller_and_forks_the_rest(
        n_trajectories, cpus, forks, monkeypatch):
    """One process per chunk after the first: 5 trajectories on 4 CPUs
    make chunks 2, 2, 1. Each row is stamped with the pid that ran it."""
    started = _spy_on_forks(monkeypatch)
    real = estimate.run_protocol

    def stamped(config, catalog, rng=None):
        res = real(config, catalog, rng=rng)
        return dataclasses.replace(res, sigma_trace=np.full_like(res.sigma_trace, os.getpid()))

    monkeypatch.setattr(estimate, "run_protocol", stamped)
    monkeypatch.setattr(estimate, "_workers", lambda: cpus)
    cfg = ProtocolConfig(seed=31, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    ens = run_ensemble(cfg, synthetic_catalog(), n_trajectories=n_trajectories)
    assert len(started) == forks == ens.workers - 1
    pids = ens.sigma[:, 0]
    chunk = math.ceil(n_trajectories / ens.workers)
    assert np.all(pids[:chunk] == os.getpid())
    assert set(pids[chunk:]) == {child.pid for child in started}


def test_ensemble_hands_its_inputs_to_the_children_by_fork(monkeypatch):
    """The catalog reaches the forked process without being pickled."""
    def refused(self, protocol):
        raise AssertionError("catalog pickled")

    monkeypatch.setattr(CurveCatalog, "__reduce_ex__", refused)
    cfg = ProtocolConfig(seed=31, n_measurements=60, schedule=(12, 32),
                         initial_g=0.5, initial_anisotropy=0.01)
    serial, forked = _ensembles_on((1, 2), monkeypatch, cfg, synthetic_catalog(), 7)
    _assert_same_bits(serial, forked)


def test_callers_error_terminates_the_forked_process(monkeypatch):
    """Trajectory 0 fails in the caller while the child's trajectories
    would run for a minute: the error keeps its type, the child is
    terminated and reaped."""
    threads = threading.active_count()
    started = _spy_on_forks(monkeypatch)

    def fails_here_sleeps_there(config, catalog, rng=None):
        if _trajectory_index(rng) == 0:
            raise RangeError("trajectory 0 failed")
        time.sleep(60)

    monkeypatch.setattr(estimate, "run_protocol", fails_here_sleeps_there)
    monkeypatch.setattr(estimate, "_workers", lambda: 2)
    cfg = ProtocolConfig(seed=31, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    with _within(30), pytest.raises(RangeError, match="trajectory 0 failed"):
        run_ensemble(cfg, synthetic_catalog(), n_trajectories=4)
    assert [child.exitcode for child in started] == [-signal.SIGTERM]
    _assert_no_child_or_thread(threads)


def test_error_of_the_lowest_chunk_is_raised_first(monkeypatch):
    """5 trajectories on 4 CPUs make chunks 0-1, 2-3 and 4: the second
    child's error waits behind the first child's."""
    threads = threading.active_count()
    real = estimate.run_protocol

    def fails_at_two_and_four(config, catalog, rng=None):
        index = _trajectory_index(rng)
        if index in (2, 4):
            raise (ParameterError if index == 2 else RangeError)(f"trajectory {index} failed")
        return real(config, catalog, rng=rng)

    monkeypatch.setattr(estimate, "run_protocol", fails_at_two_and_four)
    monkeypatch.setattr(estimate, "_workers", lambda: 4)
    cfg = ProtocolConfig(seed=31, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    with pytest.raises(ParameterError, match="trajectory 2 failed"):
        run_ensemble(cfg, synthetic_catalog(), n_trajectories=5)
    _assert_no_child_or_thread(threads)


def test_child_that_exits_without_its_rows_raises_child_process_error(monkeypatch):
    threads = threading.active_count()
    real = estimate.run_protocol

    def exits_at_two(config, catalog, rng=None):
        if _trajectory_index(rng) == 2:  # the first of the forked chunk
            os._exit(3)
        return real(config, catalog, rng=rng)

    monkeypatch.setattr(estimate, "run_protocol", exits_at_two)
    monkeypatch.setattr(estimate, "_workers", lambda: 2)
    cfg = ProtocolConfig(seed=31, n_measurements=10,
                         initial_g=0.5, initial_anisotropy=0.01)
    with _within(30), pytest.raises(ChildProcessError, match="code 3"):
        run_ensemble(cfg, synthetic_catalog(), n_trajectories=4)
    _assert_no_child_or_thread(threads)


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
    assert sigma_scaling(np.full(100, 0.1)) == pytest.approx(0.0, abs=1e-12)
    for n in (0, 50, 99):
        with pytest.raises(ParameterError):
            sigma_scaling(np.ones(n))


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
    """Each curve finds its 0.5 crossing once, when it is made; an ensemble
    (its forked workers included) finds none."""
    thresholds = []
    real = curves.crossing_offset
    monkeypatch.setattr(curves, "crossing_offset",
                        lambda *args: thresholds.append(args[2]) or real(*args))
    cat = synthetic_catalog()
    assert thresholds == [0.5] * len(cat.curves)

    def refused(*args):
        raise AssertionError("a curve constant was computed during the ensemble")

    monkeypatch.setattr(curves, "crossing_offset", refused)
    cfg = ProtocolConfig(seed=5, n_measurements=40, schedule=(12, 32),
                         initial_g=0.5, initial_anisotropy=0.01)
    ens = run_ensemble(cfg, cat, n_trajectories=6)
    assert ens.n_aborted == 0 and len(ens.seeds) == 6


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


def test_protocol_refuses_a_prior_that_excludes_the_truth():
    with pytest.raises(ParameterError, match="omega_true 2.0 lies outside"):
        run_protocol(ProtocolConfig(n_measurements=50, omega_true=2.0,
                                    initial_anisotropy=0.01), synthetic_catalog())
