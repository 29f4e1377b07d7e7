from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import critgyro._kernels as kernels
from conftest import make_logistic_curve
from critgyro._backend import active_backend
from critgyro.curves import CurveCatalog, ResonanceCurve, catalog_load
from critgyro.estimate import ProtocolConfig, run_protocol
from oracle import reference_bayes_stage, reference_windowed_stage

REFERENCE_CATALOG = (Path(__file__).resolve().parent.parent
                     / "perfbench" / "data" / "reference_catalog.json")

CATALOG = CurveCatalog(curves=tuple(
    make_logistic_curve(anisotropy=0.01 * (i + 1), width=w)
    for i, w in enumerate((0.05, 0.02, 0.008))
))


def _support(result) -> int:
    return int(np.count_nonzero(result.posterior.mass))


def _windowed_and_shadowed(config, catalog=CATALOG):
    """The windowed run, and the full-grid stage driven by the windowed
    run's shifts; returns both results and both stages' own shifts."""
    real = kernels.bayes_stage
    windowed_shifts, shadow_shifts = [], []

    def windowed_stage(*args):
        done = real(*args)
        windowed_shifts.append(args[10].copy())
        return done

    def shadow_stage(*args):
        done = reference_bayes_stage(*args[:11], applied=next(applied))
        shadow_shifts.append(args[10].copy())
        return done

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "bayes_stage", windowed_stage)
        windowed = run_protocol(config, catalog)
        applied = iter(windowed_shifts)
        patch.setattr(kernels, "bayes_stage", shadow_stage)
        shadow = run_protocol(config, catalog)
    return (windowed, shadow,
            np.concatenate(windowed_shifts), np.concatenate(shadow_shifts))


def _assert_window_within_rounding(config, catalog=CATALOG):
    """The windowed stage against the full grid, one measurement at a time.

    Two free-running trajectories have no bound in n and G: a one-ulp change
    of the mean at measurement 1 (seed 216, G = 64, A = 0.03) moved sigma at
    measurement 542 by 4208 ulps, because each recentering feeds the mean's
    rounding back into the likelihood. So the full-grid stage applies the
    windowed run's shifts, and the two stages may differ only by the
    rounding of their different reduction orders. First order in u = 2^-53,
    after n measurements on G grid points with prior width X:
    - masses: each update rounds a product and a quotient by the stage's
      own norm, so on the window the posteriors agree up to a common factor
      and a pointwise relative error of at most 4nu; that moves the variance
      by at most 8nu and the mean by at most 8nu * X;
    - sums: G nonnegative terms summed in any order are off by at most
      (G - 1)u, so each posterior sums to 1 within (G + 1)u, each computed
      mean is within 2GuX of the exact one, and the dot product of the
      variance, whose terms (x - mean)^2 carry 3u, is off by (G + 2)u;
    - a mean off by d adds d^2 to the variance computed about it.
    Hence |sigma_w / sigma_f - 1| <= (4n + 2G + 8)u + (2GuX / sigma_f)^2,
    and the shifts, rel_center - mean, differ by at most
    (8n + 4G)uX + 2u|shift|. Mass outside the window is not in the bound:
    were the dropped mass to regrow, sigma would leave it.

    Returns the windowed result.
    """
    windowed, shadow, shift_w, shift_f = _windowed_and_shadowed(config, catalog)
    u, width, grid_size = 2.0 ** -53, config.prior_hi - config.prior_lo, config.grid_size
    n = np.arange(1, config.n_measurements + 1)
    assert np.array_equal(windowed.outcomes, shadow.outcomes)
    sigma = shadow.sigma_trace
    rel = np.abs(windowed.sigma_trace / sigma - 1.0)
    assert np.all(rel <= (4 * n + 2 * grid_size + 8) * u
                  + (2 * grid_size * u * width / sigma) ** 2)
    assert np.all(np.abs(shift_w - shift_f)
                  <= (8 * n + 4 * grid_size) * u * width + 2 * u * np.abs(shift_f))
    assert 0.0 <= windowed.dropped_mass <= grid_size * kernels.WINDOW_FLOOR
    return windowed


def test_window_matches_full_grid_untuned_10k():
    cfg = ProtocolConfig(seed=3, n_measurements=10_000,
                         initial_g=0.5, initial_anisotropy=0.01)
    windowed = _assert_window_within_rounding(cfg)
    assert _support(windowed) < 0.2 * cfg.grid_size
    assert windowed.dropped_mass > 0.0


def test_window_matches_full_grid_two_retunes():
    cfg = ProtocolConfig(seed=3, n_measurements=300, schedule=(12, 32),
                         initial_g=0.5, initial_anisotropy=0.01)
    windowed = _assert_window_within_rounding(cfg)
    assert len(windowed.stage_params) == 3
    assert _support(windowed) < cfg.grid_size


def test_window_matches_full_grid_batch_size_200():
    cfg = ProtocolConfig(seed=3, n_measurements=2000, batch_size=200,
                         initial_g=0.5, initial_anisotropy=0.01)
    windowed = _assert_window_within_rounding(cfg)
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
       batch_size=st.sampled_from((1, 7, 50)),
       retunes=st.sampled_from(((), (12,), (12, 32))),
       initial_anisotropy=st.sampled_from((0.01, 0.02, 0.03)),
       omega_true=st.floats(0.88, 0.92))
def test_window_property_dropped_mass_bounded_and_sigma_matches(
        seed, grid_size, n_measurements, batch_size, retunes,
        initial_anisotropy, omega_true):
    """`_assert_window_within_rounding` over drawn configurations; a retune
    after `r` batches comes at measurement r * batch_size."""
    _assert_window_within_rounding(ProtocolConfig(
        seed=seed, grid_size=grid_size, n_measurements=n_measurements,
        batch_size=batch_size, schedule=tuple(r * batch_size for r in retunes),
        initial_g=0.5, initial_anisotropy=initial_anisotropy, omega_true=omega_true))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype == np.float64 and b.dtype == np.float64:
        a, b = a.view(np.uint64), b.view(np.uint64)
    return np.array_equal(a, b)


def _kernel_and_oracle(kernel, args):
    """Run the kernel on one stage's arguments and the pre-trim oracle on
    copies of them (outputs included, so untouched entries match too);
    assert that the two write and return the same bits."""
    copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    done = kernel(*args)
    assert done == reference_windowed_stage(*copies)
    for got, want in zip(args, copies):
        assert _same_bits(got, want)
    return done


@pytest.fixture(scope="module")
def reference_catalog():
    return catalog_load(REFERENCE_CATALOG)


@pytest.mark.parametrize("config, n_stages", [
    (ProtocolConfig(seed=11, n_measurements=10_000), 1),
    (ProtocolConfig(seed=11, n_measurements=100), 1),
    (ProtocolConfig(seed=11, n_measurements=100, schedule=(12,)), 2),
    (ProtocolConfig(seed=11, n_measurements=100, schedule=(12, 32)), 3),
    (ProtocolConfig(seed=11, n_measurements=400, batch_size=200,
                    schedule=(200,)), 2),
    (ProtocolConfig(seed=11, n_measurements=1000, batch_size=7), 1),
], ids=["untuned_10k", "fig4_untuned", "fig4_one_tuning", "fig4_two_tunings",
        "array", "batch_size_7"])
def test_kernel_writes_the_pre_trim_oracles_bits(config, n_stages,
                                                  reference_catalog, monkeypatch):
    stages, kernel = [], kernels.bayes_stage

    def checked(*args):
        stages.append(args[6].shape[0])
        return _kernel_and_oracle(kernel, args)

    monkeypatch.setattr(kernels, "bayes_stage", checked)
    run_protocol(config, reference_catalog)
    assert len(stages) == n_stages and sum(stages) == config.n_measurements


def test_protocol_runs_a_curve_on_a_jittered_grid_with_the_oracles_bits(monkeypatch):
    """run_protocol takes a curve on any strictly ascending grid: each point
    of a 401-point grid jittered by up to 20% of its step, 2000 measurements
    with one retune, every stage the pre-trim oracle's bits."""
    rng = np.random.default_rng(17)

    def jittered(anisotropy, width):
        curve = make_logistic_curve(anisotropy=anisotropy, width=width, points=401)
        step = curve.omega[1] - curve.omega[0]
        omega = curve.omega + rng.uniform(-0.2, 0.2, 401) * step
        tau = width / (2 * np.log(9.0))
        return ResonanceCurve.from_values(0.5, anisotropy, omega,
                                          1.0 / (1.0 + np.exp((omega - 0.90) / tau)))

    catalog = CurveCatalog(curves=(jittered(0.01, 0.05), jittered(0.02, 0.008)))
    steps = np.diff(catalog.curves[0].omega)
    assert steps.max() - steps.min() > 0.5 * steps.mean()
    stages, kernel = [], kernels.bayes_stage

    def checked(*args):
        stages.append(args[6].shape[0])
        return _kernel_and_oracle(kernel, args)

    monkeypatch.setattr(kernels, "bayes_stage", checked)
    config = ProtocolConfig(seed=5, n_measurements=2000, schedule=(20,),
                            initial_g=0.5, initial_anisotropy=0.01)
    result = run_protocol(config, catalog)
    assert stages == [20, 1980]
    assert [a for _, _, a in result.stage_params] == [0.01, 0.02]


def test_kernel_matches_the_oracle_on_a_stage_that_annihilates():
    """A trimmed first recentering, two zero outcomes that leave mass only
    left of a step, then a one outcome with zero likelihood there: the
    stage returns 2 with outcome and shift written through measurement 2
    and sigma through measurement 1, as the oracle does."""
    x = np.linspace(0.0, 1.0, 50)
    mass = np.zeros(50)
    mass[5:45] = 1.0
    mass[[5, 44]] = 1e-40  # below WINDOW_FLOOR of the mass at the mean
    mass /= mass.sum()
    xc = np.linspace(0.0, 1.0, 201)
    pc = np.where(xc < 0.5, 1.0, 0.0)
    pc[100] = 0.5
    uniforms = np.array([0.1, 0.2, 0.7, 0.3, 0.4])
    n = len(uniforms)
    out = (np.full(n, -1.0), np.full(n, -1, dtype=np.int8), np.full(n, -1.0),
           np.zeros(n))
    done = _kernel_and_oracle(kernels.bayes_stage,
                              (mass, x, xc, pc, 0.5, 0.5, uniforms, n, *out))
    out_sigma, out_outcome, out_shift, out_dropped = out
    assert done == 2
    assert list(out_outcome) == [1, 1, 0, -1, -1]
    assert np.all(out_sigma[:2] > 0.0) and np.all(out_sigma[2:] == -1.0)
    assert np.all(out_shift[3:] == -1.0)
    assert out_dropped[0] > 0.0 and mass[5] == mass[44] == 0.0


def test_kernel_interpolation_gives_np_interps_bits():
    """The compiled interpolation the kernel calls, against `np.interp`, on a
    uniform curve grid: on knots, between knots, and past either end (where
    it extends the end values flat), for array and scalar queries."""
    curve = make_logistic_curve(width=0.02)
    xc, pc = curve.offsets(), curve.p0
    rng = np.random.default_rng(7)
    cells = rng.integers(0, len(xc) - 1, 64)
    points = {
        "knots": xc[::7],
        "between": xc[cells] + rng.random(64) * (xc[cells + 1] - xc[cells]),
        "below": xc[0] - np.array([1e-12, 1e-3, 0.5]),
        "above": xc[-1] + np.array([1e-12, 1e-3, 0.5]),
    }
    for kind, q in points.items():
        assert _same_bits(kernels._interp(q, xc, pc), np.interp(q, xc, pc)), kind
        for p in q.tolist():
            assert _same_bits(kernels._interp(p, xc, pc), np.interp(p, xc, pc)), kind
    assert np.all(kernels._interp(points["below"], xc, pc) == pc[0])
    assert np.all(kernels._interp(points["above"], xc, pc) == pc[-1])


def test_active_backend_reports_known_value():
    assert active_backend() == "numpy"
