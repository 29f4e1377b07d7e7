"""Acceptance suite: one test per criterion clause, one printed verdict line
per criterion. Run with `pytest tests/test_acceptance.py -v -s`.

Reference constants pinned from this package's own computations are marked
REGRESSION; external reference values carry their published tolerance.
"""

from math import factorial

import numpy as np
import pytest
import scipy.linalg as sla

import critgyro as cg
from critgyro.curves import curve_diagnostics
from critgyro.estimate import ProtocolConfig, run_ensemble, run_protocol
from critgyro.melem import integral_i1, integral_i2
from critgyro.observables import (
    adiabatic_time,
    crossing_offset,
    gap_profile,
    p_zero,
    preparation_hwhm,
)
from conftest import rows_of
from oracle import default_rule, oracle_hamiltonian, oracle_i1, oracle_i2

# REGRESSION constants computed by this package (dense solves, Q = 40 rule)
PINNED_CENTER = 0.8938680973618636
PINNED_WIDTH = 0.05441022994017841

ENSEMBLE_SIZE = 200


def verdict(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def diagnostics_05_004(system6, curve_05_004):
    basis, cache = system6
    return curve_diagnostics(basis, cache, curve_05_004)


@pytest.fixture(scope="module")
def untuned_100(catalog_default):
    cfg = ProtocolConfig(seed=2026, n_measurements=100)
    return run_ensemble(cfg, catalog_default, n_trajectories=ENSEMBLE_SIZE)


@pytest.fixture(scope="module")
def untuned_10k(catalog_default):
    cfg = ProtocolConfig(seed=2027, n_measurements=10_000)
    return run_ensemble(cfg, catalog_default, n_trajectories=ENSEMBLE_SIZE)


# ---------------------------------------------------------------------------
# 1. matrix-element exactness
# ---------------------------------------------------------------------------

def test_criterion_1_quadrature_monomials():
    rule = default_rule()
    worst = 0.0
    for k in range(2 * rule.order):
        quad = rule.integrate(rule.nodes**k)
        worst = max(worst, abs(quad - factorial(k)) / factorial(k))
    verdict("1a", worst < 1e-10,
            f"monomial exactness k<=2Q-1, worst rel err {worst:.2e} (tol 1e-10)")


def test_criterion_1_integrals_match_gamma_oracle(system6):
    basis, cache = system6
    modes = basis.modes
    worst = 0.0
    checked = 0
    for i, k1 in enumerate(modes):
        for k2 in modes[i:]:
            if (abs(k1.m) + abs(k2.m)) % 2:
                continue
            quad = integral_i1(k1, k2)
            exact = oracle_i1(k1, k2)
            worst = max(worst, abs(quad - exact) / max(abs(exact), 1e-12))
            checked += 1
    for key in cache.u_raw:
        quad_modes = [modes[t] for t in key]
        quad = integral_i2(*quad_modes)
        exact = oracle_i2(*quad_modes)
        worst = max(worst, abs(quad - exact) / max(abs(exact), 1e-12))
        checked += 1
    verdict("1b", worst < 1e-9,
            f"{checked} integrals vs Gamma-expansion oracle, worst rel err "
            f"{worst:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# 2. dense ladder-operator oracle equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,g,a,omega", [(2, 0.5, 0.04, 0.6),
                                         (3, 0.5, 0.04, 0.85)])
def test_criterion_2_oracle_equivalence(n, g, a, omega):
    """H entry by entry, and the two lowest energies of the sector sweep
    the curves run against the oracle's own condensate sector: its states
    of even total L, the parity of the condensate's L = 0."""
    basis = cg.enumerate_basis(n, 2, n + 2)
    cache = cg.ElementCache.build(basis.modes)
    system = cg.System(basis, cache)
    ham = system.operators.hamiltonian(g, a, omega)
    modes, states, ref = oracle_hamiltonian(n, g, a, omega, 2, n + 2)
    perm = rows_of(basis, states)
    dense = ham.toarray()[np.ix_(perm, perm)]
    entry_err = float(np.max(np.abs(dense - ref)))
    ours = system.sweep(g, a, [omega]).energies[0]
    even = [i for i, occ in enumerate(states)
            if sum(c * mode[1] for mode, c in zip(modes, occ)) % 2 == 0]
    theirs = np.linalg.eigvalsh(ref[np.ix_(even, even)])[:2]
    eig_err = float(np.max(np.abs(ours - theirs)))
    verdict(f"2 (N={n})", entry_err < 1e-12 and eig_err < 1e-10,
            f"entrywise err {entry_err:.2e} (tol 1e-12), "
            f"eigenvalue err {eig_err:.2e} (tol 1e-10)")


# ---------------------------------------------------------------------------
# 3. structural physics
# ---------------------------------------------------------------------------

def test_criterion_3_block_diagonal_without_anisotropy(system6):
    basis, cache = system6
    rows, cols = cg.System(basis, cache).operators.hamiltonian(0.5, 0.0, 0.9).nonzero()
    mixing = int(np.sum(basis.L[rows] != basis.L[cols]))
    verdict("3a", mixing == 0,
            f"A=0 matrix has {mixing} entries between different L sectors")


def test_criterion_3_p_zero_plateau(system6, catalog_default):
    basis, cache = system6
    ops = cg.System(basis, cache).operators
    values = {}
    for curve in catalog_default.curves:
        ham = ops.hamiltonian(curve.g, curve.anisotropy, 0.0)
        _, vecs = sla.eigh(ham.toarray(), subset_by_index=(0, 0))
        values[curve.key] = p_zero(vecs[:, 0], basis)
    worst_key = min(values, key=values.get)
    ok = all(v > 0.99 for v in values.values())
    verdict("3b", ok,
            "p_zero(Omega=0) > 0.99 for all catalog pairs; worst "
            f"{values[worst_key]:.6f} at (g,A)={worst_key} "
            f"(interaction-driven condensate depletion caps the plateau)")


def test_criterion_3_spdm_trace(diagnostics_05_004):
    err = float(np.max(np.abs(diagnostics_05_004.spdm_trace - 6.0)))
    verdict("3c", err < 1e-10,
            f"SPDM trace equals N along the sweep, worst err {err:.2e}")


# ---------------------------------------------------------------------------
# 4. phase-transition diagnostics at (g, A) = (0.5, 0.04)
# ---------------------------------------------------------------------------

def test_criterion_4_center_and_width(curve_05_004):
    c = curve_05_004
    ok = (
        abs(c.center - PINNED_CENTER) < 5e-4
        and abs(c.center - 0.90) < 0.02
        and abs(c.width - PINNED_WIDTH) < 2e-3
        and c.width <= 0.06
    )
    verdict("4a", ok,
            f"center {c.center:.6f} (REGRESSION {PINNED_CENTER:.6f}, near 0.90), "
            f"width {c.width:.6f} <= 0.06")


def test_criterion_4_spdm_crossing_inside_width(curve_05_004,
                                                diagnostics_05_004):
    c = curve_05_004
    diag = diagnostics_05_004
    hi = c.omega[0] + crossing_offset(c.omega, c.p0, 0.9)
    lo = c.omega[0] + crossing_offset(c.omega, c.p0, 0.1)
    sign_changes = np.flatnonzero(np.diff(np.sign(diag.branch_gap)) != 0)
    crossings = [
        0.5 * (diag.omegas[i] + diag.omegas[i + 1]) for i in sign_changes
    ]
    inside = [x for x in crossings if hi <= x <= lo]
    verdict("4b", len(inside) > 0,
            f"two leading SPDM occupations swap at {inside or crossings} "
            f"inside width interval [{hi:.4f}, {lo:.4f}]")


def test_criterion_4_expected_L_rises(diagnostics_05_004):
    expl = diagnostics_05_004.exp_L
    drops = float(np.minimum(np.diff(expl), 0).min())
    ok = expl[0] < 0.5 and expl[-1] > 5.0 and drops > -1e-3
    verdict("4c", ok,
            f"<L> rises {expl[0]:.3f} -> {expl[-1]:.3f}, "
            f"worst local drop {drops:.1e} (tol 1e-3)")


# ---------------------------------------------------------------------------
# 5. untuned estimation against the published precision figures
# ---------------------------------------------------------------------------

def test_criterion_5_sigma_100(untuned_100):
    med = untuned_100.median_sigma(100)
    ok = 0.5 * 0.0037 <= med <= 1.5 * 0.0037
    verdict("5a", ok,
            f"median sigma(100) = {med:.4e}, reference 3.7e-3 +- 50% "
            f"({untuned_100.n_aborted} aborted)")


def test_criterion_5_sigma_10k(untuned_10k):
    med = untuned_10k.median_sigma(10_000)
    ok = 3.8e-4 / 2 <= med <= 3.8e-4 * 2
    verdict("5b", ok,
            f"median sigma(1e4) = {med:.4e}, reference 3.8e-4 within x2")


def test_criterion_5_tail_scaling(untuned_10k):
    slope = cg.sigma_scaling(untuned_10k.median_sigma())
    ok = abs(slope + 0.5) <= 0.05
    verdict("5c", ok, f"log-log tail slope {slope:.4f}, expected -0.5 +- 0.05")


# ---------------------------------------------------------------------------
# 6. tuning benefit with the (12, 32) schedule
# ---------------------------------------------------------------------------

def test_criterion_6_tuning_benefit(catalog_default, untuned_100):
    medians = {"untuned": untuned_100.median_sigma(100)}
    for name, schedule in (("one", (12,)), ("two", (12, 32))):
        cfg = ProtocolConfig(seed=2026, n_measurements=100, schedule=schedule)
        ens = run_ensemble(cfg, catalog_default, n_trajectories=ENSEMBLE_SIZE)
        medians[name] = ens.median_sigma(100)
    factor = medians["untuned"] / medians["two"]
    ordered = medians["two"] < medians["one"] < medians["untuned"]
    verdict("6", factor >= 5.0 and ordered,
            f"sigma(100): untuned {medians['untuned']:.3e} > one-tuning "
            f"{medians['one']:.3e} > two-tunings {medians['two']:.3e}; "
            f"improvement x{factor:.1f} (required >= 5, published run: >20)")


# ---------------------------------------------------------------------------
# 7. array mode: two batches of 200 traps, one retune
# ---------------------------------------------------------------------------

def test_criterion_7_array_mode(catalog_default):
    cfg = ProtocolConfig(seed=2028, n_measurements=400, schedule=(200,),
                         batch_size=200)
    ens = run_ensemble(cfg, catalog_default, n_trajectories=ENSEMBLE_SIZE)
    med = ens.median_sigma(400)
    ok = 1.8e-4 / 2 <= med <= 1.8e-4 * 2
    verdict("7", ok,
            f"array-mode median final sigma = {med:.3e}, reference 1.8e-4 "
            "within x2 (the batch-frozen recentering shift parks the "
            "operating point on the shallow wing of the step-like narrow "
            "resonance, capping the per-batch information)")


# ---------------------------------------------------------------------------
# 8. preparation offset study
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def offset_profile(system6, curve_05_004):
    basis, cache = system6
    ramp = np.linspace(curve_05_004.center - 0.22,
                       curve_05_004.center + 0.02, 241)
    return gap_profile(basis, cache, 0.5, 0.04, ramp,
                       center=curve_05_004.center)


def test_criterion_8_adiabatic_time_ratio(offset_profile):
    t_full = adiabatic_time(offset_profile, 0.0)
    t_early = adiabatic_time(offset_profile, -0.1)
    ratio = t_full / max(t_early, 1e-300)
    verdict("8a", ratio > 10,
            f"ramp time T(0)/T(-0.1) = {ratio:.3g} (required > 10)")


def test_criterion_8_hwhm_flat_over_offsets(curve_05_004):
    offsets = np.linspace(-0.1, 0.0, 11)
    hw = np.array([
        preparation_hwhm(curve_05_004, off, 0.87, 0.93) for off in offsets
    ])
    change = float((hw.max() - hw.min()) / hw.max())
    verdict("8b", change < 0.2,
            f"single-shot HWHM proxy varies {100 * change:.2f}% over "
            "[-0.1, 0] (required < 20%)")


def test_criterion_8_gap_minimum_inside_transition(system6, curve_05_004,
                                                   offset_profile):
    c = curve_05_004
    hi = c.omega[0] + crossing_offset(c.omega, c.p0, 0.9)
    lo = c.omega[0] + crossing_offset(c.omega, c.p0, 0.1)
    # The profile ramp steps 1e-3, while the minimum may sit within ~1e-5
    # of the interpolated crossings: resolve it at a step <= 1e-5 over the
    # two ramp cells around the coarse argmin.
    basis, cache = system6
    om = offset_profile.omegas
    i = int(np.argmin(offset_profile.gap))
    left, right = om[max(i - 1, 0)], om[min(i + 1, len(om) - 1)]
    fine = np.linspace(left, right, int(np.ceil((right - left) / 1e-5)) + 1)
    refined = gap_profile(basis, cache, 0.5, 0.04, fine, center=c.center)
    om_min = float(fine[np.argmin(refined.gap)])
    verdict("8c", hi <= om_min <= lo,
            f"gap minimum at {om_min:.6f} (step {fine[1] - fine[0]:.1e}, "
            f"coarse {om[i]:.4f}) inside width interval "
            f"[{hi:.6f}, {lo:.6f}]")


# ---------------------------------------------------------------------------
# 9. determinism and shift covariance
# ---------------------------------------------------------------------------

def test_criterion_9_trajectory_csv_bytes(tmp_path, catalog_default):
    import json as _json

    from critgyro.cli import main
    from critgyro.curves import catalog_save

    cat_path = tmp_path / "catalog.json"
    catalog_save(catalog_default, cat_path)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(_json.dumps({"seed": 99, "n_measurements": 80}))
    blobs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert main(["estimate", "--config", str(cfg_path),
                     "--catalog", str(cat_path),
                     "--out-dir", str(outdir)]) == 0
        blobs.append((outdir / "trajectory.csv").read_bytes())
    verdict("9a", blobs[0] == blobs[1],
            "identical config+seed reproduce byte-identical trajectory CSVs")


def test_criterion_9_shift_metamorphism():
    from critgyro.curves import CurveCatalog, ResonanceCurve

    shift = 0.25
    omega = np.linspace(0.84375, 0.96875, 513)  # dyadic grid, step 2**-12
    tau = 0.03 / (2 * np.log(9.0))
    p = 1.0 / (1.0 + np.exp((omega - 0.90625) / tau))
    cat_a = CurveCatalog(curves=(
        ResonanceCurve.from_values(0.5, 0.01, omega, p),))
    cat_b = CurveCatalog(curves=(
        ResonanceCurve.from_values(0.5, 0.01, omega + shift, p),))
    common = dict(seed=501, n_measurements=500, grid_size=257,
                  initial_g=0.5, initial_anisotropy=0.01)
    res_a = run_protocol(ProtocolConfig(
        omega_true=0.90625, prior_lo=0.875, prior_hi=0.9375, **common), cat_a)
    res_b = run_protocol(ProtocolConfig(
        omega_true=0.90625 + shift, prior_lo=0.875 + shift,
        prior_hi=0.9375 + shift, **common), cat_b)
    same = (
        np.array_equal(res_a.sigma_trace, res_b.sigma_trace)
        and np.array_equal(res_a.outcomes, res_b.outcomes)
        and np.array_equal(res_a.deltas, res_b.deltas)
    )
    verdict("9b", same,
            "rigid shift of prior, truth and curve leaves the trajectory "
            "bit-identical")
