"""Command-line interface.

Subcommands: curve, catalog, estimate, offset, basis, selftest. Every run
writes its data as CSV (authoritative), optional SVG plots derived from the
CSV content, and a JSON run manifest written atomically last, whose
`details` record the inputs that replay the run: the system with l_max
resolved, and each `lo:hi:n` grid as [lo, hi, n] (`null` when
auto-located). `curve`'s manifest also records, per pair, the numerical
health of its sweeps (`spectrum.SweepResult`): of the one pre-scan that
located its grid (`curves._transition_grid` returns it), the dense
eigensolves, those that read the grid's crossing values included, the
point from which the dense sweep took it over and its worst certified
sine (`prescan_dense_solves`, `prescan_dense_from`, `prescan_sine_bound`;
null with an explicit --grid), then the curve's own sweep's dense
eigensolves and worst certified sine (`dense_solves`, `sine_bound`). Exit
codes:
0 success, 2 usage (including a ParameterError or InputError from the
package), 3 numerical failure (any other package error), 4 self-check or
preset mismatch. A sweep that meets a degenerate point (its two lowest
sector energies tie, as in the non-interacting lowest Landau level at
Omega = 1) exits 2 and writes no output file. `estimate --trajectories`
sizes the ensembles of every run: 200 by default under `--preset fig4` and
`array`, 1 without a preset (above 1, that run also writes the ensemble
median); `fig3` runs none and refuses it. `estimate --catalog` is the one
route to the catalog (the config holds no path). `estimate` exits 2 with
one `error:` line and writes no output file without `--catalog`, when its
`--config` file cannot be read, is not a JSON object, or breaks the schema
in `estimate.ProtocolConfig` (an unknown key, a wrong type, a value out of
range), when the seed (config or CRITGYRO_SEED) is negative, and when the
catalog lacks the initial (g, A) pair. `basis` writes the basis file;
`curve` dumps only the element cache and one Hamiltonian, and exits 2
unless it gets one --A per --g. `offset` sweeps the system its catalog
records (provenance `solver.n_particles`, `n_ll` and `l_max`) and exits 2,
before any sweep, when the catalog has no curve for its (g, A), when one
of those three is missing or not an integer, on a non-finite or
non-positive `--eps`, and when an offset puts the ramp's end outside its
fixed range [center - 0.25, center + 0.02]. A negative offset range needs
`=`: `--offsets=-0.1:0:21`.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from math import pi

import numpy as np
import scipy.linalg as sla

from . import __version__, estimate, spectrum
from ._backend import active_backend
from ._svg import line_chart
from .curves import (
    DEFAULT_CATALOG_PAIRS,
    PRESCAN_POINTS,
    PRESCAN_RANGE,
    REFINED_POINTS,
    CurveCatalog,
    ResonanceCurve,
    catalog_build,
    catalog_load,
    catalog_save,
    compute_curve,
    curve_diagnostics,
    locate_grid,
    _refined_grid,
    _transition_grid,
)
from .errors import CritgyroError, InputError, ParameterError
from .estimate import DEFAULT_PRIOR, ProtocolConfig, run_ensemble, run_protocol
from .fock import enumerate_basis
from .hamiltonian import System
from .melem import ElementCache, integral_i1, integral_i2
from .observables import adiabatic_time, gap_profile, p_zero, preparation_hwhm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_MISMATCH = 4

DEFAULT_OMEGA_PERP_HZ = 200.0

#: environment variable that replaces the config's seed in `estimate`
SEED_ENV = "CRITGYRO_SEED"


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_manifest(primary_output, command, details, outputs, t_start) -> str:
    path = str(primary_output) + ".manifest.json"
    payload = {
        "command": command,
        "code_version": __version__,
        "backend": active_backend(),
        "details": details,
        "outputs": [str(o) for o in outputs],
        "wall_clock_s": time.time() - t_start,
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2)
    os.replace(tmp, path)
    return path


def _build_system(n, n_ll, l_max):
    basis = enumerate_basis(n, n_ll, l_max)
    cache = ElementCache.build(basis.modes)
    return basis, cache


def _system_details(basis) -> dict:
    """The truncation a run computed on, l_max resolved, for its manifest."""
    return {"n": basis.n_particles, "n_ll": basis.n_ll, "l_max": basis.l_max}


def _grid_details(grid):
    """A `lo:hi:n` grid as [lo, hi, n] for a manifest; None stays None."""
    return None if grid is None else [float(grid[0]), float(grid[-1]), len(grid)]


def _numbers(spec: str, kinds, what: str):
    """Colon-separated fields of `spec` converted by `kinds`, as an argparse
    type: a missing field or a non-number is a usage error."""
    fields = spec.split(":")
    try:
        if len(fields) != len(kinds):
            raise ValueError
        values = [kind(f) for kind, f in zip(kinds, fields)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {what}, got {spec!r}") from None
    if not all(np.isfinite(values)):
        raise argparse.ArgumentTypeError(f"{what} needs finite numbers, got {spec!r}")
    return values


def _parse_grid(spec: str) -> np.ndarray:
    """lo:hi:n, n >= 2 points ascending from lo to hi."""
    lo, hi, num = _numbers(spec, (float, float, int), "lo:hi:n")
    if num < 2 or not lo < hi:
        raise argparse.ArgumentTypeError(f"lo:hi:n needs lo < hi and n >= 2, got {spec!r}")
    return np.linspace(lo, hi, num)


def _positive_int(spec: str) -> int:
    """An integer >= 1, as an argparse type."""
    (value,) = _numbers(spec, (int,), "an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {spec!r}")
    return value


def _parse_pairs(spec: str) -> list[tuple[float, float]]:
    """Comma list of g:A pairs."""
    return [tuple(_numbers(chunk, (float, float), "g:A")) for chunk in spec.split(",")]


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def cmd_curve(args) -> int:
    t0 = time.time()
    if len(args.g) != len(args.A):
        raise ParameterError("need one --A per --g")
    basis, cache = _build_system(args.n, args.n_ll, args.l_max)
    outputs = [args.out]

    rows = []
    series = []
    sweeps = []
    system = System.of(basis, cache)
    for g, a in zip(args.g, args.A):
        grid, prescan = args.grid, None
        if grid is None:  # locate_grid's grid, with the pre-scan that located it
            grid, prescan = _transition_grid(basis, cache, g, a)
            if grid is None:
                grid = np.linspace(*PRESCAN_RANGE, REFINED_POINTS)
        curve = compute_curve(basis, cache, g, a, grid=grid)
        diag = curve_diagnostics(basis, cache, curve)
        sweep = system.sweep(g, a, curve.omega)  # the kept one
        sweeps.append({
            "prescan_dense_solves": None if prescan is None else prescan.dense_solves,
            "prescan_dense_from": None if prescan is None else prescan.dense_from,
            "prescan_sine_bound": None if prescan is None else prescan.sine_bound,
            "dense_solves": sweep.dense_solves, "sine_bound": sweep.sine_bound})
        for i in range(len(curve.omega)):
            rows.append((
                g, a, curve.omega[i], curve.p0[i], diag.gap[i],
                diag.lam1[i], diag.lam2[i], diag.exp_L[i],
            ))
        series.append((f"g={g} A={a}", curve.omega, curve.p0))
        label = f"(g={g}, A={a})"
        print(f"curve {label}: center={curve.center} width={curve.width}")
    _write_csv(args.out, ("g", "A", "omega", "p0", "gap", "lam1", "lam2", "exp_L"),
               rows)
    if args.svg:
        line_chart(args.svg, series, title="likelihood of the all-zero outcome",
                   xlabel="rotation rate (units of trap frequency)", ylabel="P(0)")
        outputs.append(args.svg)
    if args.dump_elements:
        cache.dump_csv(args.dump_elements)
        outputs.append(args.dump_elements)
    if args.dump_matrix:
        ham = system.operators.hamiltonian(args.g[0], args.A[0], args.matrix_omega).tocoo()
        with open(args.dump_matrix, "w") as fh:
            for r, c, v in zip(ham.row, ham.col, ham.data):
                fh.write(f"{r} {c} {_fmt(v)}\n")
        outputs.append(args.dump_matrix)
    _write_manifest(args.out, "curve",
                    {"pairs": list(zip(args.g, args.A)), "sweeps": sweeps,
                     **_system_details(basis), "grid": _grid_details(args.grid)},
                    outputs, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    t0 = time.time()
    pairs = args.pairs or list(DEFAULT_CATALOG_PAIRS)
    basis, cache = _build_system(args.n, args.n_ll, args.l_max)
    catalog = catalog_build(basis, cache, pairs, grid=args.grid)
    catalog_save(catalog, args.out)
    for c in catalog.curves:
        print(f"catalog (g={c.g}, A={c.anisotropy}): "
              f"center={c.center:.6f} width={c.width:.6f}")
    _write_manifest(args.out, "catalog",
                    {"pairs": pairs, **_system_details(basis),
                     "grid": _grid_details(args.grid)},
                    [args.out], t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

_FIG4_VARIANTS = (("untuned", ()), ("one_tuning", (12,)), ("two_tunings", (12, 32)))
_ARRAY_TARGET = 1.8e-4
_ARRAY_FACTOR = 2.0


def _trajectory_rows(result):
    n = len(result.sigma_trace)
    stops = [first for first, _, _ in result.stage_params[1:]] + [n + 1]
    for (first, g, a), stop in zip(result.stage_params, stops):
        for mu in range(first, stop):
            yield (mu, int(result.outcomes[mu - 1]), g, a,
                   result.deltas[mu - 1], result.sigma_trace[mu - 1])


def _write_trajectory(path, result):
    _write_csv(path, ("mu", "outcome", "g", "A", "delta", "sigma"),
               _trajectory_rows(result))


def _ensemble_health(ens) -> dict:
    """Size and numerical health of one ensemble, for the run manifest."""
    return {"n_trajectories": len(ens.seeds) + ens.n_aborted,
            "max_dropped_mass": ens.max_dropped_mass,
            "n_aborted": ens.n_aborted,
            "abort_indices": list(ens.abort_indices),
            "workers": ens.workers}


def resolve_seed(config_seed: int) -> tuple[int, str]:
    """(seed, source) of an estimate run: CRITGYRO_SEED when set, else the
    config's seed. Either must be an integer >= 0 (ParameterError)."""
    env = os.environ.get(SEED_ENV)
    try:
        seed = int(env) if env else int(config_seed)
    except ValueError:
        raise ParameterError(f"{SEED_ENV} must be an integer, got {env!r}") from None
    if seed < 0:
        raise ParameterError(f"the seed must be >= 0, got {seed}")
    return seed, SEED_ENV if env else "config"


def cmd_estimate(args) -> int:
    t0 = time.time()
    cfg_data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg_data = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: malformed JSON or text
            raise ParameterError(f"cannot read --config {args.config}: {exc}") from None
    config = ProtocolConfig.from_dict(cfg_data)
    seed, seed_source = resolve_seed(config.seed)
    if not args.catalog:
        raise ParameterError("no catalog given (--catalog)")
    catalog = catalog_load(args.catalog)
    os.makedirs(args.out_dir, exist_ok=True)
    out = lambda name: os.path.join(args.out_dir, name)
    outputs = []
    details = {"config": config.to_dict(), "preset": args.preset,
               "catalog": str(args.catalog),
               "seed": seed, "seed_source": seed_source}
    config = replace(config, seed=seed)  # every run below draws from the resolved seed
    ensembles = {}
    status = EXIT_OK
    n_traj = args.trajectories or (200 if args.preset else 1)

    if args.preset == "fig3":
        cfg = replace(config, schedule=(), n_measurements=100)
        result = run_protocol(cfg, catalog)
        _write_trajectory(out("trajectory.csv"), result)
        outputs.append(out("trajectory.csv"))
        for mu in (1, 10, 100):
            # the mu = 100 snapshot is `result`: the same config and seed
            snap = result if mu == 100 else run_protocol(replace(cfg, n_measurements=mu), catalog)
            path = out(f"posterior_mu{mu}.csv")
            _write_csv(path, ("omega", "mass"),
                       zip(snap.posterior.omega, snap.posterior.mass))
            outputs.append(path)
        print(f"fig3: mean={result.posterior.mean:.6f} "
              f"sigma={result.final_sigma:.6f} after 100 measurements")
    elif args.preset == "fig4":
        mus = np.arange(1, 101)
        columns = [mus]
        names = ["mu"]
        medians = {}
        for name, schedule in _FIG4_VARIANTS:
            cfg = replace(config, schedule=schedule, n_measurements=100)
            ens = run_ensemble(cfg, catalog, n_trajectories=n_traj)
            ensembles[name] = _ensemble_health(ens)
            med = ens.median_sigma()
            medians[name] = med
            columns.append(med)
            names.append(f"sigma_{name}")
        _write_csv(out("sigma_vs_mu.csv"), names, zip(*columns))
        outputs.append(out("sigma_vs_mu.csv"))
        line_chart(out("sigma_vs_mu.svg"),
                   [(n, mus, medians[n]) for n, _ in _FIG4_VARIANTS],
                   title="posterior width vs measurement count",
                   xlabel="measurements", ylabel="sigma", logy=True)
        outputs.append(out("sigma_vs_mu.svg"))
        factor = medians["untuned"][-1] / medians["two_tunings"][-1]
        print(f"fig4: sigma(100) untuned={medians['untuned'][-1]:.3e} "
              f"one={medians['one_tuning'][-1]:.3e} "
              f"two={medians['two_tunings'][-1]:.3e} "
              f"improvement x{factor:.1f}")
    elif args.preset == "array":
        cfg = replace(config, schedule=(200,), batch_size=200, n_measurements=400)
        ens = run_ensemble(cfg, catalog, n_trajectories=n_traj)
        ensembles["array"] = _ensemble_health(ens)
        med = ens.median_sigma()
        _write_csv(out("sigma_vs_mu.csv"), ("mu", "sigma"),
                   zip(np.arange(1, 401), med))
        outputs.append(out("sigma_vs_mu.csv"))
        final = float(med[-1])
        lo, hi = _ARRAY_TARGET / _ARRAY_FACTOR, _ARRAY_TARGET * _ARRAY_FACTOR
        ok = lo <= final <= hi
        print(f"array: median final sigma={final:.3e} "
              f"(reference {_ARRAY_TARGET:.1e}, window [{lo:.1e}, {hi:.1e}]) "
              f"{'OK' if ok else 'MISMATCH'}")
        details["array_final_sigma"] = final
        if not ok:
            status = EXIT_MISMATCH
    else:
        result = run_protocol(config, catalog)
        _write_trajectory(out("trajectory.csv"), result)
        outputs.append(out("trajectory.csv"))
        if n_traj > 1:
            ens = run_ensemble(config, catalog, n_trajectories=n_traj)
            ensembles["config"] = _ensemble_health(ens)
            med = ens.median_sigma()
            _write_csv(out("sigma_vs_mu.csv"), ("mu", "sigma"),
                       zip(np.arange(1, config.n_measurements + 1), med))
            outputs.append(out("sigma_vs_mu.csv"))
        line_chart(out("sigma_vs_mu.svg"),
                   [("trajectory", np.arange(1, config.n_measurements + 1),
                     result.sigma_trace)],
                   title="posterior width vs measurement count",
                   xlabel="measurements", ylabel="sigma", logy=True)
        outputs.append(out("sigma_vs_mu.svg"))
        print(f"estimate: final sigma={result.final_sigma:.6e}")

    details["ensembles"] = ensembles
    _write_manifest(os.path.join(args.out_dir, "run"), "estimate", details,
                    outputs, t0)
    return status


# ---------------------------------------------------------------------------
# offset
# ---------------------------------------------------------------------------

def cmd_offset(args) -> int:
    t0 = time.time()
    if not (np.isfinite(args.omega_perp_hz) and args.omega_perp_hz > 0):
        raise ParameterError(f"--omega-perp-hz must be finite and > 0, "
                             f"got {args.omega_perp_hz}")
    if args.gap_points < 2:
        raise ParameterError(f"--gap-points must be >= 2, got {args.gap_points}")
    if not (np.isfinite(args.eps) and args.eps > 0):
        raise ParameterError(f"--eps must be finite and > 0, got {args.eps}")
    catalog = catalog_load(args.catalog)
    curve = catalog.find(args.g, args.A)
    provenance = catalog.provenance if isinstance(catalog.provenance, dict) else {}
    solver = provenance.get("solver")
    system = ([solver.get(key) for key in ("n_particles", "n_ll", "l_max")]
              if isinstance(solver, dict) else [None])
    if not all(type(value) is int for value in system):  # refuses True, 8.0, '8'
        raise ParameterError(f"catalog {args.catalog} does not record its system: "
                             "provenance.solver needs integer n_particles, n_ll and l_max")
    offsets = args.offsets
    ramp_lo, ramp_hi = curve.center - 0.25, curve.center + 0.02
    outside = [float(off) for off in offsets
               if not ramp_lo <= curve.center + off <= ramp_hi]
    if outside:
        raise ParameterError(f"offsets {outside} put the ramp's end outside "
                             f"[center - 0.25, center + 0.02]")
    hwhms = [preparation_hwhm(curve, off, args.prior_lo, args.prior_hi) for off in offsets]
    basis, cache = _build_system(*system)

    ramp = np.linspace(ramp_lo, ramp_hi, args.gap_points)
    profile = gap_profile(basis, cache, curve.g, curve.anisotropy, ramp,
                          center=curve.center)
    omega_perp = 2 * pi * args.omega_perp_hz  # rad/s
    rows = []
    for off, hw in zip(offsets, hwhms):
        t_trap = adiabatic_time(profile, off, eps=args.eps)
        rows.append((off, hw, t_trap, t_trap / omega_perp))
    _write_csv(args.out, ("offset", "hwhm", "time_trap_units", "time_seconds"),
               rows)
    outputs = [args.out]
    if args.svg:
        arr = np.array([(r[0], r[1], r[2]) for r in rows])
        line_chart(args.svg,
                   [("hwhm", arr[:, 0], arr[:, 1]),
                    ("ramp time (trap units)", arr[:, 0], arr[:, 2])],
                   title="preparation offset study",
                   xlabel="offset from resonance center", ylabel="value",
                   logy=False)
        outputs.append(args.svg)
    ratio = rows[-1][2] / rows[0][2] if rows[0][2] > 0 else float("inf")
    print(f"offset study: time({offsets[-1]:+.3f})/time({offsets[0]:+.3f}) "
          f"= {ratio:.3g}")
    _write_manifest(args.out, "offset",
                    {"g": args.g, "A": args.A, "eps": args.eps,
                     "omega_perp_hz": args.omega_perp_hz,
                     "catalog": str(args.catalog), **_system_details(basis),
                     "offsets": _grid_details(offsets),
                     "prior_lo": args.prior_lo, "prior_hi": args.prior_hi,
                     "gap_points": args.gap_points},
                    outputs, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# basis / selftest
# ---------------------------------------------------------------------------

def cmd_basis(args) -> int:
    t0 = time.time()
    basis = enumerate_basis(args.n, args.n_ll, args.l_max)
    basis.dump_csv(args.out)
    print(f"basis: {basis.size} states over {len(basis.modes)} modes")
    _write_manifest(args.out, "basis", _system_details(basis), [args.out], t0)
    return EXIT_OK


def cmd_selftest(args) -> int:
    # the element integrals are exact, so each value must match to the bit
    checks = [
        ("I1((0,0),(0,2)) = 2", integral_i1((0, 0), (0, 2)) == 2.0),
        ("I2(all ground) = 1", integral_i2((0, 0), (0, 0), (0, 0), (0, 0)) == 1.0),
        ("I2((0,8),(1,7),(1,7),(1,8)) = 0",
         integral_i2((0, 8), (1, 7), (1, 7), (1, 8)) == 0.0),
    ]
    basis = enumerate_basis(3, 2, 5)
    checks.append(("3-particle basis size 65", basis.size == 65))
    system = System(basis, ElementCache.build(basis.modes))
    ham = system.operators.hamiltonian(0.5, 0.04, 0.3)
    dense = ham.toarray()
    checks.append(("Hamiltonian symmetric", np.array_equal(dense, dense.T)))
    # sweeps run on the condensate's L-parity sector: H must not couple the
    # two parities, and the sector matrix must be H's own block, bit for bit
    rows, cols = ham.nonzero()
    checks.append(("H has no entry between L parities",
                   not ((basis.L[rows] - basis.L[cols]) % 2).any()))
    h0 = system.operators.hamiltonian(0.5, 0.04, 0.0).toarray()
    sector = np.ix_(system.sector_rows, system.sector_rows)
    checks.append(("sector h0 is the sector block of H at Omega 0",
                   np.array_equal(system.sector_h0(0.5, 0.04), h0[sector])))
    # the sweep solver makes the LAPACK call scipy's eigh makes: same bits
    got = spectrum._eigh(dense, spectrum._workspace(len(dense)), subset_by_index=(0, 1))
    ref = sla.eigh(dense, subset_by_index=(0, 1))
    checks.append(("solver pairs equal scipy eigh",
                   all(np.array_equal(a, b) for a, b in zip(got, ref))))
    # the certified walk the curves run takes every point of this grid, and
    # agrees with the dense sweep within its certificate
    basis = enumerate_basis(4, 2, 6)
    system = System(basis, ElementCache.build(basis.modes))
    h0, omegas = system.sector_h0(0.5, 0.04), np.linspace(0.3, 0.9, 41)
    walk = spectrum.ReducedModel(h0, system.sector_l).sweep(omegas)
    dense_sweep = spectrum.sweep_lowest(h0, system.sector_l, omegas)
    p0_err = np.abs(p_zero(system.lift(walk.vec0), basis)
                    - p_zero(system.lift(dense_sweep.vec0), basis)).max()
    checks.append(("reduced sweep certified on every point, within its bound of the dense",
                   walk.dense_from == len(omegas)
                   and 0 < walk.sine_bound <= spectrum.SINE_TOL
                   and p0_err <= walk.sine_bound
                   and np.abs(walk.energies - dense_sweep.energies).max() <= 1e-12))
    # the located grid is the one the whole dense pre-scan gives, bit for bit
    coarse = np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS)
    dense_prescan = spectrum.sweep_lowest(h0, system.sector_l, coarse)
    reference = _refined_grid(p_zero(system.lift(dense_prescan.followed), basis))
    checks.append(("located grid equals the dense pre-scan's, bit for bit",
                   reference is not None
                   and np.array_equal(locate_grid(basis, system.cache, 0.5, 0.04), reference)))
    # the ensemble's worker processes give the bits of a serial ensemble
    from unittest import mock  # imports asyncio: only here, not on every command
    omega = np.linspace(0.8, 1.0, 401)
    catalog = CurveCatalog(curves=tuple(
        ResonanceCurve.from_values(0.5, a, omega, 1 / (1 + np.exp((omega - 0.9) / tau)))
        for a, tau in ((0.01, 0.01), (0.02, 0.002))))
    config = ProtocolConfig(seed=7, n_measurements=50, schedule=(20,),
                            initial_g=0.5, initial_anisotropy=0.01)
    ensembles = []
    for workers in (1, 2):
        with mock.patch.object(estimate, "_workers", return_value=workers):
            ensembles.append(run_ensemble(config, catalog, n_trajectories=5))
    checks.append(("ensemble on 2 workers equals 1 worker",
                   ensembles[1].workers == 2
                   and all(np.array_equal(getattr(ensembles[0], name),
                                          getattr(ensembles[1], name))
                           for name in ("sigma", "seeds", "n_aborted", "abort_indices",
                                        "max_dropped_mass"))))
    ok = all(passed for _, passed in checks)
    for name, passed in checks:
        print(f"[{'ok' if passed else 'FAIL'}] {name}")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critgyro",
        description="Rotating-condensate gyroscope simulator and Bayesian "
                    "rotation estimator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_args(p):
        p.add_argument("--n", type=int, default=6, help="particle number")
        p.add_argument("--n-ll", type=int, default=2, dest="n_ll")
        p.add_argument("--l-max", type=int, default=None, dest="l_max")

    p = sub.add_parser("curve", help="compute likelihood curves")
    p.add_argument("--g", type=float, action="append", required=True)
    p.add_argument("--A", type=float, action="append", required=True)
    p.add_argument("--grid", type=_parse_grid, help="explicit grid lo:hi:n")
    p.add_argument("--out", default="curve.csv")
    p.add_argument("--svg")
    p.add_argument("--dump-elements", dest="dump_elements")
    p.add_argument("--dump-matrix", dest="dump_matrix")
    p.add_argument("--matrix-omega", type=float, default=0.0,
                   dest="matrix_omega")
    add_system_args(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("catalog", help="build and save a curve catalog")
    p.add_argument("--pairs", type=_parse_pairs,
                   help="comma list g:A, default standard ladder")
    p.add_argument("--grid", type=_parse_grid,
                   help="explicit grid lo:hi:n (default: auto-located)")
    p.add_argument("--out", default="catalog.json")
    add_system_args(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("estimate", help="run the estimation protocol")
    p.add_argument("--config", help="JSON protocol config")
    p.add_argument("--catalog", help="catalog file (required; the config holds no path)")
    p.add_argument("--preset", choices=("fig3", "fig4", "array"))
    p.add_argument("--trajectories", type=_positive_int,
                   help="ensemble size: default 200 under the fig4 and array presets, "
                        "1 (no ensemble) without a preset; refused by fig3")
    p.add_argument("--out-dir", default="estimate_out", dest="out_dir")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("offset", help="preparation offset study")
    p.add_argument("--catalog", required=True)
    p.add_argument("--g", type=float, default=0.5)
    p.add_argument("--A", type=float, default=0.04)
    p.add_argument("--offsets", type=_parse_grid, default="-0.1:0:21",
                   help="lo:hi:n; give a negative lo as --offsets=LO:HI:N")
    p.add_argument("--eps", type=float, default=0.1,
                   help="adiabaticity slack")
    p.add_argument("--omega-perp-hz", type=float, default=DEFAULT_OMEGA_PERP_HZ,
                   dest="omega_perp_hz")
    p.add_argument("--prior-lo", type=float, default=DEFAULT_PRIOR[0], dest="prior_lo")
    p.add_argument("--prior-hi", type=float, default=DEFAULT_PRIOR[1], dest="prior_hi")
    p.add_argument("--gap-points", type=int, default=271, dest="gap_points")
    p.add_argument("--out", default="offset.csv")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_offset)

    p = sub.add_parser("basis", help="dump the truncated basis")
    p.add_argument("--out", default="basis.csv")
    add_system_args(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("selftest", help="fast internal consistency checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "l_max", 0) is None:  # the one place --l-max gets its default
        args.l_max = args.n + 2
    if getattr(args, "trajectories", None) is not None and args.preset == "fig3":
        parser.error("--trajectories sizes an ensemble, and --preset fig3 runs none")
    try:
        return args.func(args)
    except (ParameterError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CritgyroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
