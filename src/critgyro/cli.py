"""Command-line interface.

Subcommands: curve, catalog, estimate, offset, basis, selftest. Every run
writes its data as CSV (authoritative), optional SVG plots derived from the
CSV content, and a JSON run manifest written atomically last. Exit codes:
0 success, 2 usage (including a ParameterError or InputError from the
package), 3 numerical failure (any other package error), 4 self-check or
preset mismatch. `estimate` exits 2 and writes no output file when its
`--config` file cannot be read, is not a JSON object, or breaks the schema
in `estimate.ProtocolConfig` (an unknown key, a wrong type, a value out of
range), when the seed (config or CRITGYRO_SEED) is negative, and when the
catalog lacks the initial (g, A) pair. `offset` also exits 2, before any
sweep, on a non-finite or non-positive `--eps`, when an offset puts the
ramp's end outside its fixed range [center - 0.25, center + 0.02],
and when the catalog's provenance does not record the system it would
sweep: `solver.n_particles`, `n_ll` and `l_max` must equal `--n`, `--n-ll`
and `--l-max` (default n + 2).
"""

import argparse
import json
import os
import sys
import time
from math import pi

import numpy as np
import scipy.linalg as sla

from . import __version__, spectrum
from ._backend import active_backend
from ._svg import line_chart
from .curves import (
    DEFAULT_CATALOG_PAIRS,
    catalog_build,
    catalog_load,
    catalog_save,
    compute_curve,
    curve_diagnostics,
)
from .errors import CritgyroError, InputError, ParameterError
from .estimate import (
    DEFAULT_GRID_SIZE,
    SEED_ENV,
    ProtocolConfig,
    resolve_seed,
    run_ensemble,
    run_protocol,
)
from .fock import enumerate_basis
from .hamiltonian import ModelParams, assemble
from .melem import ElementCache, integral_i1, integral_i2
from .observables import adiabatic_time, gap_profile, preparation_hwhm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_MISMATCH = 4

DEFAULT_OMEGA_PERP_HZ = 200.0


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
    basis = enumerate_basis(n, n_ll, l_max if l_max is not None else n + 2)
    cache = ElementCache.build(basis.modes)
    return basis, cache


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
        print("error: need one --A per --g", file=sys.stderr)
        return EXIT_USAGE
    basis, cache = _build_system(args.n, args.n_ll, args.l_max)
    outputs = [args.out]

    rows = []
    series = []
    for g, a in zip(args.g, args.A):
        curve = compute_curve(basis, cache, g, a, grid=args.grid)
        diag = curve_diagnostics(basis, cache, curve)
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
    if args.dump_basis:
        basis.dump_csv(args.dump_basis)
        outputs.append(args.dump_basis)
    if args.dump_elements:
        cache.dump_csv(args.dump_elements)
        outputs.append(args.dump_elements)
    if args.dump_matrix:
        params = ModelParams(
            n_particles=basis.n_particles, g=args.g[0], anisotropy=args.A[0],
            omega=args.matrix_omega, n_ll=basis.n_ll, l_max=basis.l_max,
        )
        assemble(basis, params, cache).dump_coordinate_text(args.dump_matrix)
        outputs.append(args.dump_matrix)
    _write_manifest(args.out, "curve",
                    {"pairs": list(zip(args.g, args.A)), "n": args.n},
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
    _write_manifest(args.out, "catalog", {"pairs": pairs, "n": args.n},
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
    """Numerical health of one ensemble, for the run manifest."""
    return {"max_dropped_mass": ens.max_dropped_mass,
            "n_aborted": ens.n_aborted,
            "abort_indices": list(ens.abort_indices)}


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
    seed = resolve_seed(config.seed)
    catalog_path = args.catalog or config.catalog_path
    if not catalog_path:
        print("error: no catalog given (--catalog or config catalog_path)",
              file=sys.stderr)
        return EXIT_USAGE
    catalog = catalog_load(catalog_path)
    os.makedirs(args.out_dir, exist_ok=True)
    out = lambda name: os.path.join(args.out_dir, name)
    outputs = []
    details = {"config": config.to_dict(), "preset": args.preset,
               "catalog": str(catalog_path),
               "seed": seed,
               "seed_source": SEED_ENV if os.environ.get(SEED_ENV) else "config"}
    ensembles = {}
    status = EXIT_OK

    if args.preset == "fig3":
        cfg = ProtocolConfig.from_dict({**config.to_dict(), "schedule": [],
                                        "n_measurements": 100})
        result = run_protocol(cfg, catalog)
        _write_trajectory(out("trajectory.csv"), result)
        outputs.append(out("trajectory.csv"))
        for mu in (1, 10, 100):
            sub = ProtocolConfig.from_dict({**cfg.to_dict(),
                                            "n_measurements": mu})
            snap = run_protocol(sub, catalog)
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
            cfg = ProtocolConfig.from_dict({**config.to_dict(),
                                            "schedule": list(schedule),
                                            "n_measurements": 100})
            ens = run_ensemble(cfg, catalog, n_trajectories=args.trajectories)
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
        cfg = ProtocolConfig.from_dict({**config.to_dict(),
                                        "schedule": [200],
                                        "batch_size": 200,
                                        "n_measurements": 400})
        ens = run_ensemble(cfg, catalog, n_trajectories=args.trajectories)
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
        if config.n_trajectories > 1:
            ens = run_ensemble(config, catalog)
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
    try:
        curve = catalog.find(args.g, args.A)
    except KeyError:
        print(f"error: catalog has no curve for (g={args.g}, A={args.A})",
              file=sys.stderr)
        return EXIT_USAGE
    system = {"n_particles": args.n, "n_ll": args.n_ll,
              "l_max": args.l_max if args.l_max is not None else args.n + 2}
    provenance = catalog.provenance if isinstance(catalog.provenance, dict) else {}
    solver = provenance.get("solver")
    if not isinstance(solver, dict) or {key: solver.get(key) for key in system} != system:
        raise ParameterError(f"catalog {args.catalog} was not computed for {system}")
    offsets = args.offsets
    ramp_lo, ramp_hi = curve.center - 0.25, curve.center + 0.02
    outside = [float(off) for off in offsets
               if not ramp_lo <= curve.center + off <= ramp_hi]
    if outside:
        raise ParameterError(f"offsets {outside} put the ramp's end outside "
                             f"[center - 0.25, center + 0.02]")
    hwhms = [preparation_hwhm(curve, off, args.prior_lo, args.prior_hi, DEFAULT_GRID_SIZE)
             for off in offsets]
    basis, cache = _build_system(args.n, args.n_ll, args.l_max)

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
                     "omega_perp_hz": args.omega_perp_hz},
                    outputs, t0)
    return EXIT_OK


# ---------------------------------------------------------------------------
# basis / selftest
# ---------------------------------------------------------------------------

def cmd_basis(args) -> int:
    t0 = time.time()
    basis = enumerate_basis(args.n, args.n_ll,
                            args.l_max if args.l_max is not None else args.n + 2)
    basis.dump_csv(args.out)
    print(f"basis: {basis.size} states over {len(basis.modes)} modes")
    _write_manifest(args.out, "basis",
                    {"n": args.n, "n_ll": args.n_ll, "l_max": basis.l_max},
                    [args.out], t0)
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
    cache = ElementCache.build(basis.modes)
    params = ModelParams(n_particles=3, g=0.5, anisotropy=0.04, omega=0.3,
                         n_ll=2, l_max=5)
    ham = assemble(basis, params, cache)
    dense = ham.to_dense()
    checks.append(("Hamiltonian symmetric", np.array_equal(dense, dense.T)))
    # the sweep solver makes the LAPACK call scipy's eigh makes: same bits
    got = spectrum._eigh(dense, spectrum._workspace(len(dense)), subset_by_index=(0, 1))
    ref = sla.eigh(dense, subset_by_index=(0, 1))
    checks.append(("solver pairs equal scipy eigh",
                   all(np.array_equal(a, b) for a, b in zip(got, ref))))
    # the sweep's solver threads give the bits of a serial sweep
    from unittest import mock  # imports asyncio: only here, not on every command
    sweeps = []
    for workers in (1, 2):
        with mock.patch.object(spectrum, "_workers", return_value=workers):
            sweeps.append(spectrum.sweep_lowest(dense, basis.L.astype(float),
                                                np.linspace(0.0, 1.0, 21)))
    checks.append(("sweep on 2 workers equals 1 worker",
                   all(np.array_equal(getattr(sweeps[0], name), getattr(sweeps[1], name))
                       for name in ("energies", "vec0", "vec1", "followed",
                                    "followed_rank"))))
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
    p.add_argument("--dump-basis", dest="dump_basis")
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
    p.add_argument("--catalog")
    p.add_argument("--preset", choices=("fig3", "fig4", "array"))
    p.add_argument("--trajectories", type=_positive_int, default=200,
                   help="ensemble size for presets")
    p.add_argument("--out-dir", default="estimate_out", dest="out_dir")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("offset", help="preparation offset study")
    p.add_argument("--catalog", required=True)
    p.add_argument("--g", type=float, default=0.5)
    p.add_argument("--A", type=float, default=0.04)
    p.add_argument("--offsets", type=_parse_grid, default="-0.1:0:21",
                   help="lo:hi:n")
    p.add_argument("--eps", type=float, default=0.1,
                   help="adiabaticity slack")
    p.add_argument("--omega-perp-hz", type=float, default=DEFAULT_OMEGA_PERP_HZ,
                   dest="omega_perp_hz")
    p.add_argument("--prior-lo", type=float, default=0.87, dest="prior_lo")
    p.add_argument("--prior-hi", type=float, default=0.93, dest="prior_hi")
    p.add_argument("--gap-points", type=int, default=271, dest="gap_points")
    p.add_argument("--out", default="offset.csv")
    p.add_argument("--svg")
    add_system_args(p)
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
    try:
        active_backend()
        return args.func(args)
    except (ParameterError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CritgyroError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
