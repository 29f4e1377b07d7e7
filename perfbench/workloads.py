"""Workloads, output checks and metrics of the critgyro benchmark.

A run repeats a round of fixed work until the requested seconds have passed.
A round is a fixed sequence of stages, each one call into critgyro that the
benchmark times from outside. After every round the system is set up again
and a calibration pass (fixed work outside critgyro) is timed.

Times are reported as the fastest observation of each stage, summed over the
round's stages (set-up: the fastest set-up), then scaled by
CALIBRATION_REF_S over the fastest calibration pass of the run. On the
shared 2-vCPU machine this benchmark was tuned on, processor speed drifts
between levels about 1.6x apart, for seconds to tens of minutes at a time.
In a 4-minute probe, medians of small units over 20-40 s windows spread by
0.18-0.24 (IQR/median), the fastest unit by 0.03-0.06; interference only
ever adds time, so the fastest stage is the closest reading of what the work
costs, and stages are kept near or under 2 s for that reason. Drift that
lasts a whole run is what the calibration scaling takes out: over ten runs
the unscaled wall_s of ensemble_presets spread by 0.37, with the set-up time
moving in step.

Inputs depend on the seed alone: the curves workload draws its third ladder
pair from it, and each ensemble round derives its master seed from
(seed, round). Outputs are checked after each round, outside its timing.

With tracing on, rounds alternate untraced and traced (at least one of
each). Per-layer figures are means over the traced rounds (set-up spans:
over the set-ups); the tracing overhead is the traced minus the untraced
round time, both taken as above.
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import tempfile
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
import scipy.linalg as sla

from critgyro import _kernels, curves, estimate, fock, melem
from critgyro._backend import active_backend
from critgyro.curves import ResonanceCurve
from critgyro.estimate import ProtocolConfig

import spans
from spans import Target

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_CATALOG = Path(__file__).resolve().parent / "data" / "reference_catalog.json"
#: set-ups timed at least, whatever the number of rounds
SETUP_REPS = 5

#: a curve computed on a window of its reference grid must reproduce the
#: reference there: grid points, likelihood, center and width
GRID_TOL = 1e-9
P0_TOL = 1e-6
CENTER_TOL = 1e-6
WIDTH_TOL = 1e-6
#: reference grid points kept past the 0.9 and 0.1 crossings of a curve window
WINDOW_MARGIN = 10
#: the SPDM trace equals the particle number at every diagnostics point
TRACE_TOL = 1e-9
#: posterior support: grid points holding more than this share of the peak
SUPPORT_FLOOR = 1e-16

FIXED_PAIRS = ((0.5, 0.04), (0.6, 0.025))

#: fastest calibration pass on the machine the benchmark was tuned on; times
#: are reported scaled to that speed
CALIBRATION_REF_S = 0.010
CALIBRATION_REPS = 3


@dataclass(frozen=True)
class Size:
    system: tuple[int, int, int]   # n_particles, n_ll, l_max
    curve_pairs: int               # FIXED_PAIRS first, then seed-drawn pairs
    grid_points: int               # per curve, taken from the reference grid
    long_trajectories: int         # per round
    long_measurements: int
    preset_trajectories: int       # per preset ensemble per round
    sigma_rounds: int              # ensemble rounds pooled for the sigma medians


PRODUCTION = Size((6, 2, 8), 3, 81, 2, 10_000, 50, 5)
SMOKE = Size((6, 2, 8), 1, 21, 1, 300, 3, 1)


def calibration_s(matrix: np.ndarray) -> float:
    """Seconds for one pass of fixed work that touches no critgyro code: an
    interpreter loop, small numpy vector updates and a dense eigh, the three
    kinds of work the workloads spend their time in."""
    t0 = perf_counter()
    acc = 0
    for i in range(30_000):
        acc += (i * 7) % 13
    x = np.linspace(0.0, 1.0, 2001)
    mass = np.full(2001, 1.0 / 2001)
    for _ in range(100):
        mass *= np.interp(x + 1e-3, x, x) + 1.0
        mass /= mass.sum()
    sla.eigh(matrix, subset_by_index=(0, 5))
    return perf_counter() - t0


def build_system(size: Size):
    basis = fock.enumerate_basis(*size.system)
    cache = melem.ElementCache.build(basis.modes)
    return basis, cache


def round_seed(seed: int, rnd: int) -> int:
    """Master seed of one ensemble round, derived from the workload seed."""
    return int(np.random.SeedSequence((seed, rnd)).generate_state(1)[0])


@dataclass
class Round:
    stages: dict                  # stage -> seconds
    attempted: int
    failed: int
    problems: list
    finals: dict = field(default_factory=dict)   # ensemble -> final sigmas
    traced: bool = False
    spans: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


def fastest_round_s(rounds) -> float:
    """Sum over stages of each stage's fastest time among `rounds`."""
    best: dict[str, float] = {}
    for r in rounds:
        for stage, secs in r.stages.items():
            best[stage] = min(secs, best.get(stage, secs))
    return sum(best.values())


def transition_window(p0: np.ndarray, points: int, margin: int = WINDOW_MARGIN) -> slice:
    """`points` evenly strided reference grid points centred on the 0.9 -> 0.1
    fall of p0, reaching `margin` points past both crossings.

    Every pair then costs the same per round, and the grid stays dense where
    the state changes: over the whole auto grid, every 5th point is too
    coarse for the adiabatic follow of the narrow pairs (it settles on
    another branch), while windows this dense reproduce the reference
    likelihood to 1e-11.
    """
    hi = int(np.argmax(p0 < 0.9))
    lo = int(np.argmax(p0 < 0.1))
    stride = max(1, -(-(lo - hi + 2 * margin) // (points - 1)))
    span = stride * (points - 1)
    start = min(max((hi + lo - span) // 2, 0), len(p0) - 1 - span)
    return slice(start, start + span + 1, stride)


class Curves:
    """Per round, one ladder pair: locate_grid (the auto grid's pre-scan),
    catalog_build on a window of the reference grid, curve_diagnostics on that
    curve, and a catalog_save/load round trip.

    The full auto-grid curve (6 s) and its diagnostics (8 s) are too long to
    time steadily here; the window keeps each stage near 1-2 s.
    """

    name = "curves"
    min_rounds = 1

    def __init__(self, seed: int, size: Size):
        self.size = size
        reference = curves.catalog_load(REFERENCE_CATALOG)
        extras = sorted(c.key for c in reference.curves if c.key not in FIXED_PAIRS)
        drawn = np.random.default_rng(seed).permutation(len(extras))
        self.pairs = (list(FIXED_PAIRS) + [extras[i] for i in drawn])[:size.curve_pairs]
        self.expected, self.auto_grids = {}, {}
        for key in self.pairs:
            ref = reference.find(*key)
            self.auto_grids[key] = ref.omega
            pick = transition_window(ref.p0, size.grid_points)
            self.expected[key] = ResonanceCurve.from_values(
                *key, ref.omega[pick], ref.p0[pick])
        self.tmp = None

    def replay(self) -> dict:
        return {"pairs": self.pairs, "grid_points": {
            str(k): len(c.omega) for k, c in self.expected.items()}}

    def setup(self):
        return build_system(self.size)

    def run_round(self, state, rnd: int) -> Round:
        basis, cache = state[0], state[1]
        pair = self.pairs[rnd % len(self.pairs)]
        path = Path(self.tmp) / f"catalog_{rnd}.json"
        try:
            t0 = perf_counter()
            located = curves.locate_grid(basis, cache, *pair)
            t1 = perf_counter()
            catalog = curves.catalog_build(basis, cache, [pair],
                                           grid=self.expected[pair].omega)
            t2 = perf_counter()
            diag = curves.curve_diagnostics(basis, cache, catalog.find(*pair))
            t3 = perf_counter()
            curves.catalog_save(catalog, path)
            loaded = curves.catalog_load(path)
            t4 = perf_counter()
        except Exception as exc:  # a raising curve fails the round's operations
            return Round({}, 4, 4, [f"round {rnd} {pair}: {type(exc).__name__}: {exc}"])
        stages = {"locate_grid": t1 - t0, "catalog_build": t2 - t1,
                  "curve_diagnostics": t3 - t2, "catalog_roundtrip": t4 - t3}
        problems = self.check_located(pair, located)
        problems += self.check_curve(catalog.find(*pair))
        problems += check_diagnostics(diag, basis.n_particles)
        problems += check_round_trip(catalog, loaded)
        return Round(stages, 4, len(problems), problems)

    def check_located(self, pair, grid) -> list:
        want = self.auto_grids[pair]
        if grid.shape == want.shape and np.allclose(grid, want, rtol=0, atol=GRID_TOL):
            return []
        return [f"located grid of {pair} differs from the reference auto grid"]

    def check_curve(self, curve) -> list:
        want = self.expected[curve.key]
        errors = []
        if curve.omega.shape != want.omega.shape or \
                not np.allclose(curve.omega, want.omega, rtol=0, atol=GRID_TOL):
            errors.append("grid differs from the reference grid")
        else:
            p0_err = float(np.max(np.abs(curve.p0 - want.p0)))
            if not p0_err <= P0_TOL:
                errors.append(f"p0 differs from reference by {p0_err:.3e}")
        for label, got, ref, tol in (("center", curve.center, want.center, CENTER_TOL),
                                     ("width", curve.width, want.width, WIDTH_TOL)):
            if got is None or ref is None or not abs(got - ref) <= tol:
                errors.append(f"{label} {got} vs reference {ref}")
        return [f"curve {curve.key}: " + "; ".join(errors)] if errors else []


def check_diagnostics(diag, n_particles: int) -> list:
    arrays = (diag.gap, diag.lam1, diag.lam2, diag.branch_gap, diag.exp_L, diag.spdm_trace)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        return ["diagnostics: non-finite values"]
    worst = float(np.max(np.abs(diag.spdm_trace - n_particles)))
    if not worst <= TRACE_TOL:
        return [f"diagnostics: SPDM trace off N by {worst:.3e}"]
    return []


def check_round_trip(saved, loaded) -> list:
    same = len(saved.curves) == len(loaded.curves) and all(
        a.key == b.key and a.center == b.center and a.width == b.width
        and np.array_equal(a.omega, b.omega) and np.array_equal(a.p0, b.p0)
        for a, b in zip(saved.curves, loaded.curves)
    )
    return [] if same else ["catalog save/load round trip changed the catalog"]


def check_sigma(sigma: np.ndarray, n_measurements: int) -> int:
    """Trajectories whose sigma trace is missing, non-finite or non-positive."""
    if sigma.ndim != 2 or sigma.shape[1] != n_measurements:
        return len(sigma)
    return int(np.sum(~np.all(np.isfinite(sigma) & (sigma > 0), axis=1)))


class Ensembles:
    """Per round, run_ensemble over the reference catalog for each of the
    workload's configurations, all from the round's master seed."""

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size
        self.min_rounds = size.sigma_rounds

    def replay(self) -> dict:
        default = ProtocolConfig().to_dict()
        return {"master_seed": "round_seed(seed, round)",
                "ensembles": {label: {"trajectories_per_round": n,
                                      **{k: v for k, v in cfg.to_dict().items()
                                         if v != default[k]}}
                              for label, cfg, n in self.ensembles()}}

    def setup(self):
        basis, cache = build_system(self.size)
        return basis, cache, curves.catalog_load(REFERENCE_CATALOG)

    def run_round(self, state, rnd: int) -> Round:
        catalog = state[2]
        master = round_seed(self.seed, rnd)
        out = Round({}, 0, 0, [])
        for label, cfg, n_traj in self.ensembles():
            out.attempted += n_traj
            t0 = perf_counter()
            try:
                ens = estimate.run_ensemble(cfg, catalog, n_trajectories=n_traj,
                                            master_seed=master)
            except Exception as exc:  # every trajectory aborted, or a defect
                out.failed += n_traj
                out.problems.append(f"{label} round {rnd}: {type(exc).__name__}: {exc}")
                continue
            out.stages[label] = perf_counter() - t0
            bad = check_sigma(ens.sigma, cfg.n_measurements)
            out.failed += ens.n_aborted + bad
            if ens.n_aborted or bad:
                out.problems.append(f"{label} round {rnd}: {ens.n_aborted} aborted at "
                                    f"{ens.abort_indices}, {bad} with bad sigma")
            out.finals[label] = ens.sigma[:, -1].copy()
        return out


class EnsembleLong(Ensembles):
    name = "ensemble_long"

    def ensembles(self):
        cfg = ProtocolConfig(n_measurements=self.size.long_measurements)
        return [("untuned_10k", cfg, self.size.long_trajectories)]


class EnsemblePresets(Ensembles):
    """The ensembles of `critgyro estimate --preset fig4` and `--preset array`."""

    name = "ensemble_presets"

    def ensembles(self):
        n = self.size.preset_trajectories
        fig4 = (("fig4_untuned", ()), ("fig4_one_tuning", (12,)),
                ("fig4_two_tunings", (12, 32)))
        out = [(label, ProtocolConfig(schedule=sched, n_measurements=100), n)
               for label, sched in fig4]
        out.append(("array", ProtocolConfig(schedule=(200,), batch_size=200,
                                            n_measurements=400), n))
        return out


WORKLOADS = {w.name: w for w in (Curves, EnsembleLong, EnsemblePresets)}

#: end-to-end metric -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metric -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "fock.enumerate_basis.s": ("s", "lower", "setup_s, all workloads"),
    "melem.ElementCache.build.s": ("s", "lower", "setup_s, all workloads"),
    "fock.basis_dim": ("count", "lower", "setup_s, all workloads; wall_s on curves"),
    "melem.u_entries": ("count", "lower", "setup_s, all workloads"),
    "curves.catalog_load.s": ("s", "lower", "setup_s on both ensembles; wall_s on curves"),
    "hamiltonian.assemble.calls": ("count", "lower", "wall_s on curves; nothing on the ensembles"),
    "hamiltonian.assemble.s": ("s", "lower", "wall_s on curves (catalog_build, diagnostics)"),
    "hamiltonian.assemble.nnz": ("count", "lower", "wall_s on curves"),
    "hamiltonian.assemble.calls_per_pair": ("ratio", "lower", "wall_s on curves"),
    "spectrum.sweep_lowest.calls": ("count", "lower", "wall_s on curves"),
    "spectrum.sweep_lowest.points": ("count", "lower", "wall_s on curves"),
    "spectrum.sweep_lowest.s": ("s", "lower", "wall_s on curves (catalog_build, diagnostics)"),
    "spectrum.sweep_lowest.ms_per_point": ("ms", "lower", "wall_s on curves"),
    "spectrum.sweep_lowest.dim": ("count", "lower", "wall_s on curves"),
    "spectrum.sweep_lowest.points_per_output_point": ("ratio", "lower", "wall_s on curves"),
    "observables.spdm.calls": ("count", "lower", "wall_s on curves (diagnostics)"),
    "observables.spdm.s": ("s", "lower", "wall_s on curves (diagnostics)"),
    "observables.expected_L.s": ("s", "lower", "wall_s on curves (diagnostics)"),
    "curves.catalog_build.self_s": ("s", "lower", "wall_s on curves (catalog_build)"),
    "curves.compute_curve.self_s": ("s", "lower", "wall_s on curves (catalog_build)"),
    "curves.locate_grid.s": ("s", "lower", "wall_s on curves (pre-scan)"),
    "curves.locate_grid.self_s": ("s", "lower", "wall_s on curves (pre-scan)"),
    "curves.curve_diagnostics.self_s": ("s", "lower", "wall_s on curves (diagnostics)"),
    "curves.catalog_save.s": ("s", "lower", "wall_s on curves (round trip)"),
    "estimate.run_ensemble.self_s": ("s", "lower", "wall_s on both ensembles"),
    "estimate.run_protocol.calls": ("count", "lower", "wall_s on both ensembles"),
    "estimate.run_protocol.self_s": ("s", "lower", "wall_s on ensemble_presets (per-trajectory set-up)"),
    "estimate.run_protocol.ms_p50": ("ms", "lower", "wall_s on both ensembles"),
    "estimate.run_protocol.ms_p95": ("ms", "lower", "wall_s on both ensembles"),
    "kernels.bayes_stage.calls": ("count", "lower", "wall_s on both ensembles"),
    "kernels.bayes_stage.s": ("s", "lower", "wall_s on both ensembles"),
    "estimate.grid_updates": ("count", "lower", "wall_s on both ensembles"),
    "kernels.bayes_stage.ns_per_grid_update": ("ns", "lower", "wall_s on both ensembles"),
    "estimate.support_frac": ("ratio", "higher", "predicts where a support window gains: low on ensemble_long"),
    "estimate.lookup_by_width.calls": ("count", "lower", "wall_s on ensemble_presets (retunes)"),
    "estimate.lookup_by_width.s": ("s", "lower", "wall_s on ensemble_presets (retunes)"),
    "estimate.sigma_final_med.untuned_10k": ("omega", "lower", "estimator accuracy on ensemble_long"),
    "estimate.sigma_final_med.fig4_untuned": ("omega", "lower", "estimator accuracy on ensemble_presets"),
    "estimate.sigma_final_med.fig4_two_tunings": ("omega", "lower", "estimator accuracy on ensemble_presets"),
    "estimate.sigma_final_med.array": ("omega", "lower", "estimator accuracy on ensemble_presets"),
    "trace.wall_s": ("s", "lower", "traced round time, all workloads"),
    "trace.unspanned_s": ("s", "lower", "round time outside every span, all workloads"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall_s, all workloads"),
}


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def support_frac(mass: np.ndarray) -> float:
    return float(np.mean(mass > SUPPORT_FLOOR * mass.max()))


def targets() -> list[Target]:
    """Each public function a workload reaches, in the namespace that calls it."""
    return [
        Target(fock, "enumerate_basis", "fock.enumerate_basis"),
        Target(melem.ElementCache, "build", "melem.ElementCache.build"),
        Target(curves, "catalog_build", "curves.catalog_build"),
        Target(curves, "compute_curve", "curves.compute_curve",
               lambda a, k, r: {"points": len(r.omega)}),
        Target(curves, "locate_grid", "curves.locate_grid"),
        Target(curves, "curve_diagnostics", "curves.curve_diagnostics"),
        Target(curves, "assemble", "hamiltonian.assemble",
               lambda a, k, r: {"pair": (_arg(a, k, 1, "params").g,
                                         _arg(a, k, 1, "params").anisotropy),
                                "nnz": len(r.vals)}),
        Target(curves, "sweep_lowest", "spectrum.sweep_lowest",
               lambda a, k, r: {"points": len(_arg(a, k, 2, "omegas")),
                                "dim": _arg(a, k, 0, "h0_dense").shape[0]}),
        Target(curves, "spdm", "observables.spdm"),
        Target(curves, "expected_L", "observables.expected_L"),
        Target(curves, "catalog_save", "curves.catalog_save"),
        Target(curves, "catalog_load", "curves.catalog_load"),
        Target(estimate, "run_ensemble", "estimate.run_ensemble"),
        Target(estimate, "run_protocol", "estimate.run_protocol",
               lambda a, k, r: {"support": support_frac(r.posterior.mass)}),
        Target(_kernels, "bayes_stage", "kernels.bayes_stage",
               lambda a, k, r: {"grid_updates": len(a[0]) * int(r)}),
        Target(estimate, "lookup_by_width", "estimate.lookup_by_width"),
    ]


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    sigma_rounds: int
    setup_s: list
    setup_spans: list
    rounds: list
    calibration_s: list
    basis_dim: int
    u_entries: int
    peak_rss_mb: float
    replay: dict
    missing_targets: list

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.rounds)

    def sigma_medians(self) -> dict:
        """Median final sigma per ensemble, pooled over the first rounds."""
        pooled: dict[str, list] = {}
        for r in self.rounds[:self.sigma_rounds]:
            for label, finals in r.finals.items():
                pooled.setdefault(label, []).append(finals)
        return {label: float(np.median(np.concatenate(parts)))
                for label, parts in pooled.items()}

    def stage_figures(self) -> dict:
        """Fastest and median seconds per stage over the untraced rounds."""
        plain = [r for r in self.rounds if not r.traced]
        out = {}
        for stage in dict.fromkeys(s for r in plain for s in r.stages):
            vals = [r.stages[stage] for r in plain if stage in r.stages]
            out[stage] = (min(vals), statistics.median(vals), len(vals))
        return out

    @property
    def speed_scale(self) -> float:
        """Factor taking this run's times to the reference machine speed."""
        return CALIBRATION_REF_S / min(self.calibration_s)

    def metrics(self) -> dict:
        values = layer_metrics(self) if self.trace else {
            "setup_s": min(self.setup_s) * self.speed_scale,
            "wall_s": fastest_round_s(self.rounds) * self.speed_scale,
            "peak_rss_mb": self.peak_rss_mb,
        }
        specs = PER_LAYER if self.trace else END_TO_END
        return {k: {"value": float(values[k]), "unit": spec[0]} for k, spec in specs.items()}

    def summary(self) -> dict:
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": self.metrics()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(res: Result) -> dict:
    """Per-layer figures per traced round; set-up spans per set-up."""
    traced = [r for r in res.rounds if r.traced]
    plain = [r for r in res.rounds if not r.traced]
    n = len(traced)
    by_name: dict[str, list] = {}
    for span in (s for r in traced for s in r.spans):
        by_name.setdefault(span.name, []).append(span)
    setup_total: dict[str, float] = {}
    for span in res.setup_spans:
        setup_total[span.name] = setup_total.get(span.name, 0.0) + span.duration

    def calls(name):
        return len(by_name.get(name, ())) / n

    def total(name):
        return (sum(s.duration for s in by_name.get(name, ())) / n
                + setup_total.get(name, 0.0) / len(res.setup_s))

    def self_s(name):
        return sum(s.self_s for s in by_name.get(name, ())) / n

    def infos(name, key):
        return [s.info[key] for s in by_name.get(name, ()) if s.info]

    sweep_points = sum(infos("spectrum.sweep_lowest", "points")) / n
    curve_points = sum(infos("curves.compute_curve", "points")) / n
    grid_updates = sum(infos("kernels.bayes_stage", "grid_updates")) / n
    pairs = infos("hamiltonian.assemble", "pair")
    protocol_ms = [1e3 * s.duration for s in by_name.get("estimate.run_protocol", ())] or [0.0]
    sigma = res.sigma_medians()
    out = {
        "fock.enumerate_basis.s": total("fock.enumerate_basis"),
        "melem.ElementCache.build.s": total("melem.ElementCache.build"),
        "fock.basis_dim": res.basis_dim,
        "melem.u_entries": res.u_entries,
        "curves.catalog_load.s": total("curves.catalog_load"),
        "hamiltonian.assemble.calls": calls("hamiltonian.assemble"),
        "hamiltonian.assemble.s": total("hamiltonian.assemble"),
        "hamiltonian.assemble.nnz": float(np.median(infos("hamiltonian.assemble", "nnz") or [0])),
        "hamiltonian.assemble.calls_per_pair": _ratio(len(pairs), len(set(pairs))),
        "spectrum.sweep_lowest.calls": calls("spectrum.sweep_lowest"),
        "spectrum.sweep_lowest.points": sweep_points,
        "spectrum.sweep_lowest.s": total("spectrum.sweep_lowest"),
        "spectrum.sweep_lowest.ms_per_point": 1e3 * _ratio(total("spectrum.sweep_lowest"), sweep_points),
        "spectrum.sweep_lowest.dim": max(infos("spectrum.sweep_lowest", "dim") or [0]),
        "spectrum.sweep_lowest.points_per_output_point": _ratio(sweep_points, curve_points),
        "observables.spdm.calls": calls("observables.spdm"),
        "observables.spdm.s": total("observables.spdm"),
        "observables.expected_L.s": total("observables.expected_L"),
        "curves.catalog_build.self_s": self_s("curves.catalog_build"),
        "curves.compute_curve.self_s": self_s("curves.compute_curve"),
        "curves.locate_grid.s": total("curves.locate_grid"),
        "curves.locate_grid.self_s": self_s("curves.locate_grid"),
        "curves.curve_diagnostics.self_s": self_s("curves.curve_diagnostics"),
        "curves.catalog_save.s": total("curves.catalog_save"),
        "estimate.run_ensemble.self_s": self_s("estimate.run_ensemble"),
        "estimate.run_protocol.calls": calls("estimate.run_protocol"),
        "estimate.run_protocol.self_s": self_s("estimate.run_protocol"),
        "estimate.run_protocol.ms_p50": float(np.percentile(protocol_ms, 50)),
        "estimate.run_protocol.ms_p95": float(np.percentile(protocol_ms, 95)),
        "kernels.bayes_stage.calls": calls("kernels.bayes_stage"),
        "kernels.bayes_stage.s": total("kernels.bayes_stage"),
        "estimate.grid_updates": grid_updates,
        "kernels.bayes_stage.ns_per_grid_update": 1e9 * _ratio(total("kernels.bayes_stage"), grid_updates),
        "estimate.support_frac": float(np.mean(infos("estimate.run_protocol", "support") or [0])),
        "estimate.lookup_by_width.calls": calls("estimate.lookup_by_width"),
        "estimate.lookup_by_width.s": total("estimate.lookup_by_width"),
        "trace.wall_s": statistics.mean(r.wall_s for r in traced),
        "trace.unspanned_s": statistics.mean(spans.unspanned(r.wall_s, r.spans) for r in traced),
        "trace.overhead_s": fastest_round_s(traced) - fastest_round_s(plain),
    }
    for label in ("untuned_10k", "fig4_untuned", "fig4_two_tunings", "array"):
        out[f"estimate.sigma_final_med.{label}"] = sigma.get(label, 0.0)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: Size = PRODUCTION) -> Result:
    """Set up, then run rounds for `seconds` (traced and untraced alternating
    when `trace`), setting up again after each round and checking its outputs."""
    wl = WORKLOADS[workload](seed, size)
    present = [t for t in targets() if t.attr in vars(t.owner)]
    missing = sorted({t.name for t in targets()} - {t.name for t in present})
    tracer = spans.Tracer()
    setup_s, setup_spans, rounds, calibration = [], [], [], []
    cal_matrix = np.random.default_rng(0).standard_normal((322, 322))
    cal_matrix += cal_matrix.T

    def calibrate():
        calibration.extend(calibration_s(cal_matrix) for _ in range(CALIBRATION_REPS))

    def timed_setup():
        mark = len(tracer.spans)
        with spans.patched(tracer, present if trace else ()):
            t0 = perf_counter()
            state = wl.setup()
            setup_s.append(perf_counter() - t0)
        setup_spans.extend(tracer.since(mark))
        return state

    state = timed_setup()
    calibrate()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl.tmp = tmp
        start = perf_counter()
        while True:
            traced = trace and len(rounds) % 2 == 1
            mark = len(tracer.spans)
            with spans.patched(tracer, present if traced else ()):
                rnd = wl.run_round(state, len(rounds))
            rnd.traced = traced
            rnd.spans = tracer.since(mark)
            rounds.append(rnd)
            timed_setup()
            calibrate()
            if perf_counter() - start >= seconds and len(rounds) >= wl.min_rounds \
                    and (not trace or len(rounds) >= 2):
                break
    while len(setup_s) < SETUP_REPS:
        timed_setup()
    return Result(
        workload=workload, seed=seed, trace=trace, sigma_rounds=size.sigma_rounds,
        setup_s=setup_s, setup_spans=setup_spans, rounds=rounds, calibration_s=calibration,
        basis_dim=state[0].size, u_entries=len(state[1].u_raw),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        replay=wl.replay(), missing_targets=missing,
    )


def blas_threads() -> dict:
    """Thread count of each OpenBLAS that numpy and scipy bundle."""
    import ctypes

    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            dll = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(dll, sym, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[lib.name] = getter()
                    break
    return found


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the paths and bytes of src/**/*.py; names the code that
    ran when the checkout is not a git work tree."""
    digest = sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def replay_record(res: Result, env: dict) -> dict:
    return {
        "workload": res.workload,
        "seed": res.seed,
        "inputs": res.replay,
        "backend": active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "processes": 1,
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        **env,
    }


def report_lines(res: Result, env: dict):
    """Human-readable report: metrics with unit and direction, stage times,
    sigma medians, problems, the replay record and, when traced, the
    per-round span accounting and the layer map."""
    yield (f"workload {res.workload} seed {res.seed}: {len(res.rounds)} rounds "
           f"({sum(r.traced for r in res.rounds)} traced), {len(res.setup_s)} set-ups")
    specs = PER_LAYER if res.trace else END_TO_END
    for name, entry in res.metrics().items():
        yield f"metric {name} = {entry['value']!r} {entry['unit']} ({specs[name][1]} is better)"
    yield (f"speed: fastest calibration {min(res.calibration_s):.5f} s of "
           f"{len(res.calibration_s)}; times scaled by {res.speed_scale:.4f}; unscaled "
           f"setup_s {min(res.setup_s)!r}, wall_s {fastest_round_s(res.rounds)!r}")
    for stage, (best, median, count) in res.stage_figures().items():
        yield f"stage {stage}: fastest {best:.4f} s, median {median:.4f} s of {count}"
    for label, value in res.sigma_medians().items():
        yield f"sigma_final_med.{label} = {value!r} (first {res.sigma_rounds} rounds pooled)"
    yield f"fail_frac = {res.failed / res.attempted!r} ({res.failed} of {res.attempted})"
    if res.trace:
        for r in (r for r in res.rounds if r.traced):
            parts = sorted(spans.self_times(r.spans).items())
            yield ("accounting: " + " + ".join(f"{k} {v:.4f}" for k, v in parts)
                   + f" + unspanned {spans.unspanned(r.wall_s, r.spans):.4f}"
                   + f" = wall {r.wall_s:.4f} s")
        for name, (_, _, moves) in PER_LAYER.items():
            yield f"layer {name} -> {moves}"
    for name in res.missing_targets:
        yield f"note: {name} no longer exists; its layer figures read 0"
    for problem in (p for r in res.rounds for p in r.problems):
        yield f"problem: {problem}"
    yield "replay " + json.dumps(replay_record(res, env), default=str)
