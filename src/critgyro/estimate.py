"""Grid-based Bayesian rotation estimation with adaptive retuning.

`run_protocol` is the estimator's one path. It builds the flat prior and
runs each stage (one curve, between scheduled retunes) through
`_kernels.bayes_stage`, the package's only posterior update. Its result is
arrays: per-measurement sigma, outcome and applied shift, the stage
parameters, and the final `Posterior`. `run_ensemble` repeats it from
split seeds and keeps the sigma traces.

The estimator's inputs are its arguments: the config, the catalog and the
generator or master seed. It reads no environment variable (the CLI
applies CRITGYRO_SEED to the config), and it takes curves on any strictly
ascending grid.

Ensembles run on every CPU, with the bits of a serial run. Trajectory
`index` draws from `trajectory_rng(master, index)` alone, so `run_ensemble`
splits the indices into chunks of ceil(n / W), with W one per CPU the
process may use (`_workers`) and never more than the trajectories; the
chunks may run out before W (n = 5 on W = 4: chunks 2, 2, 1). The calling
process runs chunk 0, and each further chunk runs in one forked
`multiprocessing` process that sends its rows back through a one-way pipe.
Every trajectory runs through the unchanged `run_protocol` on one BLAS
thread, and the caller reads the children's rows in index order: the
`EnsembleResult` is the serial one bit for bit, whatever W. The config,
the catalog and the master seed reach a child through the fork, as the
arguments of its target, and are never pickled; only its rows, or its
error, cross the pipe. No child is forked for one CPU or one trajectory,
where `fork` is not a start method, or while another thread is alive in
the process (a fork copies no thread, and a lock one held would stay
locked in the child); those ensembles run in the caller alone. On a no-op
50-trajectory ensemble the fork, the pipe and the join cost 6-8 ms at best
and 8-10 ms in the median of 30 runs; this was measured on 2 CPUs only.

A trajectory draws Bernoulli outcomes from the likelihood curve at the
true rotation (plus the recentering shift), multiplies the posterior by
P(0|Omega+delta) or its complement, and renormalizes. The shift delta is
chosen before each batch so that the posterior mean lands on the curve
center; at scheduled measurement counts the active curve is swapped for
the catalog entry whose width best matches kappa * sigma.

Internally every position is handled as an offset from the prior origin,
which makes trajectories invariant, bit for bit, under a rigid shift of
prior, true rotation and curve grid (when the shifted inputs are exact).

`run_protocol` updates only the posterior's support: at each recentering,
grid points holding at most `_kernels.WINDOW_FLOOR` (1e-30) of the mass at
the posterior mean are set to zero and leave the window for good. Their
total is `ProtocolResult.dropped_mass` (at most grid_size * 1e-30), and
`EnsembleResult.max_dropped_mass` is the largest per ensemble. The
`_kernels` docstring records how the floor was chosen.
"""

import functools
import math
import numbers
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels, spectrum
from .curves import CurveCatalog, lookup_by_width
from .errors import DegenerateUpdateError, ParameterError

KAPPA_DEFAULT = 4.0
DEFAULT_PRIOR = (0.87, 0.93)
DEFAULT_OMEGA_TRUE = 0.90
DEFAULT_GRID_SIZE = 2001


@dataclass(frozen=True)
class Posterior:
    """Normalized probability masses on an ascending rotation grid."""

    omega: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        if omega.ndim != 1 or omega.shape != mass.shape or omega.size < 2:
            raise ParameterError("posterior needs matching 1-d arrays, >= 2 points")
        if not np.all(np.diff(omega) > 0):  # NaN fails this and the checks below
            raise ParameterError("posterior grid must be strictly ascending")
        if not mass.min() >= 0:
            raise ParameterError("posterior masses must be nonnegative")
        if not abs(mass.sum() - 1.0) <= 1e-12:
            raise ParameterError("posterior masses must sum to 1 within 1e-12")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "mass", mass)

    @property
    def mean(self) -> float:
        return float(self.omega[0] + self.mass @ (self.omega - self.omega[0]))


def _integer(name, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _finite(name, value) -> float:
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ParameterError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one estimation run; JSON round-trips via to/from_dict.

    This is the schema of `critgyro estimate --config`: a JSON object with
    any of the keys below (others are refused). Each entry gives the type,
    the accepted range and the default; integers refuse booleans, floats
    and strings, and numbers must be finite. A value that breaks the schema
    raises ParameterError (the CLI exits 2).

    omega_true: float, prior_lo <= omega_true <= prior_hi, default 0.90.
        The true rotation the outcomes are drawn at; a prior that excludes
        it could only end in a confident wrong estimate.
    prior_lo, prior_hi: float, prior_lo < prior_hi, default 0.87 and 0.93.
        Ends of the flat prior.
    grid_size: int >= 2, default 2001. Points of the posterior grid.
    seed: int >= 0, default 0. Seed of a single trajectory and master seed
        of an ensemble. `critgyro estimate` replaces it with the
        CRITGYRO_SEED environment variable when that is set; the package
        itself never reads the variable.
    n_measurements: int >= 1, default 100. Set to 100 by `--preset fig3`
        and `fig4`, to 400 by `--preset array`.
    schedule: list of ints, each >= 1 and strictly increasing (multiples of
        batch_size when it is above 1), default []. Measurement counts after
        which the curve is retuned; counts >= n_measurements are ignored.
        Set to [] by `--preset fig3`, to [], [12] and [12, 32] by `fig4`, to
        [200] by `array`.
    batch_size: int >= 1, default 1. Measurements between recenterings,
        which share one shift. Set to 200 by `--preset array`.
    kappa: float > 0, default 4.0. A retune picks the curve whose width is
        nearest kappa * sigma.
    initial_g, initial_anisotropy: float, default 0.5 and 0.04. The first
        stage's curve; the catalog must hold this pair.
    """

    omega_true: float = DEFAULT_OMEGA_TRUE
    prior_lo: float = DEFAULT_PRIOR[0]
    prior_hi: float = DEFAULT_PRIOR[1]
    grid_size: int = DEFAULT_GRID_SIZE
    seed: int = 0
    n_measurements: int = 100
    schedule: tuple[int, ...] = ()
    batch_size: int = 1
    kappa: float = KAPPA_DEFAULT
    initial_g: float = 0.5
    initial_anisotropy: float = 0.04

    def __post_init__(self):
        for name in ("omega_true", "prior_lo", "prior_hi", "kappa", "initial_g",
                     "initial_anisotropy"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        for name in ("grid_size", "seed", "n_measurements", "batch_size"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if not isinstance(self.schedule, (list, tuple)):
            raise ParameterError(f"schedule must be a list of integers, got {self.schedule!r}")
        if not self.prior_lo < self.prior_hi:
            raise ParameterError("prior_lo must be below prior_hi")
        if not self.prior_lo <= self.omega_true <= self.prior_hi:
            raise ParameterError(f"omega_true {self.omega_true} lies outside the prior "
                                 f"[{self.prior_lo}, {self.prior_hi}]")
        if self.grid_size < 2:
            raise ParameterError("grid_size must be >= 2")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.n_measurements < 1:
            raise ParameterError("n_measurements must be >= 1")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if not self.kappa > 0:
            raise ParameterError("kappa must be > 0")
        sched = tuple(_integer("schedule entry", s) for s in self.schedule)
        if any(s < 1 for s in sched):
            raise ParameterError("schedule indices must be >= 1")
        if any(b >= a for a, b in zip(sched[1:], sched)):
            raise ParameterError("schedule indices must be strictly increasing")
        if self.batch_size > 1 and any(s % self.batch_size for s in sched):
            raise ParameterError(
                "retune indices must be multiples of the batch size"
            )
        object.__setattr__(self, "schedule", sched)

    def to_dict(self) -> dict:
        return {**asdict(self), "schedule": list(self.schedule)}

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        if not isinstance(data, dict):
            raise ParameterError(f"a config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class ProtocolResult:
    posterior: Posterior
    sigma_trace: np.ndarray        # per measurement
    outcomes: np.ndarray           # 1 = zero outcome
    deltas: np.ndarray
    stage_params: list             # [(first_index, g, anisotropy), ...]
    dropped_mass: float            # total the support window set to zero

    @property
    def final_sigma(self) -> float:
        return float(self.sigma_trace[-1])


def run_protocol(config: ProtocolConfig, catalog: CurveCatalog,
                 rng=None) -> ProtocolResult:
    """Execute one trajectory, drawing from `rng` or, when it is None, from
    a generator seeded with `config.seed`; raises DegenerateUpdateError
    with the measurement index if an update annihilates the posterior.
    Each stage recenters before every `config.batch_size` measurements."""
    curve = catalog.find(config.initial_g, config.initial_anisotropy)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    n = config.n_measurements
    uniforms = rng.random(n)

    grid = np.linspace(config.prior_lo, config.prior_hi, config.grid_size)
    x = grid - grid[0]
    mass = np.full(config.grid_size, 1.0 / config.grid_size)
    mass /= mass.sum()
    true_off = config.omega_true - grid[0]

    sigma = np.empty(n)
    outcomes = np.zeros(n, dtype=np.int8)
    shifts = np.empty(n)
    dropped = np.zeros(n)
    deltas = np.empty(n)
    stage_params = []

    boundaries = [0] + [s for s in config.schedule if s < n] + [n]
    for start, end in zip(boundaries, boundaries[1:]):
        stage_params.append((start + 1, curve.g, curve.anisotropy))
        done = _kernels.bayes_stage(
            mass, x, curve.offsets(), curve.p0, curve.rel_center, true_off,
            uniforms[start:end], config.batch_size,
            sigma[start:end], outcomes[start:end], shifts[start:end],
            dropped[start:end],
        )
        base = float(curve.omega[0] - grid[0])
        deltas[start:start + done] = base + shifts[start:start + done]
        if done < end - start:
            raise DegenerateUpdateError(
                "posterior annihilated",
                measurement_index=start + done + 1,
            )
        if end < n:
            # width target from the kernel's (offset-based, shift-covariant) sigma
            curve = lookup_by_width(catalog, config.kappa * float(sigma[end - 1]))

    return ProtocolResult(
        posterior=Posterior(omega=grid, mass=mass),
        sigma_trace=sigma,
        outcomes=outcomes,
        deltas=deltas,
        stage_params=stage_params,
        dropped_mass=float(dropped.sum()),
    )


@dataclass(frozen=True)
class EnsembleResult:
    sigma: np.ndarray          # (n_completed, n_measurements)
    seeds: list                # (master seed, child index) per completed row
    n_aborted: int
    abort_indices: list
    max_dropped_mass: float    # largest dropped_mass of a completed row
    workers: int = 1           # processes that ran the trajectories

    def median_sigma(self, mu: int | None = None):
        """Ensemble median sigma at the integer measurement count mu in
        [1, n_measurements] (ParameterError otherwise), or the full trace."""
        n = self.sigma.shape[1]
        if mu is not None and not 1 <= _integer("mu", mu) <= n:
            raise ParameterError(f"mu must lie in [1, {n}], got {mu}")
        med = np.median(self.sigma, axis=0)
        return med if mu is None else float(med[mu - 1])


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator of trajectory `index` of an ensemble: child `index` of the
    master seed's SeedSequence, as `SeedSequence.spawn` makes it. Both must
    be integers >= 0 (ParameterError)."""
    if _integer("master_seed", master_seed) < 0 or _integer("index", index) < 0:
        raise ParameterError(f"master_seed and index must be >= 0, got {master_seed}, {index}")
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _run_one(config, catalog, seed, index) -> tuple:
    """(sigma trace or None, abort measurement index or None, dropped mass)
    of trajectory `index`; a degenerate one aborts."""
    try:
        res = run_protocol(config, catalog, rng=trajectory_rng(seed, index))
    except DegenerateUpdateError as exc:
        return None, exc.measurement_index, 0.0
    return res.sigma_trace, None, res.dropped_mass


def _workers() -> int:
    """One per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _ensemble_workers(n_traj: int) -> int:
    """Processes an ensemble of n_traj trajectories runs on, the caller
    included: one per chunk (module docstring)."""
    workers = min(_workers(), n_traj)
    if workers < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing  # only where a child may be forked: CLI start-up skips it

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return math.ceil(n_traj / math.ceil(n_traj / workers))  # one per chunk


def _send_rows(one, chunk, send):
    """Body of a forked child: `(True, rows)` of the trajectories in `chunk`,
    or `(False, error)` for the first that raised, through `send`. `one`
    and `chunk` are inherited through the fork, not pickled."""
    try:
        message = True, [one(index) for index in chunk]
    except Exception as exc:  # re-raised in the caller with its own type
        message = False, exc
    send.send(message)


def _fork(one, chunk):
    """A started fork-context child running `_send_rows(one, chunk, ...)` and
    the read end of its pipe; the caller's copy of the send end is closed,
    so the read end sees EOF once the child has exited."""
    import multiprocessing

    receive, send = multiprocessing.Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=_send_rows, args=(one, chunk, send))
    try:
        child.start()
    except BaseException:
        receive.close()
        raise
    finally:
        send.close()
    return child, receive


def run_ensemble(config: ProtocolConfig, catalog: CurveCatalog, n_trajectories: int,
                 master_seed: int | None = None) -> EnsembleResult:
    """`n_trajectories` (an integer >= 1) independent trajectories from a
    split master seed, `master_seed` (an integer >= 0) or `config.seed`;
    ParameterError for a bad argument.

    Degenerate trajectories abort and are counted, not retried. The
    indices are split into `workers` chunks of ceil(n_trajectories /
    workers) (module docstring). The caller runs chunk 0, and each further
    chunk runs in a fork-context `multiprocessing.Process`, all on one BLAS
    thread. A child inherits the config, catalog and seed through the fork
    and sends its rows through a one-way pipe; the caller reads them in
    trajectory order, so the result equals a serial run's bit for bit. Any
    other error of a trajectory propagates with its own type, the lowest
    chunk's first, and a child that exits without sending its rows raises
    ChildProcessError with its exit code. No child process or thread
    outlives the call.
    """
    n_traj = _integer("n_trajectories", n_trajectories)
    if n_traj < 1:
        raise ParameterError(f"n_trajectories must be >= 1, got {n_traj}")
    seed = config.seed if master_seed is None else _integer("master_seed", master_seed)
    if seed < 0:
        raise ParameterError(f"master_seed must be >= 0, got {seed}")
    workers = _ensemble_workers(n_traj)
    size = math.ceil(n_traj / workers)
    chunks = [range(n_traj)[start:start + size] for start in range(0, n_traj, size)]
    one = functools.partial(_run_one, config, catalog, seed)
    children = []
    try:
        with spectrum._one_blas_thread():  # the children inherit it through the fork
            for chunk in chunks[1:]:
                children.append(_fork(one, chunk))
            done = [one(index) for index in chunks[0]]
        for (child, receive), chunk in zip(children, chunks[1:]):
            try:
                sent, rows = receive.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"the process running trajectories {chunk.start}-{chunk.stop - 1} "
                    f"exited with code {child.exitcode} before sending its rows") from None
            if not sent:
                raise rows  # the child's error, with its own type
            done += rows
    finally:
        for child, receive in children:
            child.terminate()  # no effect on a child that has exited
            child.join()
            receive.close()
    kept = [index for index, (trace, _, _) in enumerate(done) if trace is not None]
    aborted = [abort_index for trace, abort_index, _ in done if trace is None]
    if not kept:
        raise DegenerateUpdateError(
            "every trajectory in the ensemble aborted", measurement_index=None
        )
    return EnsembleResult(
        sigma=np.vstack([done[index][0] for index in kept]),
        seeds=[(seed, index) for index in kept],
        n_aborted=len(aborted),
        abort_indices=aborted,
        max_dropped_mass=max(done[index][2] for index in kept),
        workers=workers,
    )


def sigma_scaling(sigma_trace: np.ndarray) -> float:
    """Least-squares log-log slope of sigma versus measurement count.

    The fit runs over the asymptotic tail [n // 100, n]: two decades, so a
    trace needs at least 100 measurements.
    """
    sigma_trace = np.asarray(sigma_trace, dtype=float)
    n = len(sigma_trace)
    if n < 100:
        raise ParameterError(
            "need at least two decades of measurements in the fit tail"
        )
    first = n // 100
    mu = np.arange(first, n + 1)
    vals = sigma_trace[first - 1:]
    if not np.all((vals > 0) & (vals < np.inf)):  # NaN fails both
        raise ParameterError("sigma trace must be finite and positive for a log-log fit")
    return float(np.polyfit(np.log10(mu), np.log10(vals), 1)[0])
