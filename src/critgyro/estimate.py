"""Grid-based Bayesian rotation estimation with adaptive retuning.

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
`EnsembleResult.max_dropped_mass` is the largest per ensemble. A floor of
1e-16 was rejected: mass below it regrows after a retune to a narrow curve,
and fig4 medians moved by up to 1.3e-9 relative from the full-grid update;
at 1e-30 they stay within 7e-14 (the `_kernels` docstring has the details).
"""

import os
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from ._backend import active_backend
from .curves import CurveCatalog, ResonanceCurve, lookup_by_width
from .errors import DegenerateUpdateError, ParameterError
from .observables import hwhm_points

KAPPA_DEFAULT = 4.0
DEFAULT_PRIOR = (0.87, 0.93)
DEFAULT_OMEGA_TRUE = 0.90
DEFAULT_GRID_SIZE = 2001
SEED_ENV = "CRITGYRO_SEED"


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
        if np.any(np.diff(omega) <= 0):
            raise ParameterError("posterior grid must be strictly ascending")
        if mass.min() < 0:
            raise ParameterError("posterior masses must be nonnegative")
        if abs(mass.sum() - 1.0) > 1e-12:
            raise ParameterError("posterior masses must sum to 1 within 1e-12")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "mass", mass)

    def offsets(self) -> np.ndarray:
        return self.omega - self.omega[0]

    @property
    def mean(self) -> float:
        x = self.offsets()
        return float(self.omega[0] + self.mass @ x)

    @property
    def sigma(self) -> float:
        x = self.offsets()
        m = float(self.mass @ x)
        return float(np.sqrt(self.mass @ ((x - m) ** 2)))

    @property
    def hwhm(self) -> float:
        return hwhm_points(self.omega, self.mass)


def init_prior(lo: float, hi: float, gridsize: int = DEFAULT_GRID_SIZE) -> Posterior:
    """Flat prior over [lo, hi] on a uniform grid."""
    if not lo < hi:
        raise ParameterError(f"need lo < hi, got [{lo}, {hi}]")
    if gridsize < 2:
        raise ParameterError("gridsize must be >= 2 (a single point is degenerate)")
    mass = np.full(gridsize, 1.0 / gridsize)
    mass /= mass.sum()
    return Posterior(omega=np.linspace(lo, hi, gridsize), mass=mass)


def simulate_outcome(p: float, rng: np.random.Generator) -> bool:
    """One Bernoulli draw; True means the all-zero outcome. Uses one uniform."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"probability must be in [0, 1], got {p}")
    return bool(rng.random() <= p)


def bayes_update(post: Posterior, curve: ResonanceCurve, delta: float,
                 zero_outcome: bool) -> Posterior:
    """Multiply by the (shifted) likelihood of the outcome and renormalize."""
    active_backend()
    like = curve.evaluate(post.omega + delta)
    mass = post.mass.copy()
    if not _kernels.multiply_renormalize(mass, like if zero_outcome else 1.0 - like):
        raise DegenerateUpdateError(
            "posterior support lies entirely where the outcome has zero likelihood"
        )
    return Posterior(omega=post.omega, mass=mass)


def recenter_offset(post: Posterior, curve: ResonanceCurve) -> float:
    """External rotation shift mapping the posterior mean onto the center."""
    return float(curve.center - post.mean)


def retune(post: Posterior, catalog: CurveCatalog,
           kappa: float = KAPPA_DEFAULT) -> ResonanceCurve:
    """Catalog curve whose width best matches kappa times the posterior sigma."""
    return lookup_by_width(catalog, kappa * post.sigma)


@dataclass(frozen=True)
class ProtocolConfig:
    """Inputs of one estimation run; JSON round-trips via to/from_dict."""

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
    catalog_path: str | None = None
    n_trajectories: int = 1
    recenter_interval: int | None = None  # None: recenter before every batch

    def __post_init__(self):
        if not self.prior_lo < self.prior_hi:
            raise ParameterError("prior_lo must be below prior_hi")
        if self.grid_size < 2:
            raise ParameterError("grid_size must be >= 2")
        if self.n_measurements < 1:
            raise ParameterError("n_measurements must be >= 1")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        sched = tuple(int(s) for s in self.schedule)
        if any(s < 1 for s in sched):
            raise ParameterError("schedule indices must be >= 1")
        if any(b >= a for a, b in zip(sched[1:], sched)):
            raise ParameterError("schedule indices must be strictly increasing")
        if self.batch_size > 1 and any(s % self.batch_size for s in sched):
            raise ParameterError(
                "retune indices must be multiples of the batch size"
            )
        if self.n_trajectories < 1:
            raise ParameterError("n_trajectories must be >= 1")
        if self.recenter_interval is not None and self.recenter_interval < 1:
            raise ParameterError("recenter_interval must be >= 1")
        object.__setattr__(self, "schedule", sched)

    def to_dict(self) -> dict:
        return {
            "omega_true": self.omega_true,
            "prior_lo": self.prior_lo,
            "prior_hi": self.prior_hi,
            "grid_size": self.grid_size,
            "seed": self.seed,
            "n_measurements": self.n_measurements,
            "schedule": list(self.schedule),
            "batch_size": self.batch_size,
            "kappa": self.kappa,
            "initial_g": self.initial_g,
            "initial_anisotropy": self.initial_anisotropy,
            "catalog_path": self.catalog_path,
            "n_trajectories": self.n_trajectories,
            "recenter_interval": self.recenter_interval,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProtocolConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "schedule" in data:
            data["schedule"] = tuple(data["schedule"])
        return cls(**data)


@dataclass(frozen=True)
class MeasurementRecord:
    index: int            # 1-based measurement count
    zero_outcome: bool
    delta: float          # applied external rotation shift
    g: float
    anisotropy: float
    sigma: float          # posterior sigma after this update


@dataclass(frozen=True)
class ProtocolResult:
    posterior: Posterior
    sigma_trace: np.ndarray        # per measurement
    outcomes: np.ndarray           # 1 = zero outcome
    deltas: np.ndarray
    stage_params: list             # [(first_index, g, anisotropy), ...]
    dropped_mass: float            # total the support window set to zero
    records: list = field(default_factory=list)

    @property
    def final_sigma(self) -> float:
        return float(self.sigma_trace[-1])


def resolve_seed(config_seed: int) -> int:
    """The seed a run uses: CRITGYRO_SEED when set, else the config's."""
    env = os.environ.get(SEED_ENV)
    if not env:
        return int(config_seed)
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"{SEED_ENV} must be an integer, got {env!r}") from None


def _check_uniform(curve: ResonanceCurve) -> None:
    if not curve.uniform_grid:
        raise ParameterError(
            "run_protocol needs curves on uniform grids "
            f"(curve {curve.key} is not)"
        )


def run_protocol(config: ProtocolConfig, catalog: CurveCatalog,
                 rng=None, collect_records: bool = True) -> ProtocolResult:
    """Execute one trajectory; raises DegenerateUpdateError with the
    measurement index if an update annihilates the posterior."""
    active_backend()
    curve = catalog.find(config.initial_g, config.initial_anisotropy)
    if rng is None:
        rng = np.random.default_rng(resolve_seed(config.seed))
    n = config.n_measurements
    uniforms = rng.random(n)

    grid = np.linspace(config.prior_lo, config.prior_hi, config.grid_size)
    x = grid - grid[0]
    mass = np.full(config.grid_size, 1.0 / config.grid_size)
    mass /= mass.sum()
    true_off = config.omega_true - grid[0]
    recenter_every = config.recenter_interval or config.batch_size

    sigma = np.empty(n)
    outcomes = np.zeros(n, dtype=np.int8)
    shifts = np.empty(n)
    dropped = np.zeros(n)
    deltas = np.empty(n)
    stage_params = []

    boundaries = [0] + [s for s in config.schedule if s < n] + [n]
    for start, end in zip(boundaries, boundaries[1:]):
        _check_uniform(curve)
        stage_params.append((start + 1, curve.g, curve.anisotropy))
        xc = curve.offsets()
        rel_center = curve.rel_center()
        done = _kernels.bayes_stage(
            mass, x, xc, curve.p0, rel_center, true_off,
            uniforms[start:end], recenter_every,
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

    posterior = Posterior(omega=grid, mass=mass)
    records = []
    if collect_records:
        stage_iter = list(stage_params) + [(n + 1, None, None)]
        si = 0
        for i in range(n):
            while i + 1 >= stage_iter[si + 1][0]:
                si += 1
            records.append(MeasurementRecord(
                index=i + 1,
                zero_outcome=bool(outcomes[i]),
                delta=float(deltas[i]),
                g=stage_iter[si][1],
                anisotropy=stage_iter[si][2],
                sigma=float(sigma[i]),
            ))
    return ProtocolResult(
        posterior=posterior,
        sigma_trace=sigma,
        outcomes=outcomes,
        deltas=deltas,
        stage_params=stage_params,
        dropped_mass=float(dropped.sum()),
        records=records,
    )


@dataclass(frozen=True)
class EnsembleResult:
    sigma: np.ndarray          # (n_completed, n_measurements)
    seeds: list                # (master seed, child index) per completed row
    n_aborted: int
    abort_indices: list
    max_dropped_mass: float    # largest dropped_mass of a completed row

    def median_sigma(self, mu: int | None = None):
        """Ensemble median sigma at measurement count mu in [1, n_measurements]
        (or the full trace)."""
        n = self.sigma.shape[1]
        if mu is not None and not 1 <= mu <= n:
            raise ParameterError(f"mu must lie in [1, {n}], got {mu}")
        med = np.median(self.sigma, axis=0)
        return med if mu is None else float(med[mu - 1])


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Generator of trajectory `index` of an ensemble: child `index` of the
    master seed's SeedSequence, as `SeedSequence.spawn` makes it."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def run_ensemble(config: ProtocolConfig, catalog: CurveCatalog,
                 n_trajectories: int | None = None,
                 master_seed: int | None = None) -> EnsembleResult:
    """Independent trajectories from a split master seed.

    Degenerate trajectories abort and are counted, not retried.
    """
    n_traj = config.n_trajectories if n_trajectories is None else n_trajectories
    if n_traj < 1:
        raise ParameterError(f"n_trajectories must be >= 1, got {n_traj}")
    seed = resolve_seed(config.seed if master_seed is None else master_seed)
    rows = []
    seeds = []
    aborted = []
    max_dropped = 0.0
    for index in range(n_traj):
        rng = trajectory_rng(seed, index)
        try:
            res = run_protocol(config, catalog, rng=rng, collect_records=False)
        except DegenerateUpdateError as exc:
            aborted.append(exc.measurement_index)
            continue
        rows.append(res.sigma_trace)
        seeds.append((seed, index))
        max_dropped = max(max_dropped, res.dropped_mass)
    if not rows:
        raise DegenerateUpdateError(
            "every trajectory in the ensemble aborted", measurement_index=None
        )
    return EnsembleResult(
        sigma=np.vstack(rows),
        seeds=seeds,
        n_aborted=len(aborted),
        abort_indices=aborted,
        max_dropped_mass=max_dropped,
    )


def sigma_scaling(sigma_trace: np.ndarray, start_mu: int | None = None) -> float:
    """Least-squares log-log slope of sigma versus measurement count.

    The fit runs over the asymptotic tail [start_mu, n]; the default start
    keeps two decades, which is also the minimum accepted.
    """
    sigma_trace = np.asarray(sigma_trace, dtype=float)
    n = len(sigma_trace)
    if start_mu is None:
        start_mu = max(n // 100, 1)
    if start_mu < 1:
        raise ParameterError(f"start_mu must be >= 1, got {start_mu}")
    if n < 100 * start_mu:
        raise ParameterError(
            "need at least two decades of measurements in the fit tail"
        )
    mu = np.arange(start_mu, n + 1)
    vals = sigma_trace[start_mu - 1:]
    if np.any(vals <= 0):
        raise ParameterError("sigma trace must be positive for a log-log fit")
    return float(np.polyfit(np.log10(mu), np.log10(vals), 1)[0])
