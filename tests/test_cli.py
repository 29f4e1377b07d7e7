import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import critgyro
import critgyro.cli as cli
import critgyro.curves as curves
import critgyro.estimate as estimate
import critgyro.spectrum as spectrum
from critgyro.cli import main
from critgyro.curves import PRESCAN_POINTS, PRESCAN_RANGE, catalog_save
from critgyro.fock import enumerate_basis
from critgyro.hamiltonian import System
from critgyro.melem import ElementCache


@pytest.fixture(scope="module")
def catalog_file(tmp_path_factory, catalog_default):
    path = tmp_path_factory.mktemp("cat") / "catalog.json"
    catalog_save(catalog_default, path)
    return str(path)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["curve"])
    assert err.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_basis_command(tmp_path):
    out = tmp_path / "basis.csv"
    assert main(["basis", "--n", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,L,occupations"
    assert len(lines) == 65 + 1
    manifest = json.loads((tmp_path / "basis.csv.manifest.json").read_text())
    assert manifest["command"] == "basis"
    assert str(out) in manifest["outputs"]
    assert manifest["details"] == {"n": 3, "n_ll": 2, "l_max": 5}  # --l-max defaults to n + 2


def test_curve_command_with_explicit_grid(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    mat = tmp_path / "matrix.txt"
    code = main([
        "curve", "--g", "0.5", "--A", "0.02",
        "--grid", "0.885:0.915:13",
        "--out", str(out), "--svg", str(svg),
        "--dump-elements", str(tmp_path / "e.csv"),
        "--dump-matrix", str(mat),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "g,A,omega,p0,gap,lam1,lam2,exp_L"
    assert len(lines) == 13 + 1
    assert svg.read_text().startswith("<svg")
    assert (tmp_path / "e.csv").exists()
    assert np.array_equal(_read_matrix(mat), _hamiltonian(6, 0.5, 0.02, 0.0))


def _read_matrix(path):
    """Dense matrix of a `--dump-matrix` file of 'row col value' lines."""
    rows, cols, vals = zip(*(line.split() for line in path.read_text().splitlines()))
    rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
    dense = np.zeros((rows.max() + 1, cols.max() + 1))
    dense[rows, cols] = np.array(vals, dtype=float)
    return dense


def _hamiltonian(n, g, a, omega):
    basis = enumerate_basis(n, 2, n + 2)
    return System(basis, ElementCache.build(basis.modes)).operators.hamiltonian(
        g, a, omega).toarray()


def test_dump_matrix_round_trips_at_a_rotation(tmp_path):
    mat = tmp_path / "matrix.txt"
    assert main(["curve", "--n", "3", "--g", "0.6", "--A", "0.03",
                 "--grid", "0.85:0.95:3", "--out", str(tmp_path / "curve.csv"),
                 "--dump-matrix", str(mat), "--matrix-omega", "0.9"]) == 0
    assert np.array_equal(_read_matrix(mat), _hamiltonian(3, 0.6, 0.03, 0.9))


def test_curve_zero_anisotropy_stays_flat(tmp_path):
    out = tmp_path / "flat.csv"
    code = main([
        "curve", "--g", "0.5", "--A", "0",
        "--grid", "0.85:0.95:11", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().splitlines()[1:]
    p0 = np.array([float(r.split(",")[3]) for r in rows])
    assert p0.min() > 0.9  # no vortex nucleation pathway without anisotropy


def test_catalog_command_roundtrips(tmp_path):
    out = tmp_path / "cat.json"
    code = main([
        "catalog", "--pairs", "0.5:0.02,0.5:0.028",
        "--grid", "0.86:0.93:141", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["curves"]) == 2


def test_estimate_default_run_and_determinism(tmp_path, catalog_file):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 404, "n_measurements": 60}))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        code = main([
            "estimate", "--config", str(cfg), "--catalog", catalog_file,
            "--out-dir", str(d),
        ])
        assert code == 0
    t1 = (d1 / "trajectory.csv").read_bytes()
    t2 = (d2 / "trajectory.csv").read_bytes()
    assert t1 == t2
    header = t1.decode().splitlines()[0]
    assert header == "mu,outcome,g,A,delta,sigma"
    assert len(t1.decode().strip().splitlines()) == 61
    assert (d1 / "run.manifest.json").exists()


def test_estimate_fig3_snapshots(tmp_path, catalog_file):
    out = tmp_path / "fig3"
    code = main([
        "estimate", "--catalog", catalog_file, "--preset", "fig3",
        "--out-dir", str(out),
    ])
    assert code == 0
    for mu in (1, 10, 100):
        snap = out / f"posterior_mu{mu}.csv"
        assert snap.exists()
        lines = snap.read_text().strip().splitlines()
        assert lines[0] == "omega,mass"
        mass = np.array([float(r.split(",")[1]) for r in lines[1:]])
        assert mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_estimate_fig3_runs_each_trajectory_once(tmp_path, catalog_file, monkeypatch):
    """The mu = 100 snapshot is the 100-measurement trajectory itself."""
    runs = []
    real = cli.run_protocol

    def counting(config, catalog, rng=None):
        runs.append(config.n_measurements)
        return real(config, catalog, rng=rng)

    monkeypatch.setattr(cli, "run_protocol", counting)
    out = tmp_path / "fig3"
    assert main(["estimate", "--catalog", catalog_file, "--preset", "fig3",
                 "--out-dir", str(out)]) == 0
    assert runs == [100, 1, 10]
    final = (out / "trajectory.csv").read_text().strip().splitlines()[-1]
    omega, mass = np.loadtxt(out / "posterior_mu100.csv", delimiter=",", skiprows=1).T
    sigma = np.sqrt(mass @ (omega - mass @ omega) ** 2)
    assert sigma == pytest.approx(float(final.split(",")[-1]), rel=1e-9)


def test_estimate_fig4_preset(tmp_path, catalog_file):
    out = tmp_path / "fig4"
    code = main([
        "estimate", "--catalog", catalog_file, "--preset", "fig4",
        "--trajectories", "20", "--out-dir", str(out),
    ])
    assert code == 0
    lines = (out / "sigma_vs_mu.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,sigma_untuned,sigma_one_tuning,sigma_two_tunings"
    assert len(lines) == 101
    final = [float(v) for v in lines[-1].split(",")[1:]]
    assert final[2] < final[0]  # two tunings beat untuned
    assert (out / "sigma_vs_mu.svg").exists()


def test_estimate_array_preset_runs(tmp_path, catalog_file):
    out = tmp_path / "array"
    code = main([
        "estimate", "--catalog", catalog_file, "--preset", "array",
        "--trajectories", "20", "--out-dir", str(out),
    ])
    assert code in (0, 4)  # 4 flags a reference mismatch, still a valid run
    lines = (out / "sigma_vs_mu.csv").read_text().strip().splitlines()
    assert len(lines) == 401


def test_estimate_requires_catalog(tmp_path, capsys):
    """`--catalog` is the one route to a catalog: without it the run exits 2
    with one error line and writes nothing."""
    code = main(["estimate", "--out-dir", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x").exists()


def test_offset_command(tmp_path, catalog_file):
    out = tmp_path / "offset.csv"
    code = main([
        "offset", "--catalog", catalog_file, "--g", "0.5", "--A", "0.04",
        "--offsets=-0.1:0:6", "--gap-points", "61",
        "--out", str(out), "--svg", str(tmp_path / "offset.svg"),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "offset,hwhm,time_trap_units,time_seconds"
    assert len(lines) == 7
    last = lines[-1].split(",")
    first = lines[1].split(",")
    # ramping all the way to the resonance center costs far more time
    assert float(last[2]) > 10 * max(float(first[2]), 1e-300)
    # seconds column uses the default 200 Hz trap
    assert float(last[3]) == pytest.approx(
        float(last[2]) / (2 * np.pi * 200.0), rel=1e-12
    )


def _details(primary_output):
    return json.loads(Path(f"{primary_output}.manifest.json").read_text())["details"]


def test_curve_manifest_records_what_replays_the_run(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--n", "3", "--l-max", "6", "--g", "0.6", "--A", "0.03",
                 "--grid", "0.85:0.95:3", "--out", str(out)]) == 0
    details = _details(out)
    health = details.pop("sweeps")
    assert details == {"pairs": [[0.6, 0.03]], "n": 3, "n_ll": 2, "l_max": 6,
                       "grid": [0.85, 0.95, 3]}
    # per pair, no pre-scan on an explicit grid, then the curve's sweep
    # with its dense solves and its certified sine
    assert len(health) == 1 and set(health[0]) == {
        "prescan_dense_solves", "prescan_dense_from", "prescan_sine_bound", "dense_solves",
        "sine_bound"}
    assert health[0]["prescan_dense_solves"] is None and health[0]["prescan_dense_from"] is None
    assert health[0]["prescan_sine_bound"] is None
    assert 1 <= health[0]["dense_solves"] <= 3
    assert 0.0 <= health[0]["sine_bound"] <= spectrum.SINE_TOL


def test_curve_manifest_records_the_prescan_hand_over(tmp_path):
    """On an auto grid the manifest records the pre-scan's dense solves and
    the point from which the dense sweep took it over, the point where the
    dense pre-scan leaves the ground state, beside the curve sweep's own."""
    out = tmp_path / "curve.csv"
    assert main(["curve", "--g", "0.6", "--A", "0.025", "--out", str(out)]) == 0
    (health,) = _details(out)["sweeps"]
    basis = enumerate_basis(6, 2, 8)
    system = System(basis, ElementCache.build(basis.modes))
    dense = spectrum.sweep_lowest(system.sector_h0(0.6, 0.025), system.sector_l,
                                  np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS))
    assert health["prescan_dense_from"] == int(np.argmax(dense.followed_rank > 0)) - 1
    assert 0 < health["prescan_dense_solves"] < PRESCAN_POINTS
    assert 0.0 < health["prescan_sine_bound"] < 1.0  # what its stop decisions let pass
    assert 0 <= health["dense_solves"] <= 30
    assert 0.0 < health["sine_bound"] <= spectrum.SINE_TOL


def test_curve_runs_one_prescan_per_pair(tmp_path, monkeypatch):
    """Each auto-grid pair runs one stopped sweep, the pre-scan whose
    health the manifest records, then its curve's whole grid; a pair
    without a transition takes the PRESCAN_RANGE window from that same
    pre-scan. A = 0 runs all 61 points densely; (0.5, 0.04), on a fresh
    model, takes 15 dense solves, its 4 bracket re-reads included."""
    calls = []
    real = spectrum.ReducedModel.sweep

    def spying(self, omegas, stop=None):
        calls.append((self, stop is not None))
        return real(self, omegas, stop)

    monkeypatch.setattr(spectrum.ReducedModel, "sweep", spying)
    out = tmp_path / "curve.csv"
    assert main(["curve", "--g", "0.5", "--A", "0.0", "--g", "0.5", "--A", "0.04",
                 "--out", str(out)]) == 0
    zero, aniso = calls[0][0], calls[-1][0]
    assert zero is not aniso
    assert calls == [(zero, True), (zero, False), (aniso, True), (aniso, False)]
    health = _details(out)["sweeps"]
    assert [h["prescan_dense_solves"] for h in health] == [PRESCAN_POINTS, 15]


def test_catalog_manifest_records_what_replays_the_run(tmp_path):
    out = tmp_path / "cat.json"
    assert main(["catalog", "--pairs", "0.5:0.04", "--out", str(out)]) == 0
    details = _details(out)
    assert details == {"pairs": [[0.5, 0.04]], "n": 6, "n_ll": 2, "l_max": 8, "grid": None}
    solver = json.loads(out.read_text())["provenance"]["solver"]
    assert [solver[key] for key in ("n_particles", "n_ll", "l_max")] == \
        [details[key] for key in ("n", "n_ll", "l_max")]


def test_offset_manifest_records_what_replays_the_run(tmp_path, catalog_file):
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", catalog_file, "--offsets=-0.1:0:6",
                 "--prior-lo", "0.88", "--prior-hi", "0.92", "--gap-points", "61",
                 "--out", str(out)]) == 0
    assert _details(out) == {
        "g": 0.5, "A": 0.04, "eps": 0.1, "omega_perp_hz": 200.0,
        "catalog": catalog_file, "n": 6, "n_ll": 2, "l_max": 8,
        "offsets": [-0.1, 0.0, 6], "prior_lo": 0.88, "prior_hi": 0.92, "gap_points": 61,
    }


def test_curve_needs_one_A_per_g(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--g", "0.5", "--g", "0.6", "--A", "0.04", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: need one --A per --g\n" and captured.out == ""
    assert not out.exists()


def test_offset_requires_known_pair(tmp_path, catalog_file):
    code = main([
        "offset", "--catalog", catalog_file, "--g", "0.9", "--A", "0.5",
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 2


def test_selftest_passes():
    assert main(["selftest"]) == 0


def test_selftest_fails_on_a_wrong_exact_element(monkeypatch):
    real = cli.integral_i2
    monkeypatch.setattr(cli, "integral_i2", lambda *modes: real(*modes) * (1 + 1e-15))
    assert main(["selftest"]) == 4


def test_selftest_fails_when_the_sector_matrix_drifts(monkeypatch):
    real = System.sector_h0
    monkeypatch.setattr(System, "sector_h0",
                        lambda self, g, a: real(self, g, a) * (1 + 1e-15))
    assert main(["selftest"]) == 4


def test_selftest_fails_when_the_solver_drifts_from_scipy_eigh(monkeypatch):
    real = spectrum._eigh
    monkeypatch.setattr(spectrum, "_eigh", lambda *args, **kwargs: tuple(
        x * (1 + 1e-15) for x in real(*args, **kwargs)))
    assert main(["selftest"]) == 4


def test_import_leaves_sparse_linalg_unloaded():
    """Nor the process-pool modules: run_ensemble imports them when it forks."""
    code = (
        "import importlib, pkgutil, sys\n"
        "import critgyro\n"
        "for mod in pkgutil.iter_modules(critgyro.__path__):\n"
        "    importlib.import_module('critgyro.' + mod.name)\n"
        "assert 'critgyro.cli' in sys.modules\n"
        "print([name in sys.modules for name in ('scipy.sparse.linalg', "
        "'multiprocessing', 'concurrent.futures.process')])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(critgyro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[False, False, False]"


def test_stale_catalog_reports_numerical_failure(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main([
        "estimate", "--catalog", str(bad), "--out-dir", str(tmp_path / "y"),
    ])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["curve", "--n", "2", "--g", "nan", "--A", "0.04", "--grid", "0.8:0.9:3"],
    ["curve", "--n", "2", "--g", "0.5", "--A", "-0.04", "--grid", "0.8:0.9:3"],
    ["catalog", "--n", "2", "--pairs=0.5:-0.04", "--grid", "0.8:0.9:3"],
])
def test_unphysical_parameters_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_bad_seed_env_exits_2(tmp_path, catalog_file, monkeypatch, capsys):
    monkeypatch.setenv("CRITGYRO_SEED", "abc")
    assert main(["estimate", "--catalog", catalog_file,
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"grid_size": 1}))
    assert main(["estimate", "--config", str(cfg), "--catalog", "c.json",
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["curve", "--g", "0.5", "--A", "0.04", "--grid", "0.8:0.9"],
    ["curve", "--g", "0.5", "--A", "0.04", "--grid", "0.8:x:5"],
    ["curve", "--g", "0.5", "--A", "0.04", "--grid", "0.8:0.9:1"],
    ["catalog", "--pairs", "0.5:0.04,0.5"],
    ["catalog", "--pairs", "0.5:zero"],
    ["catalog", "--grid", "0.8:0.9:1"],
    ["offset", "--catalog", "c.json", "--offsets=-0.1:0"],
    ["offset", "--catalog", "c.json", "--offsets=-0.1:0:n"],
    ["offset", "--catalog", "c.json", "--offsets=-0.1:0:1"],
    ["estimate", "--preset", "array", "--trajectories", "-1"],
    ["estimate", "--preset", "fig4", "--trajectories", "0"],
    ["estimate", "--preset", "fig4", "--trajectories", "2.5"],
    ["offset", "--catalog", "c.json", "--l-max", "9"],  # the catalog fixes the system
    ["estimate", "--preset", "fig3", "--trajectories", "7"],
    ["curve", "--g", "0.5", "--A", "0.04", "--dump-basis", "b.csv"],  # `basis --out` writes it
])
def test_malformed_specs_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_malformed_catalog_reports_numerical_failure(tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    code = main([
        "estimate", "--catalog", str(bad), "--out-dir", str(tmp_path / "y"),
    ])
    assert code == 3


def test_manifest_records_the_seed_used(tmp_path, catalog_file, monkeypatch):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 404, "n_measurements": 20}))
    monkeypatch.setenv("CRITGYRO_SEED", "77")
    out = tmp_path / "run"
    assert main(["estimate", "--config", str(cfg), "--catalog", catalog_file,
                 "--out-dir", str(out)]) == 0
    details = json.loads((out / "run.manifest.json").read_text())["details"]
    assert details["seed"] == 77
    assert details["seed_source"] == "CRITGYRO_SEED"


def test_seed_variable_gives_the_bits_of_a_config_with_that_seed(tmp_path, catalog_file,
                                                                 monkeypatch):
    """CRITGYRO_SEED=77 over a config with seed 5 writes the trajectory and
    the ensemble median of the same config with seed 77, byte for byte."""
    runs = {}
    for name, seed, env in (("env", 5, "77"), ("config", 77, None)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"seed": seed, "n_measurements": 60, "schedule": [12]}))
        if env is None:
            monkeypatch.delenv("CRITGYRO_SEED")
        else:
            monkeypatch.setenv("CRITGYRO_SEED", env)
        out = tmp_path / name
        assert main(["estimate", "--config", str(cfg), "--catalog", catalog_file,
                     "--trajectories", "3", "--out-dir", str(out)]) == 0
        runs[name] = out
    for output in ("trajectory.csv", "sigma_vs_mu.csv"):
        assert (runs["env"] / output).read_bytes() == (runs["config"] / output).read_bytes()
    details = json.loads((runs["env"] / "run.manifest.json").read_text())["details"]
    assert (details["config"]["seed"], details["seed"]) == (5, 77)
    assert details["ensembles"]["config"]["n_trajectories"] == 3


def test_manifest_records_ensemble_health(tmp_path, catalog_file):
    out = tmp_path / "fig4"
    assert main(["estimate", "--catalog", catalog_file, "--preset", "fig4",
                 "--trajectories", "4", "--out-dir", str(out)]) == 0
    details = json.loads((out / "run.manifest.json").read_text())["details"]
    ensembles = details["ensembles"]
    assert sorted(ensembles) == ["one_tuning", "two_tunings", "untuned"]
    for health in ensembles.values():
        assert health["n_trajectories"] == 4
        assert 0.0 < health["max_dropped_mass"] <= 2001 * 1e-30
        assert health["n_aborted"] == 0
        assert health["abort_indices"] == []
        chunk = math.ceil(4 / min(len(os.sched_getaffinity(0)), 4))
        assert health["workers"] == math.ceil(4 / chunk)


def test_selftest_fails_when_ensemble_workers_drift(monkeypatch):
    parent = os.getpid()
    real = estimate.run_protocol

    def drifting(config, catalog, rng=None):
        res = real(config, catalog, rng=rng)
        if os.getpid() != parent:
            res = dataclasses.replace(res, sigma_trace=res.sigma_trace * (1 + 1e-15))
        return res

    monkeypatch.setattr(estimate, "run_protocol", drifting)
    assert main(["selftest"]) == 4


def test_selftest_fails_when_the_ensemble_pool_falls_back_to_serial(capsys):
    """A live thread keeps `run_ensemble` from forking: the "2 workers" run
    is then serial and equals the serial one, which must not pass."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(["selftest"]) == 4
    finally:
        release.set()
        thread.join()
    assert "[FAIL] ensemble on 2 workers equals 1 worker" in capsys.readouterr().out


def test_selftest_fails_when_the_reduced_sweep_drifts(monkeypatch, capsys):
    real = spectrum.ReducedModel._ritz

    def drifting(self, omega, both):
        theta, x, sine = real(self, omega, both)
        return theta * (1 + 1e-11), x, sine

    monkeypatch.setattr(spectrum.ReducedModel, "_ritz", drifting)
    assert main(["selftest"]) == 4
    assert "[FAIL] reduced sweep" in capsys.readouterr().out


def test_selftest_fails_when_a_bracket_p0_drifts(monkeypatch, capsys):
    """The pre-scan's dense solves at its bracket points are the only
    `sweep_lowest` calls `curves` makes: a state off by 1e-9 there moves the
    located grid off the dense pre-scan's."""
    real = curves.sweep_lowest

    def drifting(*args, **kwargs):
        result = real(*args, **kwargs)
        followed = result.followed.copy()
        followed[:, 0] += 1e-9
        followed /= np.linalg.norm(followed, axis=1, keepdims=True)
        return dataclasses.replace(result, followed=followed)

    monkeypatch.setattr(curves, "sweep_lowest", drifting)
    assert main(["selftest"]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] located grid" in out and "[ok] reduced sweep" in out


def test_curve_of_a_one_state_sector_exits_2(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--n", "0", "--g", "0.5", "--A", "0.04",
                 "--grid", "0.8:0.9:3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_curve_with_a_degenerate_point_exits_2(tmp_path, capsys):
    """At Omega = 1 the non-interacting lowest Landau level is exactly
    degenerate: the sweep fails closed, and no CSV or manifest is written."""
    out = tmp_path / "curve.csv"
    assert main(["curve", "--n", "2", "--g", "0", "--A", "0", "--grid", "0.9:1.0:3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "Omega = 1.0:" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--omega-perp-hz", "0"],
    ["--omega-perp-hz", "-5"],
    ["--omega-perp-hz", "nan"],
    ["--omega-perp-hz", "inf"],
    ["--prior-lo", "0.93", "--prior-hi", "0.87"],
    ["--prior-lo", "0.9", "--prior-hi", "0.9"],
    ["--prior-lo", "nan"],
    ["--gap-points", "1"],
    ["--gap-points", "0"],
    ["--eps", "nan"],
    ["--eps", "inf"],
    ["--eps", "0"],
    ["--eps", "-1"],
])
def test_offset_refuses_bad_values(argv, tmp_path, catalog_file, capsys, monkeypatch):
    sweeps = []
    monkeypatch.setattr(spectrum.ReducedModel, "sweep",
                        lambda *args, **kwargs: sweeps.append(1))
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", catalog_file, "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()
    assert sweeps == []



@pytest.mark.parametrize("argv,dropped", [
    (["--offsets=-0.5:0:3"], ()),
    (["--offsets=0:0.1:3"], ()),
    ([], ("solver", "n_particles")),
    ([], ("solver", "n_ll")),
    ([], ("solver",)),
    ([], ("solver", "l_max")),
])
def test_offset_refuses_an_offset_off_the_ramp_or_another_systems_catalog(
        argv, dropped, tmp_path, catalog_file, capsys, monkeypatch):
    if dropped:  # the same catalog with a provenance entry deleted
        payload = json.loads(Path(catalog_file).read_text())
        entry = payload["provenance"]
        for key in dropped[:-1]:
            entry = entry[key]
        del entry[dropped[-1]]
        catalog_file = tmp_path / "catalog.json"
        catalog_file.write_text(json.dumps(payload))
    sweeps = []
    monkeypatch.setattr(spectrum.ReducedModel, "sweep",
                        lambda *args, **kwargs: sweeps.append(1))
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", str(catalog_file), "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()
    assert sweeps == []


@pytest.mark.parametrize("key,value", [("n_particles", True), ("n_ll", "2"), ("l_max", 8.0)])
def test_offset_refuses_a_system_that_is_not_integers(key, value, tmp_path, catalog_file,
                                                      capsys, monkeypatch):
    payload = json.loads(Path(catalog_file).read_text())
    payload["provenance"]["solver"][key] = value
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    built = []
    monkeypatch.setattr(cli, "enumerate_basis", lambda *args: built.append(args))
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "provenance.solver" in err
    assert not out.exists() and built == []


def test_offset_sweeps_the_system_its_catalog_records(tmp_path):
    catalog = tmp_path / "cat.json"
    assert main(["catalog", "--n", "3", "--l-max", "5", "--pairs", "0.5:0.04",
                 "--out", str(catalog)]) == 0
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", str(catalog), "--offsets=-0.1:0:3",
                 "--gap-points", "21", "--out", str(out)]) == 0
    assert [_details(out)[key] for key in ("n", "n_ll", "l_max")] == [3, 2, 5]


def test_offset_on_a_one_state_system_exits_2(tmp_path, catalog_file, capsys):
    """A catalog whose provenance names N=1, n_LL=1, l_max=0: that system's
    condensate sector has one state, so the ramp has no gap."""
    payload = json.loads(Path(catalog_file).read_text())
    payload["provenance"]["solver"].update(n_particles=1, n_ll=1, l_max=0)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "one-state sector" in err
    assert not out.exists()
    assert not (tmp_path / "offset.csv.manifest.json").exists()


@pytest.mark.parametrize("config,seed_env", [
    ('{"grid_size": "abc"}', None),
    ('{"n_measurements": 2.5}', None),
    ('{"n_measurements": true}', None),
    ('{"schedule": 12}', None),
    ('{"schedule": [5.0]}', None),
    ('{"omega_true": "nan"}', None),
    ('{"omega_true": NaN}', None),
    ('{"prior_lo": "-inf"}', None),
    ('{"omega_true": 2.0}', None),
    ('{"prior_lo": 0.0, "prior_hi": 0.1}', None),
    ('{"kappa": "nan", "schedule": [5]}', None),
    ('{"kappa": -1, "schedule": [5]}', None),
    ('{"kappa": 0}', None),
    ('{"catalog_path": 5}', None),
    ('{"seed": -1}', None),
    ('{}', "-1"),
    ('{"initial_g": 0.7}', None),
    ('[1, 2]', None),
    ('{"seed": 1', None),
    (None, None),  # no config file at the given path
])
def test_estimate_refuses_a_bad_config(config, seed_env, tmp_path, catalog_file,
                                       capsys, monkeypatch):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config)
    if seed_env is not None:
        monkeypatch.setenv("CRITGYRO_SEED", seed_env)
    out = tmp_path / "run"
    assert main(["estimate", "--config", str(path), "--catalog", catalog_file,
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    assert not (out / "trajectory.csv").exists()
    assert not (out / "run.manifest.json").exists()


def test_only_the_cli_reads_the_environment():
    """Of the package's modules only `cli` reads os.environ or calls os.getenv
    (by attribute or by import): every other input comes as an argument.
    CPU affinity and count queries are not environment reads."""
    names = {"environ", "environb", "getenv", "getenvb"}
    package = Path(critgyro.__file__).parent
    readers = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    or isinstance(node, ast.alias) and node.name in names):
                readers.add(path.relative_to(package).as_posix())
    assert readers == {"cli.py"}
