import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import critgyro
import critgyro.cli as cli
import critgyro.spectrum as spectrum
from critgyro.cli import main
from critgyro.curves import catalog_save


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


def test_curve_command_with_explicit_grid(tmp_path):
    out = tmp_path / "curve.csv"
    svg = tmp_path / "curve.svg"
    mat = tmp_path / "matrix.txt"
    code = main([
        "curve", "--g", "0.5", "--A", "0.02",
        "--grid", "0.885:0.915:13",
        "--out", str(out), "--svg", str(svg),
        "--dump-basis", str(tmp_path / "b.csv"),
        "--dump-elements", str(tmp_path / "e.csv"),
        "--dump-matrix", str(mat),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "g,A,omega,p0,gap,lam1,lam2,exp_L"
    assert len(lines) == 13 + 1
    assert svg.read_text().startswith("<svg")
    assert mat.exists() and (tmp_path / "b.csv").exists()
    assert (tmp_path / "e.csv").exists()


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


def test_estimate_requires_catalog(tmp_path):
    code = main(["estimate", "--out-dir", str(tmp_path / "x")])
    assert code == 2


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


def test_selftest_fails_when_the_solver_drifts_from_scipy_eigh(monkeypatch):
    real = spectrum._eigh
    monkeypatch.setattr(spectrum, "_eigh", lambda *args, **kwargs: tuple(
        x * (1 + 1e-15) for x in real(*args, **kwargs)))
    assert main(["selftest"]) == 4


def test_import_leaves_sparse_linalg_unloaded():
    code = (
        "import importlib, pkgutil, sys\n"
        "import critgyro\n"
        "for mod in pkgutil.iter_modules(critgyro.__path__):\n"
        "    importlib.import_module('critgyro.' + mod.name)\n"
        "assert 'critgyro.cli' in sys.modules\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(critgyro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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


def test_manifest_records_ensemble_health(tmp_path, catalog_file):
    out = tmp_path / "fig4"
    assert main(["estimate", "--catalog", catalog_file, "--preset", "fig4",
                 "--trajectories", "4", "--out-dir", str(out)]) == 0
    details = json.loads((out / "run.manifest.json").read_text())["details"]
    ensembles = details["ensembles"]
    assert sorted(ensembles) == ["one_tuning", "two_tunings", "untuned"]
    for health in ensembles.values():
        assert 0.0 < health["max_dropped_mass"] <= 2001 * 1e-30
        assert health["n_aborted"] == 0
        assert health["abort_indices"] == []


def test_selftest_fails_when_solver_threads_drift(monkeypatch):
    real = spectrum._eigh

    def drifting(*args, **kwargs):
        energies, vectors = real(*args, **kwargs)
        if threading.current_thread() is not threading.main_thread():
            energies = energies * (1 + 1e-15)
        return energies, vectors

    monkeypatch.setattr(spectrum, "_eigh", drifting)
    assert main(["selftest"]) == 4


def test_curve_of_a_one_state_sector_exits_2(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--n", "0", "--g", "0.5", "--A", "0.04",
                 "--grid", "0.8:0.9:3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


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
    monkeypatch.setattr(spectrum, "sweep_lowest", lambda *args, **kwargs: sweeps.append(1))
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", catalog_file, "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()
    assert sweeps == []



@pytest.mark.parametrize("argv,dropped", [
    (["--offsets=-0.5:0:3"], ()),
    (["--offsets=0:0.1:3"], ()),
    (["--n", "2"], ()),
    (["--l-max", "9"], ()),
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
    monkeypatch.setattr(spectrum, "sweep_lowest", lambda *args, **kwargs: sweeps.append(1))
    out = tmp_path / "offset.csv"
    assert main(["offset", "--catalog", str(catalog_file), "--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()
    assert sweeps == []


@pytest.mark.parametrize("config,seed_env", [
    ('{"grid_size": "abc"}', None),
    ('{"n_measurements": 2.5}', None),
    ('{"n_measurements": true}', None),
    ('{"schedule": 12}', None),
    ('{"schedule": [5.0]}', None),
    ('{"omega_true": "nan"}', None),
    ('{"omega_true": NaN}', None),
    ('{"prior_lo": "-inf"}', None),
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
