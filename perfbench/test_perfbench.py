"""Tests of the benchmark itself: smoke sizes of each workload, the span
self-time arithmetic, the output checks, and metric names against
BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
from critgyro.curves import ResonanceCurve

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    monkeypatch.delenv("CRITGYRO_SEED", raising=False)


def _clock(*ticks):
    return iter(ticks).__next__


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer(clock=_clock(0, 1, 2, 2.5, 3, 4, 5, 7, 8, 10))

    def leaf():
        return None

    def inner():
        return tracer.call("leaf", leaf, (), {})

    def outer():
        tracer.call("inner", inner, (), {})
        tracer.call("inner", inner, (), {})

    tracer.call("outer", outer, (), {})
    assert spans.self_times(tracer.spans) == {"outer": 4.0, "inner": 3.5, "leaf": 2.5}
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0, 3]
    assert spans.unspanned(12.0, tracer.spans) == 2.0


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer(clock=_clock(0, 1, 2, 3))

    def boom():
        raise ValueError("x")

    def outer():
        with pytest.raises(ValueError):
            tracer.call("boom", boom, (), {})

    tracer.call("outer", outer, (), {})
    assert spans.self_times(tracer.spans) == {"outer": 2.0, "boom": 1.0}


def test_patched_restores_functions_and_classmethods():
    class Owner:
        @classmethod
        def build(cls, x):
            return (cls, x)

    module = type(sys)("fake")
    module.f = lambda x: x + 1
    original_f, original_build = module.f, vars(Owner)["build"]
    tracer = spans.Tracer()
    with spans.patched(tracer, [spans.Target(module, "f", "f"),
                                spans.Target(Owner, "build", "build",
                                             lambda a, k, r: {"x": r[1]})]):
        assert module.f(1) == 2
        assert Owner.build(5) == (Owner, 5)
    assert module.f is original_f and vars(Owner)["build"] is original_build
    assert [(s.name, s.info) for s in tracer.spans] == [("f", None), ("build", {"x": 5})]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_emits_the_declared_metrics(name):
    res = workloads.measure(name, seed=1, seconds=0, trace=True, size=workloads.SMOKE)
    assert res.failed == 0, [p for r in res.rounds for p in r.problems]
    assert [r.traced for r in res.rounds] == [False, True]

    per_layer = res.metrics()
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in per_layer.items()} == declared
    end_to_end = dataclasses.replace(res, trace=False).metrics()
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in end_to_end.items()} == declared
    assert all(v["value"] > 0 for v in end_to_end.values())
    scale = workloads.CALIBRATION_REF_S / min(res.calibration_s)
    assert end_to_end["wall_s"]["value"] == workloads.fastest_round_s(res.rounds) * scale

    traced = res.rounds[1]
    covered = sum(spans.self_times(traced.spans).values())
    assert covered + per_layer["trace.unspanned_s"]["value"] == pytest.approx(traced.wall_s)
    assert json.loads(json.dumps(res.summary()))["correct"] is True


def test_declared_directions_match_the_code():
    for entry in BENCHMARK["end_to_end"]:
        assert workloads.END_TO_END[entry["name"]] == (entry["unit"], entry["better"])
    for entry in BENCHMARK["per_layer"]:
        assert workloads.PER_LAYER[entry["name"]][:2] == (entry["unit"], entry["better"])
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


def test_curve_pairs_come_from_the_seed():
    a = workloads.Curves(7, workloads.PRODUCTION).pairs
    assert a == workloads.Curves(7, workloads.PRODUCTION).pairs
    assert a[:2] == list(workloads.FIXED_PAIRS) and len(a) == 3
    drawn = {tuple(workloads.Curves(s, workloads.PRODUCTION).pairs[2]) for s in range(20)}
    assert len(drawn) > 1


def test_checks_flag_wrong_outputs():
    wl = workloads.Curves(0, workloads.PRODUCTION)
    for key in wl.pairs:
        assert wl.check_curve(wl.expected[key]) == []
    want = wl.expected[(0.5, 0.04)]
    shifted = ResonanceCurve.from_values(0.5, 0.04, want.omega, np.clip(want.p0 - 1e-4, 0, 1))
    assert len(wl.check_curve(shifted)) == 1

    sigma = np.full((3, 5), 1e-3)
    assert workloads.check_sigma(sigma, 5) == 0
    sigma[1, 2] = np.nan
    sigma[2, 4] = 0.0
    assert workloads.check_sigma(sigma, 5) == 2
    assert workloads.check_sigma(sigma, 4) == 3


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
