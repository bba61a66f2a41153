"""Fast tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_on_a_synthetic_span_tree():
    # A(0..10) holds B(1..4) and C(5..9); C holds D(6..8); D recurses into a
    # second D(6.5..7).  Field seconds sit directly under A, B and D.
    spans = [
        (2, 1, "m.b", 1.0, 4.0, 0.5),
        (5, 4, "n.d", 6.5, 7.0, 0.0),
        (4, 3, "n.d", 6.0, 8.0, 1.0),
        (3, 1, "n.c", 5.0, 9.0, 0.0),
        (1, 0, "m.a", 0.0, 10.0, 1.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 2.0, 2: 2.5, 3: 2.0, 4: 0.5, 5: 0.5})
    inclusive = tracing.inclusive_times(spans)
    assert inclusive == pytest.approx(
        {"m.a": 10.0, "m.b": 3.0, "n.c": 4.0, "n.d": 2.0})


def test_wrapped_calls_add_up_to_the_traced_wall():
    clock = FakeClock()

    def tick(dt):
        clock.now += dt

    def field_op(x):  # nested field ops are counted but timed once
        tick(0.25)
        if x:
            ns.field_op(x - 1)

    def leaf():
        tick(1.0)
        ns.field_op(0)

    def outer():
        tick(2.0)
        ns.leaf()
        ns.field_op(1)

    ns = types.SimpleNamespace(outer=outer, leaf=leaf, field_op=field_op)
    tracer = tracing.Tracer(clock=clock)
    tracer.install([(ns, "outer", "geproci.outer", "span"),
                    (ns, "leaf", "linalg.leaf", "span"),
                    (ns, "field_op", "field.mul", "field")])

    def harness():
        tick(0.5)
        ns.outer()
        ns.field_op(1)

    tracer.window(harness)
    tracer.remove()
    summary = tracing.layer_summary(tracer)
    assert summary["trace.wall_s"] == pytest.approx(4.75)
    assert summary["field.ops_s"] == pytest.approx(1.25)
    assert summary["linalg.self_s"] == pytest.approx(1.0)
    assert summary["geproci.self_s"] == pytest.approx(2.0)
    assert summary["harness.self_s"] == pytest.approx(0.5)
    assert summary["field.mul.calls"] == 5
    assert summary["geproci.outer.calls"] == 1
    parts = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert parts + summary["field.ops_s"] == pytest.approx(
        summary["trace.wall_s"])


def test_wrappers_leave_the_package_unchanged_once_removed():
    import h4geproci
    from h4geproci import field, linalg
    targets = tracing.discover_targets(h4geproci)
    owners = {id(owner): owner for owner, _, _, _ in targets}
    before = {k: dict(vars(o)) for k, o in owners.items()}
    names = {name for _, _, name, _ in targets}
    # Names imported into other modules are wrapped where they are bound.
    bound = {(o.__name__ if hasattr(o, "__name__") else "", attr)
             for o, attr, _, _ in targets}
    assert ("h4geproci.coverings", "verify_grid") in bound
    assert ("h4geproci.geproci", "vanishing_space") in bound
    assert ("h4geproci.config", "canonicalize") in bound
    assert {"field.mul", "linalg.determinant", "forms.vanishing_space",
            "config.special_points_for_grid"} <= names

    m = [[field.FieldElement(i + j * j) for j in range(3)] for i in range(3)]
    plain = linalg.determinant(m)
    tracer = tracing.Tracer()
    tracer.install(targets)
    try:
        assert linalg.determinant is not before[id(linalg)]["determinant"]
        traced = tracer.window(linalg.determinant, m)
    finally:
        tracer.remove()
    assert traced == plain
    assert tracer.counts["linalg.determinant"] == 1
    assert tracer.counts["field.mul"] > 0
    for key, owner in owners.items():
        after = dict(vars(owner))
        assert after.keys() == before[key].keys()
        assert all(after[k] is before[key][k] for k in after)


def test_wrong_verdicts_are_counted_not_raised():
    import h4geproci
    cfg = h4geproci.build_h4()
    expected = json.loads(json.dumps(workloads.EXPECTED))
    expected["covering_count"] = 85
    ops = {op.name: op for op in workloads.incidence_ops(0)}
    good = workloads.run_op(ops["coverings"], cfg, workloads.EXPECTED)
    bad = workloads.run_op(ops["coverings"], cfg, expected)
    assert good.problem is None and bad.problem is not None
    crash = workloads.Op("crash", lambda cfg: 1 / 0, lambda a, e: None,
                         lambda a: a)
    crashed = workloads.run_op(crash, cfg, expected)
    assert "ZeroDivisionError" in crashed.problem

    def as_pass(*results):
        return {"ops": [{"name": r.name, "problem": r.problem,
                         "digest": r.digest} for r in results]}

    attempted, failed, problems = run.count_failures(
        [as_pass(good, bad, crashed)], {})
    assert (attempted, failed, len(problems)) == (3, 2, 2)


def test_digest_drift_between_passes_or_runs_is_a_failure():
    def one(dig):
        return {"ops": [{"name": "op", "problem": None, "digest": dig}]}

    stored = {}
    assert run.count_failures([one("a"), one("a")], stored)[:2] == (2, 0)
    assert stored == {"op": "a"}
    assert run.count_failures([one("a"), one("b")], {})[:2] == (2, 1)
    assert run.count_failures([one("b")], stored)[:2] == (1, 1)


def test_reference_seconds_scale_program_time_by_slice_speed():
    sampler = worker.SpeedSampler()
    ref = sampler.REFERENCE_SLICE_S
    # Two slices at half the reference speed fall inside [0.5, 2.5].
    sampler.samples = [(1.0, 2 * ref), (2.0, 2 * ref), (5.0, 1.0)]
    program = 2.0 - 4 * ref
    assert sampler.reference_seconds(0.5, 2.5) == pytest.approx(program / 2)


def test_speed_sampler_ticks_and_restores_the_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    sampler = worker.SpeedSampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "incidence",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
