"""Benchmark of the h4geproci certificates, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (the paper's exact certificates; see BENCHMARK.json for why):

* ``geproci``   -- ``verify_geproci`` at vertex seed 1, the command line's
  default (see ``workloads.GEPROCI_VERTEX_SEED``); N sets the hash seeds.
* ``halves``    -- ``verify_half_grid`` for z1 and z2, then
  ``verify_not_half_grid``, all at one vertex seed derived from N.
* ``incidence`` -- the plane and line tables against ``tables``,
  ``enumerate_coverings`` and ``enumerate_grids``; N sets the hash seeds.

A pass runs the workload once in a fresh interpreter (``worker.py``), so the
package's module-level caches start cold, as they do for each command-line
call.  With ``--trace 0`` the run repeats passes until S seconds have gone
(at least one pass), tops the set-up samples up to SETUP_SAMPLES with fresh
interpreters that only import and build, and reports medians:

* ``setup_s``      import of the package plus ``build_h4()``
* ``wall_s``       the workload's calls after set-up, per pass
* ``peak_rss_mb``  peak resident set of a pass
* ``success_rate`` ops whose verdict and artifact were right / ops attempted;
  ``error_rate`` = 1 - ``success_rate`` is printed beside it

``setup_s`` and ``wall_s`` are reference seconds: wall seconds scaled by the
speed of the core measured while they ran (``worker.SpeedSampler``).  On a
shared machine the wall time of the same pass varies by up to 1.8x with the
load of other tenants; the reference seconds vary by a few percent.  The
wall seconds are printed beside them.

An op fails when it raises, when its verdict is wrong, or when its artifact
digest differs from another pass of the run or from an earlier run of the
same code and seed (kept in ``perfbench/out/digests.json``).  Every pass of a
run uses the same seed and its own hash seed.

With ``--trace 1`` one traced pass gives the per-layer metrics (see
``tracing.py``); its spans go to ``perfbench/out/trace-<workload>-<N>.json``.

The last line of standard output is the JSON result.  The run exits 2 without
a result when the package source is missing, and 1 when a pass crashes or
overruns the time limit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_SRC = ROOT / "src" / "h4geproci"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 3
# A run must end within 180 s: workers are killed at DEADLINE_S, and no
# further pass starts that could end after BUDGET_S.
DEADLINE_S = 175.0
BUDGET_S = 150.0

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("field.mul.calls", "count"), ("field.add.calls", "count"),
    ("field.inverse.calls", "count"), ("field.ops_s", "s"),
    ("linalg.self_s", "s"), ("linalg.row_echelon.calls", "count"),
    ("linalg.nullspace.calls", "count"), ("linalg.rank.calls", "count"),
    ("linalg.inverse.calls", "count"), ("linalg.determinant.calls", "count"),
    ("linalg.determinant.s", "s"),
    ("projective.self_s", "s"), ("projective.canonicalize.calls", "count"),
    ("projective.point_on_line.calls", "count"),
    ("projective.lines_meet.calls", "count"),
    ("projective.intersection_point.calls", "count"),
    ("config.self_s", "s"), ("config.build_h4.s", "s"),
    ("config.special_points_for_grid.calls", "count"),
    ("config.special_points_for_grid.s", "s"),
    ("forms.self_s", "s"), ("forms.vanishing_space.calls", "count"),
    ("forms.vanishing_space.s", "s"), ("forms.vanishing_space.cells", "count"),
    ("forms.plane_curve_is_smooth.s", "s"), ("forms.smooth.attempt", "count"),
    ("forms.smooth.charts_clean", "count"), ("forms.divides.calls", "count"),
    ("forms.divides.s", "s"), ("forms.gcd_forms.calls", "count"),
    ("geproci.self_s", "s"), ("geproci.sample_generic_vertex.calls", "count"),
    ("geproci.sample_generic_vertex.s", "s"),
    ("geproci.configuration_quadrics.calls", "count"),
    ("geproci.verify_grid.calls", "count"), ("geproci.verify_grid.s", "s"),
    ("geproci.build_quintic_cone.s", "s"),
    ("coverings.self_s", "s"), ("coverings.enumerate_coverings.s", "s"),
    ("coverings.enumerate_grids.s", "s"), ("coverings.grid_yield", "ratio"),
    ("harness.self_s", "s"), ("trace.wall_s", "s"), ("trace.overhead_s", "s"),
]


class PassFailed(RuntimeError):
    """A worker crashed or overran; the run has no result."""


def machine() -> Dict[str, object]:
    """The facts that make a noisy run on a shared machine visible."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "loadavg": list(os.getloadavg())}


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE_SRC.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def run_worker(args: List[str], hash_seed: int, deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker {args} overran {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise PassFailed(f"worker {args} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def count_failures(passes: List[dict], stored: Dict[str, str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every op of every pass.

    An op fails on a problem, or when its digest differs from the first pass
    that produced one, or from ``stored`` (an earlier run, same code and
    seed).  ``stored`` gains the digests of ops not seen before.
    """
    attempted, failed, problems = 0, 0, []
    for k, result in enumerate(passes, start=1):
        for op in result["ops"]:
            attempted += 1
            name, dig = op["name"], op["digest"]
            if op["problem"] is not None:
                failed += 1
                problems.append(f"pass {k} {name}: {op['problem']}")
            elif name in stored and stored[name] != dig:
                failed += 1
                problems.append(f"pass {k} {name}: artifact digest {dig[:12]}"
                                f" differs from {stored[name][:12]}")
            else:
                stored.setdefault(name, dig)
    return attempted, failed, problems


def load_digests(key: str) -> Dict[str, str]:
    try:
        return dict(json.loads((OUT / "digests.json").read_text()).get(key, {}))
    except (OSError, ValueError):
        return {}


def save_digests(key: str, digests: Dict[str, str]) -> None:
    path = OUT / "digests.json"
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    table[key] = digests
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(table, indent=1, sort_keys=True))
    tmp.replace(path)


def hash_seeds(seed: int):
    rng = random.Random(f"hashseed/{seed}")
    while True:
        yield rng.randrange(1, 1 << 32)


def measure(workload: str, seed: int, seconds: int, started: float,
            deadline: float) -> Tuple[List[dict], List[dict]]:
    """Untraced passes for about ``seconds``, and set-up samples.

    The extra set-up samples run one at a time on the second core while the
    first pass runs its ops, after its own set-up: so a run costs about one
    pass, no two set-ups overlap, and there are never more workers than
    cores, so each worker's speed sampler sees the core it runs on.
    """
    hseeds = hash_seeds(seed)
    extra = [next(hseeds) for _ in range(SETUP_SAMPLES - 1)]
    passes: List[dict] = []
    OUT.mkdir(exist_ok=True)
    ready = OUT / f"ready-{os.getpid()}"
    with ThreadPoolExecutor(max_workers=2) as pool:
        args = ["--workload", workload, "--seed", str(seed),
                "--ready", str(ready)]
        first = pool.submit(run_worker, args, next(hseeds), deadline)
        while not ready.exists() and not first.done():
            time.sleep(0.05)
        ready.unlink(missing_ok=True)
        top_ups = pool.submit(
            lambda: [run_worker(["--setup-only"], h, deadline) for h in extra])
        passes.append(first.result())
        while time.monotonic() - started < seconds:
            t0 = time.monotonic()
            passes.append(run_worker(args, next(hseeds), deadline))
            now = time.monotonic()
            if now - started + 1.5 * (now - t0) > BUDGET_S:
                break
        setups = passes + top_ups.result()
    ready.unlink(missing_ok=True)
    return passes, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE_SRC / "__init__.py").is_file():
        print(f"error: package source {PACKAGE_SRC} not found",
              file=sys.stderr)
        return 2

    started = time.monotonic()
    deadline = started + DEADLINE_S
    before = machine()
    key = f"{code_fingerprint()}/{args.workload}/{args.seed}"
    stored = load_digests(key)
    try:
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            passes = [run_worker(["--workload", args.workload,
                                  "--seed", str(args.seed),
                                  "--trace", str(trace_file)],
                                 next(hash_seeds(args.seed)), deadline)]
            if not passes[0]["restored"]:
                raise PassFailed("tracer left a wrapper installed")
        else:
            passes, setup_runs = measure(args.workload, args.seed,
                                         args.seconds, started, deadline)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setups = [r["setup_s"] for r in setup_runs]
        raw_setups = [r["setup_raw_s"] for r in setup_runs]
    attempted, failed, problems = count_failures(passes, stored)
    save_digests(key, stored)

    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, "passes": len(passes),
            "machine": before, "loadavg_after": list(os.getloadavg()),
            "run_s": time.monotonic() - started}
    print("run: " + json.dumps(info))
    for k, p in enumerate(passes, start=1):
        ops = ", ".join(f"{o['name']}={o['seconds']:.3f}s"
                        f"{'' if o['problem'] is None else ' FAIL'}"
                        for o in p["ops"])
        print(f"pass {k}: {ops}")
    for line in problems:
        print(f"failed op: {line}", file=sys.stderr)

    if args.trace:
        layers = passes[0]["layers"]
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, unit in PER_LAYER}
        parts = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"self times + field.ops_s = {parts + layers['field.ops_s']:.4f}"
              f" s; traced wall = {layers['trace.wall_s']:.4f} s")
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
            "setup_raw_s": statistics.median(raw_setups),
            "wall_raw_s": statistics.median(p["wall_raw_s"] for p in passes),
            "success_rate": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        print("set-up samples: " + ", ".join(f"{x:.4f}" for x in setups))
        print(f"medians of {len(setups)} set-ups and {len(passes)} passes; "
              f"wall seconds: set-up {values['setup_raw_s']:.4f} s, "
              f"workload {values['wall_raw_s']:.4f} s")
        print(f"  error_rate = {failed / attempted:.4f} ratio "
              f"({failed} of {attempted} ops failed)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
