"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--trace FILE]
    python3 perfbench/worker.py --setup-only

Set-up is ``import h4geproci`` plus ``build_h4()``, timed from before the
import.  The package is imported from ``src/`` next to this directory, so a
fresh interpreter starts with every module-level cache of the package cold,
as each ``h4geproci`` command does.

Untraced times are reported twice: as wall seconds (``*_raw_s``) and as
reference seconds (``setup_s``, ``wall_s``), which take out the speed of the
machine at the time; see SpeedSampler.

With ``--trace FILE`` the configuration build and every op run with the
tracer's wrappers installed; the spans go to FILE and the per-layer summary
to standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


class SpeedSampler:
    """Measures the speed of this core while timed work runs on it.

    Every INTERVAL_S a SIGALRM handler times one calibration slice: a fixed
    piece of Fraction arithmetic, the kind of work the package does, run
    with the cyclic garbage collector paused so that the program's heap
    cannot slow it.  Other tenants of a shared machine slow the slices and
    the program alike, so

        reference seconds = program seconds x REFERENCE_SLICE_S
                            x mean(1 / slice seconds in the interval)

    is the time the work would take on a core where one slice takes
    REFERENCE_SLICE_S, about a quiet core of the 2.1 GHz Xeon the benchmark
    was defined on.  Program seconds are the wall seconds minus the slices.
    """

    INTERVAL_S = 0.1
    REFERENCE_SLICE_S = 0.00045

    def __init__(self):
        self.samples = []  # (end time, slice seconds)
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        self.samples.append(self._slice())

    @staticmethod
    def _slice():
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            total, third = Fraction(0), Fraction(1, 3)
            for i in range(1, 120):
                total += third * Fraction(i, i + 7)
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        return end, end - start

    def reference_seconds(self, start: float, end: float) -> float:
        inside = [d for t, d in self.samples if start <= t <= end]
        program = (end - start) - sum(inside)
        slices = inside or [self._slice()[1]]
        return (program * self.REFERENCE_SLICE_S
                * statistics.fmean(1.0 / d for d in slices))


def _import_package():
    if not (SRC / "h4geproci" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'h4geproci'}")
    sys.path.insert(0, str(SRC))
    import h4geproci
    if Path(h4geproci.__file__).resolve().parent != SRC / "h4geproci":
        raise SystemExit(f"error: imported h4geproci from {h4geproci.__file__}")
    return h4geproci


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_json(result) -> dict:
    return {"name": result.name, "seconds": result.seconds,
            "problem": result.problem, "digest": result.digest}


def _write_spans(path: Path, tracer, meta: dict) -> None:
    origin = tracer.windows[0][0] if tracer.windows else 0.0
    names = sorted({s[2] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    payload = dict(meta)
    payload["names"] = names
    payload["columns"] = ["id", "parent", "name", "start_s", "end_s",
                          "field_s"]
    payload["spans"] = [[sid, parent, index[name], round(start - origin, 7),
                         round(end - origin, 7), round(field, 7)]
                        for sid, parent, name, start, end, field
                        in tracer.spans]
    payload["windows"] = [[round(a - origin, 7), round(b - origin, 7),
                           round(f, 7)] for a, b, f in tracer.windows]
    payload["counts"] = dict(tracer.counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, separators=(",", ":")))
    tmp.replace(path)


def _traced_pass(h4geproci, workload: str, seed: int, trace: Path) -> None:
    import tracing as tr
    import workloads as wl
    ops = wl.OPS[workload](seed)
    tracer = tr.Tracer()
    targets = tr.discover_targets(h4geproci)
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _, _ in targets]
    tracer.install(targets)
    try:
        cfg = tracer.window(h4geproci.build_h4)
        results = [wl.run_op(op, cfg, wl.EXPECTED, call=tracer.window)
                   for op in ops]
    finally:
        tracer.remove()
    restored = all(vars(owner)[attr] is fn for owner, attr, fn in originals)
    layers = tr.layer_summary(tracer)
    layers["trace.overhead_s"] = tr.estimated_overhead(
        tracer, tr.per_call_overhead())
    _write_spans(trace, tracer, {"workload": workload, "seed": seed})
    print(json.dumps({"layers": layers, "restored": restored,
                      "targets": len(targets),
                      "ops": [_op_json(r) for r in results]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ready", type=Path, default=None,
                        help="file to create once set-up is done")
    args = parser.parse_args(argv)
    if args.trace is not None:
        _traced_pass(_import_package(), args.workload, args.seed, args.trace)
        return 0

    sampler = SpeedSampler()
    sampler.start()
    start = time.perf_counter()
    h4geproci = _import_package()
    cfg = h4geproci.build_h4()
    end = time.perf_counter()
    setup = {"setup_raw_s": end - start,
             "setup_s": sampler.reference_seconds(start, end)}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(setup))
        return 0
    if args.ready is not None:
        args.ready.touch()

    import workloads as wl
    results, wall_s = [], 0.0
    for op in wl.OPS[args.workload](args.seed):
        start = time.perf_counter()
        results.append(wl.run_op(op, cfg, wl.EXPECTED))
        wall_s += sampler.reference_seconds(start,
                                            start + results[-1].seconds)
    sampler.stop()
    print(json.dumps(dict(setup, wall_s=wall_s,
                          wall_raw_s=sum(r.seconds for r in results),
                          peak_rss_mb=_peak_rss_mb(),
                          ops=[_op_json(r) for r in results])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
