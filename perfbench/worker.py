"""One workload process: set up, say so, then time or trace the workload.

``run.py`` starts this script in a fresh interpreter with ``src`` on
PYTHONPATH and numpy's thread pools held to one thread.  It prints one
JSON line as soon as the workload is ready (``run.py`` times set-up up
to that line) and, unless ``--setup-only``, a second one with the
samples when ``--seconds`` have passed.

Set-up and timed runs go under a ``Pace`` probe, so their times can be
corrected for the host's speed.  Traced mode alternates an untraced and
a traced run, so both see the same machine state; it traces set-up too,
because the ship catalog is expanded there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from pace import Pace, paced
from spans import LAYERS, Tracer, layer_metrics, summarize


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def _callers(own) -> list:
    """Every module whose cross-module calls get spans, the benchmark's own included."""
    return [m for n, m in sys.modules.items() if n.startswith("lifeframes.")] + [own]


def _attempt(workload, tracer: Tracer | None = None) -> tuple[float, str | None]:
    """One run of the workload: its wall time and the failure, if any."""
    if tracer is not None:
        tracer.install(_callers(sys.modules[type(workload).__module__]))
    start = time.perf_counter()
    try:
        result = workload.run()
        wall = time.perf_counter() - start
    except Exception as exc:  # a raising run is a failed run, not a crash
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        workload.check(result)
    except Exception as exc:
        return wall, f"{type(exc).__name__}: {exc}"
    return wall, None


def timed(workload, seconds: float) -> dict:
    walls, paced_walls, failures = [], [], []
    pace = Pace()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        with pace:
            wall, failure = _attempt(workload)
        walls.append(wall)
        paced_walls.append(paced(wall, pace.samples))
        if failure:
            failures.append(failure)
    return {
        "attempts": len(walls),
        "gens": workload.gens,
        "walls": walls,
        "paced": paced_walls,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(workload, seconds: float, setup: Tracer, spans_path: Path) -> dict:
    plain, runs, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        wall, failure = _attempt(workload)
        plain.append(wall)
        tracer = Tracer()
        traced_wall, traced_failure = _attempt(workload, tracer)
        runs.append((traced_wall, tracer))
        failures += [f for f in (failure, traced_failure) if f]
    runs.sort(key=lambda run: run[0])
    wall, chosen = runs[(len(runs) - 1) // 2]
    metrics = layer_metrics(summarize(setup, chosen))
    metrics["trace.wall_s"] = setup.root_seconds() + wall
    metrics["trace.overhead_frac"] = (
        statistics.median(w for w, _ in runs) / statistics.median(plain) - 1
    )
    # Every traced second belongs to some layer: the workload's own
    # call is a span, and set-up calls into lifeframes are spans.
    attributed = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(attributed - metrics["trace.wall_s"]) > 0.01 * metrics["trace.wall_s"]:
        raise RuntimeError(
            f"layer self times add up to {attributed:.6f} s, "
            f"traced wall is {metrics['trace.wall_s']:.6f} s"
        )
    with open(spans_path, "w", encoding="ascii") as out:
        setup.write(out, "setup")
        chosen.write(out, "run")
    return {"attempts": len(plain) + len(runs), "failures": failures, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="traced mode: write the spans here")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(dir=args.workdir))
    try:
        # The probe would land inside the spans, so traced runs go without.
        setup, setup_pace = Tracer(), Pace()
        with contextlib.nullcontext() if args.trace else setup_pace:
            # numpy and lifeframes load here: importing them is part of set-up.
            import lifeframes
            import numpy
            import workloads

            if args.trace:
                setup.install(_callers(workloads))
            try:
                workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            finally:
                setup.uninstall()
        _emit(
            {
                "probes": setup_pace.samples,
                "numpy": numpy.__version__,
                "lifeframes": lifeframes.__file__,
            }
        )
        if args.setup_only:
            return 0
        if args.trace:
            _emit(traced(workload, args.seconds, setup, args.spans))
        else:
            _emit(timed(workload, args.seconds))
        return 0
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    sys.exit(main())
