#!/usr/bin/env python3
"""The lifeframes benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload gun_census --seed 1 --seconds 20 --trace 0

Run it from the root of a lifeframes checkout; it measures the code
under ``src``.  Each workload runs in fresh single-threaded Python
processes (``worker.py``).  With ``--trace 0`` it reports the
end-to-end metrics named in ``BENCHMARK.json``: set-up time as the
median of several fresh processes, then the median wall time of the
runs one process completes in ``--seconds``, both corrected for the
host's speed (``pace.py``).  With ``--trace 1`` it reports the
per-layer metrics from a separate traced process.  Every run's output
is checked against the reference; the last line of standard output is
the result as one JSON object.

A record of the run (versions, CPUs, load, every sample) and, when
traced, the spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from pace import paced

HERE = Path(__file__).resolve().parent

# Fresh processes timed from start to ready; the median is setup_s.
SETUP_SAMPLES = 7

# A worker still running after this long is killed, which keeps a hung
# run inside the 180 s a benchmark run may take.
WORKER_TIMEOUT_S = 150

# Thread pools numpy's libraries may start; held to one thread so the
# workload stays single-threaded on a small machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(RuntimeError):
    """The benchmark itself could not measure; no result is printed."""


def _git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _worker(root: Path, args: argparse.Namespace, *extra: str) -> tuple[float, dict, dict | None]:
    """Start one workload process; return its paced set-up time, ready line and result."""
    out = root / ".perfbench"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", str(out),
        *extra,
    ]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **{v: "1" for v in THREAD_VARS})
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, cwd=root)
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or not ready_line:
        raise BenchError(f"workload process exited with code {code}")
    ready = json.loads(ready_line)
    src = (root / "src").resolve()
    if src not in Path(ready["lifeframes"]).resolve().parents:
        raise BenchError(f"imported lifeframes from {ready['lifeframes']}, not from {src}")
    return paced(setup_s, ready.pop("probes")), ready, json.loads(rest[-1]) if rest else None


def measure(root: Path, args: argparse.Namespace) -> tuple[dict, dict, dict]:
    # Set-up-only processes run before and after the timed one, so the
    # median spans the whole run rather than one moment of it.
    setups = [_worker(root, args, "--setup-only")[0] for _ in range(SETUP_SAMPLES // 2)]
    setup_s, ready, result = _worker(root, args)
    setups.append(setup_s)
    setups += [_worker(root, args, "--setup-only")[0] for _ in range(SETUP_SAMPLES // 2)]
    wall = statistics.median(result["paced"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "gens_per_s": result["gens"] / wall,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_frac": 1 - len(result["failures"]) / result["attempts"],
    }
    samples = {"setup_samples_s": setups, "wall_samples_s": result["walls"], "paced_samples_s": result["paced"]}
    return values, result, {**samples, **ready}


def trace(root: Path, args: argparse.Namespace, stem: str) -> tuple[dict, dict, dict]:
    spans = root / ".perfbench" / f"{stem}-spans.jsonl"
    _, ready, result = _worker(root, args, "--trace", "--spans", str(spans))
    return result["metrics"], result, {"spans": str(spans.relative_to(root)), **ready}


def main(argv: list[str] | None = None) -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="ascii"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (root / "src" / "lifeframes" / "__init__.py").is_file():
        print("error: run from the root of a lifeframes checkout (no src/lifeframes here)", file=sys.stderr)
        return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    try:
        if args.trace:
            values, result, samples = trace(root, args, stem)
            wanted = spec["per_layer"]
        else:
            values, result, samples = measure(root, args)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record.update(samples, loadavg_end=os.getloadavg(), failures=result["failures"])
    (root / ".perfbench" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    for failure in result["failures"][:5]:
        print(f"failed run: {failure}", file=sys.stderr)

    print("run record: " + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not result["failures"],
                "attempted": result["attempts"],
                "failed": len(result["failures"]),
                "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
