"""Benchmark of crowdbounds end to end (untraced) or per layer (traced).

Usage, from the root of a checkout:

    python3 bench/run.py --workload {mc-sweep,cli-sparse,dataset-em} \
        --seed N --seconds S --trace {0,1}

Set-up is measured ``SETUP_SAMPLES`` times, each as the time from starting
a fresh worker process to the end of its input preparation; the last sample
is the worker that then runs the timed rounds. The outputs of every round
are checked by ``checks.py`` here, in a process that never imports
crowdbounds. The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170


def _worker(args, workdir: Path, setup_only: bool, deadline: float):
    """Run one worker process; returns (set-up seconds, its result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--workdir",
           str(workdir)] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # A second OpenBLAS thread gives these products no wall-clock gain on 2
    # cores, but makes their time depend on what else the machine runs: on
    # dataset-em the spread over seeds fell from about 0.2 to 0.09 with one.
    env["OPENBLAS_NUM_THREADS"] = "1"
    started = time.monotonic()
    # A session of its own, so that a timeout also stops the CLI processes
    # the worker started.
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    result = json.loads((workdir / "result.json").read_text())
    return result["ready"] - started, result


def _metrics(rounds: list[dict], setup_s: float) -> dict:
    def rate(key):
        return statistics.median(r[key] / r["seconds"] for r in rounds)

    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r["seconds"] for r in rounds),
                   "unit": "s"},
        "trials_per_s": {"value": rate("trials"), "unit": "1/s"},
        "labels_per_s": {"value": rate("labels"), "unit": "labels/s"},
        # ru_maxrss is in KiB on Linux: the largest finished child process.
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            / 1024, "unit": "MB"},
    }


def _per_layer(values: dict) -> dict:
    """The traced run's metrics, named and united as in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise RuntimeError(f"per-layer metrics differ from BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(checks.CHECKS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "crowdbounds" / "__init__.py").is_file():
        print(f"error: no crowdbounds sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [_worker(args, work / f"setup{i}", True, deadline)[0]
                  for i in range(SETUP_SAMPLES - 1)]
        setup_s, result = _worker(args, work / "run", False, deadline)
        setups.append(setup_s)
        rounds = result["rounds"]
        problems = []
        for r in rounds:
            rdir = Path(r["dir"])
            try:
                found = checks.CHECKS[args.workload](rdir, r["meta"])
            except (OSError, ValueError, KeyError) as exc:
                found = [f"unreadable output: {exc!r}"]
            problems += [f"{rdir.name}: {p}" for p in found]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = _per_layer(result["per_layer"])
    else:
        metrics = _metrics(rounds, statistics.median(setups))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
