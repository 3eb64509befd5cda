"""The process that prepares one workload's inputs and runs its timed rounds.

Started by ``bench/run.py``; not meant to be run by hand. It records the
moment its set-up ends (``ready``, on the machine-wide monotonic clock) and
then runs whole rounds until ``--seconds`` have passed. Untraced rounds use
fresh inputs each (round r of seed s uses ``round_seed(s, r)``), so one run
averages over several inputs. A traced run alternates untraced and traced
rounds on the inputs of round 0, so that its counts repeat exactly and the
difference of the two is the tracing overhead. Everything it writes stays in
``--workdir`` and ``bench/_work/traces``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import crowdbounds  # noqa: E402,F401  (importing it is part of the set-up)
from crowdbounds import harness  # noqa: E402
from crowdbounds.em import EmConfig  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

COMMAND_TIMEOUT_S = 150


class McSweep:
    """run_experiment over the paper's wbar grid with every method."""

    grid = tuple(round(0.38 + 0.05 * i, 2) for i in range(13))
    sim = {"M": 31, "N": 200, "L": 3, "q": 0.3}

    def __init__(self, trials: int = 10, grid=None):
        self.trials = trials
        self.grid = tuple(grid or self.grid)

    def prepare(self, seed: int, rdir: Path):
        return harness.ExperimentConfig(
            scenario="hds-sweep", methods=harness.KNOWN_METHODS,
            trials=self.trials, sweep_variable="wbar", sweep_grid=self.grid,
            master_seed=seed, sim=dict(self.sim), output=str(rdir / "sweep"))

    def run(self, config, tracer=None):
        return harness.run_experiment(config)

    def record(self, config, rows) -> dict:
        sim = self.sim
        trials = len(self.grid) * self.trials
        return {
            "trials": trials,
            # Expected observed labels, M * N * q per trial and method.
            "labels": trials * len(config.methods) * sim["M"] * sim["N"]
            * sim["q"],
            "attempted": trials * len(config.methods),
            "failed": sum(row.error is not None for row in rows),
            "meta": {"grid": list(self.grid), "trials": self.trials,
                     "methods": list(config.methods)},
        }


class DatasetEm:
    """run_experiment on a dense-CSV labels file subsampled at rates s."""

    methods = ("mv", "iwmv", "em-gds", "em-hds")
    # Not lower: the checks need every EM fit to stop before max_iters, and
    # em-gds's iteration counts grow a long tail below s=0.5 (README).
    rates = (0.5, 0.75, 1.0)

    def __init__(self, trials: int = 4, items: int = 3000):
        self.trials, self.items = trials, items

    def prepare(self, seed: int, rdir: Path):
        grid, truth, _ = inputs.confusion_dataset(seed, items=self.items)
        inputs.write_dense(grid, truth, rdir / "labels.csv", rdir / "truth.csv")
        config = harness.ExperimentConfig(
            scenario="dataset", methods=self.methods, trials=self.trials,
            sweep_variable="s", sweep_grid=self.rates, master_seed=seed,
            output=str(rdir / "em"),
            dataset={"path": str(rdir / "labels.csv"), "format": "dense-csv",
                     "truth": str(rdir / "truth.csv"), "L": inputs.CLASSES})
        return config, int(np.count_nonzero(grid))

    def run(self, state, tracer=None):
        return harness.run_experiment(state[0])

    def record(self, state, rows) -> dict:
        config, num_labels = state
        # Expected labels kept by subsampling: s * (labels in the file).
        kept = sum(self.trials * s * num_labels for s in self.rates)
        return {
            "trials": len(self.rates) * self.trials,
            "labels": kept * len(self.methods),
            "attempted": len(self.rates) * self.trials * len(self.methods),
            "failed": sum(row.error is not None for row in rows),
            "meta": {"rates": list(self.rates), "trials": self.trials,
                     "methods": list(self.methods), "classes": inputs.CLASSES,
                     "em_max_iters": EmConfig().max_iters},
        }


class CliSparse:
    """simulate -> aggregate (mv, iwmv, em-hds) -> summarize -> bounds,
    each command a fresh ``python3 -m crowdbounds.cli`` process."""

    methods = ("mv", "iwmv", "em-hds")

    def __init__(self, workers: int = 500, items: int = 20000, q: float = 0.01):
        self.workers, self.items, self.q = workers, items, q

    def prepare(self, seed: int, rdir: Path):
        L = inputs.CLASSES
        accuracies = inputs.sparse_accuracies(seed, self.workers)
        params = {"q": self.q, "weights": (L * accuracies - 1).tolist(),
                  "accuracies": accuracies.tolist(), "L": L}
        (rdir / "bounds_params.json").write_text(json.dumps(params))
        labels, truth = str(rdir / "labels.csv"), str(rdir / "truth.csv")
        common = ["--in", labels, "--truth", truth, "--classes", str(L)]
        commands = [("simulate", [
            "simulate", "--workers", str(self.workers), "--items",
            str(self.items), "--classes", str(L), "--q", str(self.q),
            "--accuracies", ",".join(repr(a) for a in accuracies.tolist()),
            "--seed", str(seed), "--out-labels", labels, "--out-truth", truth],
            [labels, truth])]
        for method in self.methods:
            out = str(rdir / f"pred_{method}.csv")
            commands.append((f"aggregate_{method}", [
                "aggregate", "--method", method, *common, "--out", out], [out]))
        commands.append(("summarize", ["summarize", *common], []))
        commands.append(("bounds", ["bounds", "--scenario", "wmv-hds",
                                    "--params", json.dumps(params)], []))
        return rdir, commands

    def run(self, state, tracer=None):
        rdir, commands = state
        codes = []
        for name, argv, outputs in commands:
            stdout = rdir / f"{name}.out"
            if tracer is None:
                cmd = [sys.executable, "-m", "crowdbounds.cli", *argv]
            else:
                spans = rdir / f"{name}.spans.json"
                cmd = [sys.executable, str(BENCH / "cli_traced.py"),
                       str(spans), *argv]
                index = tracer.open(f"bench.command[{name}]")
            with open(stdout, "w") as out, open(rdir / f"{name}.err", "w") as err:
                code = subprocess.run(cmd, stdout=out, stderr=err,
                                      timeout=COMMAND_TIMEOUT_S).returncode
            if tracer is not None:
                tracer.close(index, failed=code != 0)
                if spans.exists():
                    tracer.adopt(spans, index)
                tracer.observe(_add_output_bytes, tracer, [stdout, *outputs])
            codes.append(code)
        return codes

    def record(self, state, codes) -> dict:
        rdir, commands = state
        labels = 0
        if codes[0] == 0:
            labels = json.loads((rdir / "simulate.out").read_text())["labels"]
        return {
            "trials": 1,
            "labels": labels * len(self.methods),
            "attempted": len(commands),
            "failed": sum(code != 0 for code in codes),
            "meta": {"commands": [name for name, _, _ in commands],
                     "codes": codes, "classes": inputs.CLASSES,
                     "iwmv_max_iters": inspect.signature(
                         crowdbounds.iwmv).parameters["max_iters"].default},
        }


def _add_output_bytes(tracer, paths) -> None:
    tracer.counts["cli.output_bytes"] += sum(
        Path(p).stat().st_size for p in paths if Path(p).exists())


WORKLOADS = {"mc-sweep": McSweep, "cli-sparse": CliSparse,
             "dataset-em": DatasetEm}


def _round(workload, state, rdir: Path, traced: bool):
    """Time one round on prepared inputs; returns (record, tracer)."""
    tracer = replaced = None
    if traced:
        tracer = tracing.Tracer()
        replaced = tracing.install(tracer)
    try:
        started = time.perf_counter()
        index = tracer.open("bench.round") if traced else None
        output = workload.run(state, tracer)
        if traced:
            tracer.close(index)
        seconds = time.perf_counter() - started
    finally:
        if traced:
            tracing.uninstall(replaced)
    record = workload.record(state, output)
    record.update(dir=str(rdir), seconds=seconds, traced=traced)
    return record, tracer


def _prepare(workload, seed: int, rdir: Path):
    rdir.mkdir(parents=True)
    return workload.prepare(seed, rdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    first = _prepare(workload, inputs.round_seed(args.seed, 0),
                     args.workdir / "r0")
    result = {"ready": time.monotonic(), "rounds": []}
    if not args.setup_only:
        result.update(_run(workload, first, args))
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


def _run(workload, first, args) -> dict:
    rounds, traced_metrics, first_tracer = [], [], None
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < args.seconds:
        seed = inputs.round_seed(args.seed, 0 if args.trace else index)
        rdir = args.workdir / f"r{index}"
        state = first if index == 0 else _prepare(workload, seed, rdir)
        record, _ = _round(workload, state, rdir, traced=False)
        rounds.append(record)
        if args.trace:
            rdir = args.workdir / f"r{index}t"
            state = _prepare(workload, seed, rdir)
            record, tracer = _round(workload, state, rdir, traced=True)
            rounds.append(record)
            traced_metrics.append(tracing.round_metrics(tracer))
            first_tracer = first_tracer or tracer
        index += 1
    out = {"rounds": rounds}
    if args.trace:
        per_layer = tracing.median_metrics(traced_metrics)
        untraced = [r["seconds"] for r in rounds if not r["traced"]]
        traced = [r["seconds"] for r in rounds if r["traced"]]
        per_layer["trace.overhead_s"] = (statistics.median(traced)
                                         - statistics.median(untraced))
        out["per_layer"] = per_layer
        traces = BENCH / "_work" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        first_tracer.save(traces / f"{args.workload}-seed{args.seed}.json")
    return out


if __name__ == "__main__":
    sys.exit(main())
