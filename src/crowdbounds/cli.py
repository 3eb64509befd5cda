"""Command-line entry points: simulate, aggregate, bounds, experiment,
summarize.

Exit codes: 0 on success, 1 for validation problems (bad arguments, bad
files, domain errors), 2 for unexpected runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import bounds as bnd
from .core import (AssignmentModel, DecomposableRule, DimensionMismatch,
                   DomainError, LabelSet, WorkerModel, error_rate)
from .harness import (
    LABEL_FORMATS,
    METHODS,
    ExperimentConfig,
    REQUIRED,
    _STAND_INS,
    _check_hds_trial,
    _check_keys,
    _hds_trial_data,
    check_json,
    load_labels,
    load_truth,
    run_experiment,
    subsample_labels,
    summarize_dataset,
    summarize_rows,
)
from .simulate import check_beta_shapes


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2; usage errors are 1 here
        raise UsageError(message)


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer of at least 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return int(text)


def _numbers(text: str) -> np.ndarray:
    """An ``--accuracies`` value: comma-separated numbers."""
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


_WRITE_ROWS = 1 << 14  # rows the CSV writer formats at once


def _write_csv(path, header: str, row: str, *columns):
    """Write the line ``header``, then ``row.format`` of each position of
    the columns (numpy arrays, lists or ranges of one length), with the
    CRLF line ends of :func:`csv.writer`; no cell may hold a comma, a quote
    or a line break, which it would quote. The rows are formatted and
    written :data:`_WRITE_ROWS` at a time, so beyond its columns the writer
    holds one chunk's lists and text."""
    line = (row + "\r\n").format
    with open(path, "w", newline="") as handle:
        handle.write(header + "\r\n")
        for start in range(0, len(columns[0]), _WRITE_ROWS):
            chunk = (column[start:start + _WRITE_ROWS] for column in columns)
            handle.write("".join(map(line, *(
                part.tolist() if isinstance(part, np.ndarray) else part
                for part in chunk))))


# simulate's flags, in _check_keys order, and the sim key whose stand-in
# each takes; --accuracies and --binary take None: the Beta sampler, no +/-1.
_SIMULATE_KEYS = {"workers": "M", "items": "N", "classes": "L", "q": "q",
                  "accuracies": None, "tol": "beta_tol", "target-mean": "wbar",
                  "beta-a": "beta_a", "beta-b": "beta_b", "binary": None}


def _check_simulate(M, N, L, q, accuracies, tol, wbar, a, b, binary) -> None:
    """Raise as ``simulate`` with these values would, before it draws."""
    if accuracies is None:
        check_beta_shapes(a, b)  # as given, even where a target replaces a
    _check_hds_trial(M, N, L, q, tol, wbar, a, b, accuracies)
    LabelSet(L, binary)


def _cmd_simulate(args) -> int:
    flags = {f: getattr(args, f.replace("-", "_")) for f in _SIMULATE_KEYS}
    _check_keys("--", flags, {flag: _STAND_INS["sim"].get(key) for flag, key
                              in _SIMULATE_KEYS.items()}, _check_simulate)
    labels, truth, accuracies, _ = _hds_trial_data(
        {key: flags[flag] for flag, key in _SIMULATE_KEYS.items() if key},
        args.seed, args.accuracies)
    label_set = LabelSet(args.classes, args.binary)
    _write_csv(args.out_labels, "worker,item,label", "w{},i{},{}",
               labels.workers, labels.items, label_set.to_external(labels.labels))
    if args.out_truth:
        _write_csv(args.out_truth, "item,label", "i{},{}",
                   range(len(truth)), label_set.to_external(truth))
    print(json.dumps({"workers": args.workers, "items": args.items,
                      "labels": labels.num_labels,
                      "mean_accuracy": float(accuracies.mean())}))
    return 0


def _cmd_aggregate(args) -> int:
    label_set = LabelSet(args.classes, args.binary)
    labels, _, item_ids = load_labels(args.infile, args.format,
                                      label_set=label_set)
    outcome, = METHODS[args.method].run([(labels, None)], {})
    if isinstance(outcome, Exception):
        raise outcome
    predictions, iterations = outcome
    if args.out:
        _write_csv(args.out, "item,label", "{},{}", item_ids,
                   label_set.to_external(predictions))
    summary = {"method": args.method, "items": len(item_ids)}
    if iterations is not None:
        summary["iterations"] = iterations
    if args.truth:
        truth, unlabeled = load_truth(args.truth, label_set, item_ids)
        summary["error_rate"] = error_rate(predictions, truth)
        summary["truth_unlabeled"] = unlabeled
    print(json.dumps(summary))
    return 0


def _general_rule(scores, shifts) -> DecomposableRule:
    """The rule of the ``general`` bounds scenario.

    Its ``scores`` JSON has shape (M, L, L + 1), indexed ``[i, k, h]`` with
    a missing-label column ``h = 0`` that must hold one constant: that
    shifts every class alike, so the column is dropped and the rest stored
    in the rule's ``[i, h - 1, k]`` layout.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 3 or scores.shape[2] != scores.shape[1] + 1:
        raise DimensionMismatch("scores must have shape (M, L, L + 1)")
    missing = scores[:, :, 0]
    if np.any(missing != missing.flat[0]):
        raise DomainError("the missing-label score must be one constant")
    return DecomposableRule(scores[:, :, 1:].transpose(0, 2, 1), shifts)


R = REQUIRED  # a key without a default
# The keys each bounds scenario reads from ``--params``: (kind, default).
BOUND_SCENARIOS = {
    "wmv-hds": {"q": ("number", R), "weights": ("numbers", R),
                "accuracies": ("numbers", R), "L": ("integer", R),
                "N": ("integer", None)},
    "hyperplane": {"q": ("numbers", R), "weights": ("numbers", R),
                   "shift": ("number", 0.0), "p_plus": ("numbers", R),
                   "p_minus": ("numbers", R), "N": ("integer", None)},
    "mv-hds": {"q": ("number", R), "mean_accuracy": ("number", R),
               "M": ("integer", R), "L": ("integer", R)},
    "oswmv": {"accuracies": ("numbers", R), "N": ("integer", R)},
    "general": {"scores": ("numbers", R), "shifts": ("numbers", R),
                "assignment_kind": ("string", "constant"),
                "assignment": ("numbers", R), "tables": ("numbers", R),
                "N": ("integer", None)},
}


# The counts of ``--params`` that the bound calculators check: key, least
# value and the calculators' message, and the most they compute with: a
# float holds every count up to 2**53, and L**2 broadcast gaps index with
# int64.
_COUNTS = (("M", 1, "at least one worker is required", 2 ** 53),
           ("N", 1, "at least one item is required", 2 ** 53),
           ("L", 2, "at least two classes are required", 2 ** 31))


def _cmd_bounds(args) -> int:
    scenario = args.scenario
    params = check_json(f"{scenario!r} --params", json.loads(args.params),
                        "object", BOUND_SCENARIOS[scenario], "parameter {!r}")
    for key, least, message, most in _COUNTS:
        value = params.get(key)
        if value is not None and value > most:
            message = f"must be at most {most}, got {value}"
        if value is not None and not least <= value <= most:
            raise DomainError(f"{scenario!r} --params parameter {key!r}: "
                              f"{message}")
    quantities = None  # gap quantities, which --epsilon needs
    if scenario == "wmv-hds":
        quantities = bnd.quantities_wmv_hds(
            params["q"], params["weights"], params["accuracies"], params["L"])
    elif scenario == "mv-hds":
        report = bnd.mv_bounds_hds(params["q"], params["mean_accuracy"],
                                   params["M"], params["L"])
    elif scenario == "hyperplane":
        quantities = bnd.quantities_hyperplane(
            params["q"], params["weights"], params["shift"],
            params["p_plus"], params["p_minus"])
    elif scenario == "oswmv":
        report = bnd.one_step_wmv_bound(params["accuracies"], params["N"])
    else:
        rule = _general_rule(params["scores"], params["shifts"])
        assignment = AssignmentModel(params["assignment_kind"],
                                     params["assignment"])
        model = WorkerModel.gds(np.asarray(params["tables"], dtype=float))
        quantities = bnd.score_quantities(rule, assignment, model)
    if quantities is not None:
        report = bnd.mean_error_bounds(quantities)
    extra = {}
    if args.epsilon is not None:
        if quantities is None:
            raise UsageError(f"--epsilon is not available for the {scenario!r} "
                             f"scenario")
        if params["N"] is None:
            raise UsageError("--epsilon needs the item count 'N' in --params")
        extra = {"high_probability": bnd.high_probability_bound(
            quantities, params["N"], args.epsilon).to_dict()}
    print(json.dumps({**report.to_dict(), **extra}, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.out:
        config = dataclasses.replace(config, output=args.out)
    rows = run_experiment(config)
    print(json.dumps(summarize_rows(rows), indent=2))
    return 0


def _cmd_summarize(args) -> int:
    label_set = LabelSet(args.classes, args.binary)
    labels, _, item_ids = load_labels(args.infile, args.format,
                                      label_set=label_set)
    truth = None
    if args.truth:
        truth, unlabeled = load_truth(args.truth, label_set, item_ids)
    if args.subsample is not None:
        labels = subsample_labels(labels, args.subsample, seed=args.seed)
    summary = summarize_dataset(labels, truth).to_dict()
    summary.pop("labels_per_worker")
    if args.truth:
        summary["truth_unlabeled"] = unlabeled
    print(json.dumps(summary, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="crowdbounds",
                     description="Crowd label aggregation, bounds and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--workers", type=int, required=True)
    sim.add_argument("--items", type=int, required=True)
    sim.add_argument("--classes", type=int, default=2)
    sim.add_argument("--q", type=float, default=1.0)
    sim.add_argument("--beta-a", type=float, default=2.3,
                     help="Beta shape a; unread with --target-mean")
    sim.add_argument("--beta-b", type=float, default=2.0)
    sim.add_argument("--target-mean", type=float, default=None,
                     help="mean accuracy T; moves a to b T / (1 - T)")
    sim.add_argument("--tol", type=float, default=0.01)
    sim.add_argument("--accuracies", type=_numbers, default=None,
                     help="comma-separated per-worker accuracies "
                          "(overrides the beta sampler)")
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--binary", action="store_true")
    sim.add_argument("--out-labels", required=True)
    sim.add_argument("--out-truth", default=None)
    sim.set_defaults(func=_cmd_simulate)

    # The label input of aggregate and summarize.
    label_input = argparse.ArgumentParser(add_help=False)
    label_input.add_argument("--in", dest="infile", required=True)
    label_input.add_argument("--truth", default=None)
    label_input.add_argument("--classes", type=int, default=2)
    label_input.add_argument("--binary", action="store_true")
    label_input.add_argument("--format", default="csv-triples",
                             choices=LABEL_FORMATS)

    agg = sub.add_parser("aggregate", parents=[label_input],
                         help="aggregate a labels file")
    agg.add_argument("--method", required=True,
                     choices=[name for name, method in METHODS.items()
                              if not method.needs_model])
    agg.add_argument("--out", default=None)
    agg.set_defaults(func=_cmd_aggregate)

    bds = sub.add_parser("bounds", help="evaluate closed-form bounds")
    bds.add_argument("--scenario", required=True, choices=list(BOUND_SCENARIOS))
    bds.add_argument("--params", required=True,
                     help="JSON object with the scenario's parameters")
    bds.add_argument("--epsilon", type=float, default=None,
                     help="also report the high-probability guarantee")
    bds.set_defaults(func=_cmd_bounds)

    exp = sub.add_parser("experiment", help="run a configured experiment")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", default=None,
                     help="output stem; replaces the config's 'output'")
    exp.set_defaults(func=_cmd_experiment)

    summ = sub.add_parser("summarize", parents=[label_input],
                          help="summarize a labels file")
    summ.add_argument("--subsample", type=float, default=None)
    summ.add_argument("--seed", type=_seed, default=0)
    summ.set_defaults(func=_cmd_summarize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
