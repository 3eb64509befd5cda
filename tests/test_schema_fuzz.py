"""Fuzz every user input of the one schema through ``cli.main``, one key at
a time.

Each example takes a valid experiment config (keys from
``harness.CONFIG_KEYS``) or valid ``bounds --params`` (keys from
``cli.BOUND_SCENARIOS``) and changes one key: to an edge number, a value of
another kind, or, for a list, the same shape with some entries changed.
Experiment sizes stay small (M, N <= 50, L <= 6, trials <= 2); only the
bounds counts, which size no array, get huge values. Invariants:

* the exit code is 0 or 1, never 2;
* on exit 0, stdout is strict JSON (no NaN or Infinity);
* every result row has an ``error`` or an ``error_rate`` in [0, 1] (or
  none, where a dataset has no truth);
* on exit 1 for a value of the wrong kind, a ``sim`` value out of its
  range, an ``hds-sweep`` grid value out of the swept key's range or a
  bounds count out of its range, the message names the key.

An ``hds-sweep`` config whose sweep is changed sweeps one of ``wbar``,
``M``, ``N`` and ``q``, and its grid values are capped as the key is.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from crowdbounds import cli, harness
from crowdbounds.cli import BOUND_SCENARIOS
from crowdbounds.harness import CONFIG_KEYS, REQUIRED
from test_config import VALID_PARAMS

GOLDEN = Path(__file__).parent / "golden"
PROFILE = settings(max_examples=400, deadline=None, derandomize=True,
                   database=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])

NUMBERS = (0, -1, 1, 2, 0.5, 1e-300, 1.5, 1e308, -1e308, math.nan, math.inf,
           -math.inf)
OTHER_KINDS = ("x", None, True, [], {}, [1, "x"])
HUGE_COUNTS = (10 ** 400, 10 ** 18, 2 ** 53 + 1, 2 ** 31 + 1)
# The most an experiment size may be set to here.
SIZES = {"M": 50, "N": 50, "M1": 50, "M2": 50, "N1": 50, "N2": 50, "L": 6,
         "trials": 2}

# The bounds counts: least and most value.
COUNTS = {"M": (1, 2 ** 53), "N": (1, 2 ** 53), "L": (2, 2 ** 31)}

SMALL_MISSPEC = {"M1": 3, "M2": 3, "N1": 10, "N2": 10}
VALID_CONFIGS = [
    {"scenario": "hds-sweep", "methods": list(harness.KNOWN_METHODS),
     "trials": 2, "sweep": {"variable": "wbar", "grid": [0.7]},
     "sim": {"M": 5, "N": 20, "L": 3, "q": 0.5}, "misspec": SMALL_MISSPEC},
    {"scenario": "misspecified", "methods": ["mv", "iwmv", "em-gds"],
     "trials": 1, "misspec": SMALL_MISSPEC},
    {"scenario": "dataset", "methods": ["mv", "wmv", "iwmv", "em-hds"],
     "trials": 1, "sweep": {"variable": "s", "grid": [0.5]},
     "misspec": SMALL_MISSPEC,
     "dataset": {"path": str(GOLDEN / "triples.csv"),
                 "truth": str(GOLDEN / "triples_truth.csv"), "L": 2,
                 "binary": True}},
]
# The valid grid value of each key an hds-sweep config may sweep.
SWEPT = {"wbar": 0.7, "M": 5, "N": 20, "q": 0.5}
# Where each sim value lies in range.
SIM_RANGES = {"M": lambda v: v >= 1, "N": lambda v: v >= 1,
              "L": lambda v: v >= 2, "q": lambda v: 0 < v <= 1,
              "beta_a": lambda v: v > 0, "beta_b": lambda v: v > 0,
              "wbar": lambda v: 0 < v < 1, "beta_tol": lambda v: v > 0}


def of_kind(kind: str, value) -> bool:
    """Whether ``value`` is of the schema ``kind``, as README states the
    kinds: a number is finite and no larger than the largest float."""
    if kind == "numbers":
        return of_kind("number", value) or (
            isinstance(value, list) and all(of_kind(kind, v) for v in value))
    if kind in ("number", "integer", "whole number"):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) <= sys.float_info.max):
            return False
        return (kind == "number" or isinstance(value, int)
                or (kind == "whole number" and value.is_integer()))
    return isinstance(value, {"string": str, "boolean": bool, "object": dict,
                              "array": list}[kind])


def changed(valid, extra=()):
    """A value for a key whose valid value is ``valid``: an edge number or
    a value of another kind, or, for a list, the same shape with each entry
    kept or changed."""
    values = st.sampled_from(NUMBERS + OTHER_KINDS + tuple(extra))
    if not isinstance(valid, (list, tuple)):
        return values
    leaves = [changed(v) if isinstance(v, (list, tuple))
              else st.sampled_from((v, *NUMBERS)) for v in valid]
    return values | st.tuples(*leaves).map(list)


def within(value, cap) -> bool:
    """Whether no number in ``value``, or in the list ``value``, exceeds
    ``cap``."""
    if isinstance(value, list):
        return all(within(v, cap) for v in value)
    return not of_kind("number", value) or value <= cap


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 0:
        json.loads(out.getvalue(), parse_constant=not_strict)
    return code, err.getvalue()


def not_strict(constant):
    raise AssertionError(f"{constant} is not strict JSON")


def names(message: str, key: str) -> bool:
    return re.search(rf"(?<!\w){re.escape(key)}\b", message) is not None


BOUND_KEYS = [(scenario, key) for scenario, keys in BOUND_SCENARIOS.items()
              for key in keys]


@PROFILE
@given(data=st.data())
def test_bounds_params_exit_0_or_1_with_strict_json(data):
    scenario, key = data.draw(st.sampled_from(BOUND_KEYS))
    kind, default = BOUND_SCENARIOS[scenario][key]
    valid = VALID_PARAMS[scenario]
    value = data.draw(changed(valid.get(key, default),
                              HUGE_COUNTS if key in COUNTS else ()))
    epsilon = data.draw(st.sampled_from([[], ["--epsilon", "0.1"]]))
    code, err = run(["bounds", "--scenario", scenario, "--params",
                     json.dumps({**valid, key: value}), *epsilon])
    wrong_kind = not of_kind(kind, value) and not (
        value is None and default is None)
    out_of_range = key in COUNTS and of_kind(kind, value) and not (
        COUNTS[key][0] <= value <= COUNTS[key][1])
    if code == 1 and (wrong_kind or out_of_range):
        assert repr(key) in err, (scenario, key, value, err)


# (section, key, (kind, default)) of every key; the section of a top-level
# key is None.
CONFIG_TARGETS = [target for name, (kind, default, *inner) in CONFIG_KEYS.items()
                  for target in ([(name, key, spec)
                                  for key, spec in inner[0].items()] if inner
                                 else [(None, name, (kind, default))])]


@PROFILE
@given(data=st.data())
def test_experiment_configs_exit_0_or_1_with_checked_rows(data, monkeypatch):
    monkeypatch.setattr(harness, "_cell_workers", lambda num_tasks: 1)
    config = json.loads(json.dumps(data.draw(st.sampled_from(VALID_CONFIGS))))
    section, key, (kind, default) = data.draw(st.sampled_from(CONFIG_TARGETS))
    hds = config["scenario"] == "hds-sweep"
    if section == "sweep" and hds:
        swept = data.draw(st.sampled_from(sorted(SWEPT)))
        config["sweep"] = {"variable": swept, "grid": [SWEPT[swept]]}
    swept = config.get("sweep", {}).get("variable")
    place = config.setdefault(section, {}) if section else config
    valid = place.get(key, None if default is REQUIRED else default)
    cap = SIZES.get(swept if key == "grid" else key, math.inf)
    value = data.draw(changed(valid).filter(lambda v: within(v, cap)))
    place[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code, err = run(["experiment", "--config", str(path),
                         "--out", str(Path(tmp) / "run")])
        rows = ([json.loads(line) for line in
                 (Path(tmp) / "run.jsonl").read_text().splitlines()[1:]]
                if code == 0 else [])
    no_truth = config["scenario"] == "dataset" and not config["dataset"].get(
        "truth")
    for row in rows:
        assert row["error"] or (
            row["error_rate"] is None if no_truth
            else 0 <= row["error_rate"] <= 1), row
    wrong_kind = not of_kind(kind, value) and not (
        value is None and default is None)
    out_of_range = (section == "sim" and hds and of_kind(kind, value)
                    and not SIM_RANGES[key](value))
    if code == 1 and (wrong_kind or out_of_range):
        assert names(err, key), (section, key, value, err)
    if code == 1 and key == "grid" and hds and isinstance(value, list) and any(
            of_kind(CONFIG_KEYS["sim"][2][swept][0], v)
            and not SIM_RANGES[swept](v) for v in value):
        assert names(err, swept), (swept, value, err)
