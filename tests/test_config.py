"""The one config schema: every key of an experiment config and of
``bounds --params`` has one kind and one default, checked by one checker
and listed in README."""

import json
import re
from pathlib import Path

import pytest

from crowdbounds.cli import BOUND_SCENARIOS, main
from crowdbounds.harness import CONFIG_KEYS, REQUIRED

README = Path(__file__).resolve().parents[1] / "README.md"

BASE = {"scenario": "hds-sweep", "methods": ["mv"], "trials": 1,
        "sweep": {"variable": "wbar", "grid": [0.7]},
        "sim": {"M": 5, "N": 20, "L": 2, "q": 0.5}}

# (section, key, a value of the wrong kind); "" is the top level.
WRONG_CONFIG = [
    ("", "scenario", ["hds-sweep"]), ("", "scenario", 5),
    ("", "methods", [["mv"]]), ("", "methods", "mv"),
    ("", "trials", "3"), ("", "master_seed", 1.5), ("", "output", 5),
    ("", "record_timing", "false"), ("", "record_timing", 1),
    ("", "fixed_iterations", 2.0), ("", "sweep", [0.7]), ("", "sim", [1]),
    ("", "misspec", "x"), ("", "dataset", 2),
    ("sweep", "variable", 5), ("sweep", "grid", 0.7),
    ("sweep", "grid", ["0.7"]), ("sweep", "grid", [[0.7]]),
    ("sweep", "grid", [None]),
    ("sim", "M", 10.5), ("sim", "N", "20"), ("sim", "L", True),
    ("sim", "q", True), ("sim", "q", "0.5"), ("sim", "q", float("nan")),
    ("sim", "beta_a", "2"), ("sim", "beta_a", float("inf")),
    ("sweep", "grid", [0.7, float("-inf")]),
    ("sim", "beta_b", None), ("sim", "wbar", "0.7"),
    ("sim", "beta_tol", [0.01]),
    ("misspec", "M1", 1.5), ("misspec", "M2", "3"), ("misspec", "N1", None),
    ("misspec", "N2", False), ("misspec", "block", [[0.9, "0.6"]]),
    ("misspec", "q", "0.3"),
    ("dataset", "path", 3), ("dataset", "format", 1), ("dataset", "truth", 5),
    ("dataset", "L", 2.5), ("dataset", "binary", "false"),
]

VALID_PARAMS = {
    "wmv-hds": {"q": 1.0, "weights": [1, 1], "accuracies": [0.8, 0.6],
                "L": 2, "N": 50},
    "hyperplane": {"q": [1, 1], "weights": [1, 1], "shift": 0.2,
                   "p_plus": [0.8, 0.7], "p_minus": [0.6, 0.9], "N": 100},
    "mv-hds": {"q": 1.0, "mean_accuracy": 0.7, "M": 10, "L": 2},
    "oswmv": {"accuracies": [0.8] * 15, "N": 2000},
    "general": {"scores": [[[0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]]],
                "shifts": [0, 0], "assignment_kind": "constant",
                "assignment": 1.0,
                "tables": [[[0.8, 0.2], [0.2, 0.8]], [[0.6, 0.4], [0.4, 0.6]]],
                "N": 200},
}
# (scenario, key, a value of the wrong kind)
WRONG_PARAMS = [
    ("wmv-hds", "q", "x"), ("wmv-hds", "weights", [1, "1"]),
    ("wmv-hds", "accuracies", {"a": 0.8}), ("wmv-hds", "L", 2.0),
    ("wmv-hds", "N", 50.5),
    ("hyperplane", "q", [1, True]), ("hyperplane", "weights", "w"),
    ("hyperplane", "shift", [0.1]), ("hyperplane", "p_plus", [[0.8], "x"]),
    ("hyperplane", "p_minus", None), ("hyperplane", "N", True),
    ("mv-hds", "q", [1.0]), ("mv-hds", "mean_accuracy", "0.7"),
    ("mv-hds", "M", 10.5), ("mv-hds", "L", True),
    ("oswmv", "accuracies", None), ("oswmv", "N", 1e3),
    ("general", "scores", "s"), ("general", "shifts", [True, 0]),
    ("general", "assignment_kind", 1), ("general", "assignment", "1"),
    ("general", "tables", [[None]]), ("general", "N", "200"),
    ("general", "tables", [[[0.8, float("nan")], [0.2, 0.8]],
                           [[0.6, 0.4], [0.4, 0.6]]]),
    ("hyperplane", "shift", float("inf")),
]


def keys_of(table, section=""):
    """(section, key) of every key of a config key table, sections too."""
    for key, (kind, default, *inner) in table.items():
        yield section, key
        if inner:
            yield from keys_of(inner[0], key)


def experiment(tmp_path, config, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = main(["experiment", "--config", str(path)])
    return code, capsys.readouterr().err


def test_wrong_kinds_exit_1_and_name_the_key(tmp_path, capsys):
    assert {(s, k) for s, k, _ in WRONG_CONFIG} == set(keys_of(CONFIG_KEYS))
    for section, key, value in WRONG_CONFIG:
        config = json.loads(json.dumps(BASE))
        (config.setdefault(section, {}) if section else config)[key] = value
        code, err = experiment(tmp_path, config, capsys)
        name = f"{section}.{key}" if section else key
        assert code == 1 and name in err, (name, value, err)
    assert {(s, k) for s, k, _ in WRONG_PARAMS} == {
        (scenario, key) for scenario, keys in BOUND_SCENARIOS.items()
        for key in keys}
    for scenario, params in VALID_PARAMS.items():
        assert main(["bounds", "--scenario", scenario,
                     "--params", json.dumps(params)]) == 0
    capsys.readouterr()
    for scenario, key, value in WRONG_PARAMS:
        params = {**VALID_PARAMS[scenario], key: value}
        code = main(["bounds", "--scenario", scenario,
                     "--params", json.dumps(params)])
        err = capsys.readouterr().err
        assert code == 1 and repr(key) in err, (scenario, key, err)


HUGE = 10 ** 400  # more than a float holds


@pytest.mark.parametrize("argv, key", [
    (["bounds", "--scenario", "mv-hds", "--params",
      json.dumps({**VALID_PARAMS["mv-hds"], "M": HUGE})], "'M'"),
    (["bounds", "--scenario", "wmv-hds", "--params",
      json.dumps({**VALID_PARAMS["wmv-hds"], "L": HUGE})], "'L'"),
    (["bounds", "--scenario", "oswmv", "--params",
      json.dumps({"accuracies": [0.95] * 10, "N": 10 ** 200})], "'N'"),
    (["bounds", "--scenario", "wmv-hds", "--params",
      json.dumps({**VALID_PARAMS["wmv-hds"], "L": 10 ** 18})], "'L'"),
    (["experiment", "--config", {**BASE, "trials": HUGE}], "trials"),
], ids=["mv-hds-M", "wmv-hds-L", "oswmv-N", "wmv-hds-L-1e18", "trials"])
def test_huge_counts_exit_1_and_name_the_key(argv, key, tmp_path, capsys):
    if argv[0] == "experiment":
        code, err = experiment(tmp_path, argv[2], capsys)
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 1 and key in err, err


@pytest.mark.parametrize("scenario, params, keys", [
    ("general", {**VALID_PARAMS["general"], "shifts": [1e308, -1e308]},
     ("scores", "shifts")),
    ("wmv-hds", {**VALID_PARAMS["wmv-hds"], "weights": [1e308, 1e308]},
     ("weights",)),
], ids=["general-shifts", "wmv-hds-weights"])
def test_overflowing_bounds_inputs_exit_1_and_name_the_keys(
        scenario, params, keys, capsys):
    code = main(["bounds", "--scenario", scenario, "--params",
                 json.dumps(params)])
    err = capsys.readouterr().err
    assert code == 1 and all(key in err for key in keys), err


def test_missing_required_keys_say_where(tmp_path, capsys):
    dataset = {"scenario": "dataset", "methods": ["mv"],
               "sweep": {"variable": "s", "grid": [1.0]}}
    cases = [({k: v for k, v in BASE.items() if k != "scenario"},
              "the config needs the key 'scenario'"),
             ({k: v for k, v in BASE.items() if k != "methods"},
              "the config needs the key 'methods'"),
             (dataset, "the 'dataset' scenario needs dataset.path"),
             ({**dataset, "dataset": {"path": None}},
              "the 'dataset' scenario needs dataset.path")]
    for config, message in cases:
        assert experiment(tmp_path, config, capsys) == (1, f"error: {message}\n")
    params = {key: value for key, value in VALID_PARAMS["wmv-hds"].items()
              if key != "L"}
    assert main(["bounds", "--scenario", "wmv-hds",
                 "--params", json.dumps(params)]) == 1
    assert "'wmv-hds' --params needs the key 'L'" in capsys.readouterr().err


def test_negative_seeds_exit_1_and_name_the_key(tmp_path, capsys):
    code, err = experiment(tmp_path, {**BASE, "master_seed": -1}, capsys)
    assert code == 1 and "master_seed" in err, err
    labels = tmp_path / "labels.csv"
    labels.write_text("worker,item,label\nw1,i1,1\n")
    for argv in (["simulate", "--workers", "2", "--items", "3", "--seed", "-1",
                  "--out-labels", str(tmp_path / "out.csv")],
                 ["summarize", "--in", str(labels), "--subsample", "0.5",
                  "--seed", "-2"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "non-negative" in err, (argv, err)


def test_zero_trials_exit_1_and_name_the_key(tmp_path, capsys):
    code, err = experiment(tmp_path, {**BASE, "trials": 0}, capsys)
    assert code == 1, err
    assert "trials must be at least 1, got 0" in err, err


@pytest.mark.parametrize("key, value, message, wbar", [
    ("M", 0, "at least one worker is required", None),
    ("N", 0, "dimensions must be positive (and classes >= 2)", None),
    ("L", 1, "at least two classes are required", None),
    ("q", 0, "assignment probabilities must lie in (0, 1]", None),
    ("beta_tol", 0, "tolerance must be positive", None),
    # A given wbar moves beta_a to beta_b * wbar / (1 - wbar), here past
    # the largest float, and so does BASE's swept wbar of 0.7.
    ("beta_b", 1e308, "beta shape parameters must be positive and finite",
     0.7),
    ("beta_b", 1e308, "beta shape parameters must be positive and finite",
     None)])
def test_a_sim_value_the_models_reject_exits_1_and_names_the_key(
        tmp_path, capsys, key, value, message, wbar):
    config = {**BASE, "sim": {**BASE["sim"], key: value}}
    if wbar is not None:  # given, not swept
        config.update(sweep={"variable": "none", "grid": [0.0]})
        config["sim"]["wbar"] = wbar
    assert experiment(tmp_path, config, capsys) == (
        1, f"error: sim.{key}: {message}\n")


@pytest.mark.parametrize("key, value, message", [
    ("M1", 0, "group and set sizes must be positive"),
    ("M2", -1, "group and set sizes must be positive"),
    ("N1", 0, "group and set sizes must be positive"),
    ("N2", 0, "group and set sizes must be positive"),
    ("block", [[0.9, 0.6]], "accuracy block must be 2x2"),
    ("block", [[0.9, 1.5], [0.5, 0.7]], "block accuracies must lie in [0, 1]"),
    ("q", 0, "assignment probability must lie in (0, 1]"),
    ("block", [[0.9, 0.6], [0.5]], "accuracy block must be 2x2")])
def test_a_misspec_value_the_sampler_rejects_exits_1_and_names_the_key(
        tmp_path, capsys, key, value, message):
    config = {"scenario": "misspecified", "methods": ["mv"],
              "misspec": {key: value}}
    assert experiment(tmp_path, config, capsys) == (
        1, f"error: misspec.{key}: {message}\n")


@pytest.mark.parametrize("key, dataset, message", [
    ("L", {"L": 1}, "at least two classes are required"),
    ("binary", {"L": 3, "binary": True},
     "the +/-1 convention only applies to two classes")])
def test_a_dataset_label_set_the_model_rejects_exits_1_and_names_the_key(
        tmp_path, capsys, key, dataset, message):
    config = {"scenario": "dataset", "methods": ["mv"],
              "sweep": {"variable": "s", "grid": [1.0]},
              "dataset": {"path": str(tmp_path / "labels.csv"), **dataset}}
    assert experiment(tmp_path, config, capsys) == (
        1, f"error: dataset.{key}: {message}\n")


def test_every_model_key_has_a_stand_in():
    """The config check reads each key of a section at its stand-in until
    it reaches it, so a key without one would go unchecked."""
    from crowdbounds.harness import _STAND_INS
    assert set(_STAND_INS) == {"sim", "misspec", "dataset"}
    for section in ("sim", "misspec"):
        assert set(_STAND_INS[section]) == set(CONFIG_KEYS[section][2])
    # The dataset scenario's swept rate s is checked with its section.
    assert set(_STAND_INS["dataset"]) <= {*CONFIG_KEYS["dataset"][2], "s"}


@pytest.mark.parametrize("key, grid, message", [
    ("N", [20, 0], "dimensions must be positive (and classes >= 2)"),
    ("q", [0.5, 0], "assignment probabilities must lie in (0, 1]"),
    ("wbar", [0.7, 1.2], "target mean must lie strictly inside (0, 1)")])
def test_a_swept_value_the_models_reject_exits_1_and_names_the_key(
        tmp_path, capsys, key, grid, message):
    config = {**BASE, "sweep": {"variable": key, "grid": grid}}
    assert experiment(tmp_path, config, capsys) == (
        1, f"error: sim.{key}: {message}\n")


def test_a_swept_rate_outside_the_unit_interval_exits_1_before_any_read(
        tmp_path, capsys):
    """The rate is named before the labels file, which does not exist, is
    opened."""
    config = {"scenario": "dataset", "methods": ["mv"],
              "sweep": {"variable": "s", "grid": [0.5, 1.5]},
              "dataset": {"path": str(tmp_path / "missing.csv")}}
    assert experiment(tmp_path, config, capsys) == (
        1, "error: dataset.s: keep probability must lie in [0, 1]\n")


def test_a_section_the_scenario_does_not_read_is_checked(tmp_path, capsys):
    config = {**BASE, "misspec": {"M1": 0}}
    assert experiment(tmp_path, config, capsys) == (
        1, "error: misspec.M1: group and set sizes must be positive\n")


def test_a_sim_value_the_sweep_replaces_is_not_checked(tmp_path, capsys):
    config = {**BASE, "sweep": {"variable": "q", "grid": [0.5]},
              "sim": {**BASE["sim"], "q": 0}}
    assert experiment(tmp_path, config, capsys)[0] == 0


@pytest.mark.parametrize("scenario, key, value, message", [
    ("wmv-hds", "L", 1, "at least two classes are required"),
    ("oswmv", "N", 0, "at least one item is required")])
def test_a_count_the_bounds_reject_exits_1_and_names_the_key(
        capsys, scenario, key, value, message):
    params = {**VALID_PARAMS[scenario], key: value}
    assert main(["bounds", "--scenario", scenario,
                 "--params", json.dumps(params)]) == 1
    assert capsys.readouterr().err == (
        f"error: {scenario!r} --params parameter {key!r}: {message}\n")


def test_wbar_outside_the_unit_interval_exits_1(tmp_path, capsys):
    for wbar in (0.0, 1.0, 1.2):
        grid = {**BASE, "sweep": {"variable": "wbar", "grid": [0.7, wbar]}}
        fixed = {**BASE, "sweep": {"variable": "M", "grid": [5]},
                 "sim": {**BASE["sim"], "wbar": wbar}}
        for config in (grid, fixed):
            code, err = experiment(tmp_path, config, capsys)
            assert code == 1 and "wbar" in err, (config, err)
    assert experiment(tmp_path, {**BASE, "sim": {"wbar": 0.9}},
                      capsys)[0] == 0


def test_spelled_out_defaults_equal_absent_keys(tmp_path, capsys):
    """The defaults README documents are the ones the trials read."""
    labels = tmp_path / "labels.csv"
    labels.write_text("worker,item,label\n" + "".join(
        f"w{w},i{i},{1 + (w * i) % 2}\n" for w in range(4) for i in range(30)))
    defaults = {
        "": {"trials": 1, "master_seed": 0, "record_timing": False,
             "fixed_iterations": None},
        "sweep": {"variable": "none", "grid": [0.0]},
        "sim": {"M": 31, "N": 200, "L": 3, "q": 0.3, "beta_a": 2.3,
                "beta_b": 2.0, "wbar": None, "beta_tol": 0.01},
        "misspec": {"M1": 15, "M2": 15, "N1": 300, "N2": 300,
                    "block": [[0.9, 0.6], [0.5, 0.7]], "q": 0.3},
        "dataset": {"format": "csv-triples", "truth": None, "L": 2,
                    "binary": False},
    }
    methods = ["mv", "wmv", "iwmv", "oswmv", "em-hds", "oracle-map"]
    given = [{"scenario": "hds-sweep", "methods": methods},
             {"scenario": "misspecified", "methods": methods},
             {"scenario": "dataset", "methods": methods,
              "sweep": {"variable": "s", "grid": [1.0]},
              "dataset": {"path": str(labels)}}]
    for config in given:
        spelled = {**defaults[""], **config}
        for section in ("sweep", "sim", "misspec", "dataset"):
            spelled[section] = {**defaults[section], **config.get(section, {})}
        bodies = []
        for name, raw in (("given", config), ("spelled", spelled)):
            stem = tmp_path / name
            code, _ = experiment(tmp_path, {**raw, "output": str(stem)}, capsys)
            assert code == 0, raw
            bodies.append([Path(f"{stem}{suffix}").read_bytes().split(b"\n", 1)[1]
                           for suffix in (".csv", ".jsonl")])
        assert bodies[0] == bodies[1], config["scenario"]


def readme_config_tables():
    """{section: {key: (kind, default)}} from README's config key tables."""
    tables, section = {}, None
    for line in README.read_text().splitlines():
        heading = re.fullmatch(r"#### (Top level|`(\w+)`)", line)
        if heading:
            section = tables.setdefault(heading[2] or "", {})
        elif line.startswith("#"):
            section = None
        elif section is not None and line.startswith("| `"):
            key, kind, default = [cell.strip() for cell in line.split("|")[1:4]]
            section[key.strip("`")] = (
                kind, REQUIRED if default == "required"
                else json.loads(default.strip("`")))
    return tables


def test_readme_lists_the_config_keys():
    code = {}
    for section, key in keys_of(CONFIG_KEYS):
        table = CONFIG_KEYS if not section else CONFIG_KEYS[section][2]
        kind, default = table[key][:2]
        code.setdefault(section, {})[key] = (
            kind, default if default is REQUIRED
            else json.loads(json.dumps(default)))
    assert readme_config_tables() == code


def test_readme_lists_the_bounds_params():
    """Each README row names the scenario's keys; a key without a kind is of
    kind numbers, and ``?`` marks the keys that have a default."""
    rows = {}
    for line in README.read_text().splitlines():
        row = re.fullmatch(r"\| `([\w-]+)` +\| (.*) \|", line)
        if row and row[1] in BOUND_SCENARIOS:
            rows[row[1]] = {
                key: (kind or "numbers", optional == "?")
                for key, optional, kind in re.findall(
                    r"`(\w+)`(\??)(?: ([a-z]+))?", row[2])}
    assert rows == {
        scenario: {key: (kind, default is not REQUIRED)
                   for key, (kind, default) in keys.items()}
        for scenario, keys in BOUND_SCENARIOS.items()}
