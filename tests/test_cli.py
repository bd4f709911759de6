import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsewalk
from sparsewalk import cli
from sparsewalk.cli import build_parser, main
from sparsewalk.config import (
    check_experiment,
    kernel_from_config,
    load_config,
    potential_from_config,
)
from sparsewalk.gibbs import fk_semigroup
from sparsewalk.lattice import LatticeBox

SIMPLE = {"kernel": {"preset": "simple1d"}}
DELTA = {"potential": {"type": "explicit", "sites": [[0, 1.0]]}}
ANCHORED = {"potential": {"type": "geometric", "v": 1.0, "base": 3, "anchor": [0, 2.0]}}
RANGE2_1D = [[2, 0.25], [-2, 0.25], [1, 0.25], [-1, 0.25]]


def _write(tmp_path, name, payload) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_validate_subcommand(tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"kernel": {"preset": "simple1d"}})
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["results"]["spectrum_lower"] == pytest.approx(-1.0)
    assert (out / "kernel.csv").read_text().startswith("offset,probability")


def test_green_deterministic_outputs(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {"kernel": {"preset": "simple1d"}, "lambdas": [1.25, 2.0], "xs": [0, 1, 2]},
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["green", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["green", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "green.csv").read_bytes() == (out2 / "green.csv").read_bytes()
    body = (out1 / "green.csv").read_text()
    assert "1.25" in body and "0.6666666" in body


def test_include_mechanism(tmp_path):
    _write(tmp_path, "presets.json", {"kernel": {"preset": "lazy1d", "q": 0.25}, "xs": [0]})
    cfg = _write(tmp_path, "cfg.json", {"include": "presets.json", "lambdas": [-2.0]})
    out = tmp_path / "out"
    assert main(["green", "--config", str(cfg), "--out", str(out)]) == 0
    assert "-2.0" in (out / "green.csv").read_text()


def test_spectrum_subcommand(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"preset": "simple1d"},
            "potential": {"type": "explicit", "sites": [[0, 1.0]]},
            "L_sequence": [20, 30, 40],
        },
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[:3] == ["L", "r", "ell"]
    assert len(rows) == 4
    r_final = float(rows[-1].split(",")[1])
    assert abs(r_final - 1.1547005383792515) < 1e-6
    eigen = json.loads((out / "eigenvalues.json").read_text())
    assert set(eigen) == {"20", "30", "40"}


def test_spectrum_subcommand_small_boxes(tmp_path):
    # boxes narrower than the default decay fit window (t up to 12)
    cfg = _write(tmp_path, "cfg.json", {"kernel": {"preset": "simple1d"}, "L_sequence": [10, 11]})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.json").exists()


def test_missing_seed_is_config_error(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"preset": "simple1d"},
            "potential": {"type": "explicit", "sites": [[0, 1.0]]},
            "n": 6,
            "samples": 2000,
        },
    )
    assert main(["fk", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_seed_flag_restores_determinism(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"preset": "simple1d"},
            "potential": {"type": "explicit", "sites": [[0, 1.0]]},
            "n": 6,
            "samples": 2000,
        },
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["fk", "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["fk", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    assert (out1 / "fk.csv").read_bytes() == (out2 / "fk.csv").read_bytes()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_flag_out_of_range_is_config_error(tmp_path, capsys, seed):
    cfg = _write(tmp_path, "cfg.json", {**SIMPLE, **DELTA, "n": 6, "samples": 2000})
    out = tmp_path / "out"
    assert main(["fk", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
    assert capsys.readouterr().err.startswith("config error: 'seed' must be")
    assert not (out / "summary.json").exists()


def test_fk_exact_column_is_the_semigroup_of_each_m(tmp_path):
    # oracle: fk_semigroup applied m times from scratch, bit for bit
    payload = {**SIMPLE, **DELTA, "n": 6, "samples": 2000}
    out = tmp_path / "out"
    cfg = _write(tmp_path, "cfg.json", payload)
    assert main(["fk", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    rows = list(csv.reader(io.StringIO((out / "fk.csv").read_text())))[1:]
    kernel, spec = kernel_from_config(payload), potential_from_config(payload, 1)
    box = LatticeBox.cube(6 + 2, 1)
    assert [int(row[0]) for row in rows] == list(range(7))
    for m, row in enumerate(rows):
        exact = fk_semigroup(kernel, spec, np.ones(box.shape), m, box)[(box.radius,)]
        assert row[1] == repr(float(exact)), m


def test_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    missing = tmp_path / "missing.json"
    assert main(["validate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    cfg = _write(tmp_path, "nokernel.json", {"lambdas": [2.0]})
    assert main(["green", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


#: (experiment, {file name: config}, text the error line must hold);
#: the first file is the one passed to --config
MALFORMED = {
    "potential without type": (
        "spectrum",
        {"cfg.json": {**SIMPLE, "potential": {"v": 2.0}, "L_sequence": [20, 30]}},
        "needs a 'type'",
    ),
    "self include": (
        "validate",
        {"cfg.json": {**SIMPLE, "include": "cfg.json"}},
        "cfg.json -> cfg.json",
    ),
    "include cycle": (
        "validate",
        {
            "cfg.json": {"include": "a.json"},
            "a.json": {"include": "b.json"},
            "b.json": {**SIMPLE, "include": "a.json"},
        },
        "a.json -> b.json -> a.json",
    ),
    "one-entry L_sequence": (
        "spectrum",
        {"cfg.json": {**SIMPLE, "L_sequence": [40]}},
        "at least two box radii",
    ),
    "bs with alpha 0": (
        "bs",
        {"cfg.json": {**SIMPLE, **DELTA, "lambda_lo": 1.05, "lambda_hi": 1.35, "alpha": 0}},
        "'alpha' must be positive",
    ),
    "decay with alpha 0": (
        "decay",
        {"cfg.json": {**SIMPLE, **DELTA, "alpha": 0}},
        "'alpha' must be positive",
    ),
    "bs with non-numeric alpha": (
        "bs",
        {"cfg.json": {**SIMPLE, **DELTA, "lambda_lo": 1.05, "lambda_hi": 1.35, "alpha": "half"}},
        "'alpha' must be a number, got 'half'",
    ),
    "bs with scan_points 0": (
        "bs",
        {"cfg.json": {**SIMPLE, **DELTA, "lambda_lo": 1.05, "lambda_hi": 1.35, "scan_points": 0}},
        "'scan_points' must be at least 1",
    ),
    "decay with one-entry fit_window": (
        "decay",
        {"cfg.json": {**SIMPLE, **DELTA, "fit_window": [10]}},
        "'fit_window' must be a list of 2 numbers",
    ),
    "fractional box radius": (
        "spectrum",
        {"cfg.json": {**SIMPLE, "L_sequence": [20, 30.5]}},
        "'L_sequence' must be an integer, got 30.5",
    ),
    "fk with 500 samples": (
        "fk",
        {"cfg.json": {**SIMPLE, **DELTA, "n": 6, "samples": 500, "seed": 1}},
        "'samples' must be at least 1000, got 500",
    ),
    "fk with n -1": (
        "fk",
        {"cfg.json": {**SIMPLE, **DELTA, "n": -1, "samples": 2000, "seed": 1}},
        "'n' must be at least 0, got -1",
    ),
    "doob with steps -1": (
        "doob",
        {"cfg.json": {**SIMPLE, **ANCHORED, "steps": -1, "seed": 1}},
        "'steps' must be at least 0, got -1",
    ),
    "gibbs with reversed n_range": (
        "gibbs",
        {"cfg.json": {**SIMPLE, **ANCHORED, "n_range": [60, 10]}},
        "'n_range' [60, 10] must satisfy k = 1 < lo <= hi",
    ),
    "gibbs with k 0": (
        "gibbs",
        {"cfg.json": {**SIMPLE, **ANCHORED, "k": 0}},
        "'k' must be at least 1, got 0",
    ),
    "gibbs with a 2d indicator site in 1d": (
        "gibbs",
        {"cfg.json": {**SIMPLE, **ANCHORED, "indicator_site": [1, 0]}},
        "'indicator_site' must be a list of 1 numbers, got [1, 0]",
    ),
    "decay with L below the fit window": (
        "decay",
        {"cfg.json": {**SIMPLE, **DELTA, "L": 10}},
        "'fit_window' [10, 18] must lie in [0, L] = [0, 10]",
    ),
    "bs with box_radius -3": (
        "bs",
        {"cfg.json": {**SIMPLE, **DELTA, "lambda_lo": 1.05, "lambda_hi": 1.35, "box_radius": -3}},
        "'box_radius' must be at least 1, got -3",
    ),
    "decay with box_radius -5": (
        "decay",
        {"cfg.json": {**SIMPLE, **DELTA, "box_radius": -5}},
        "'box_radius' must be at least 1, got -5",
    ),
    "decay with a three-site fit_window": (
        "decay",
        {"cfg.json": {**SIMPLE, **DELTA, "fit_window": [10, 12]}},
        "'fit_window' [10, 12] must lie in [0, L] = [0, 80] and span at least 8 sites",
    ),
    "gibbs with eigen_tol 0": (
        "gibbs",
        {"cfg.json": {**SIMPLE, **ANCHORED, "eigen_tol": 0}},
        "unknown key(s) ['eigen_tol'] for 'gibbs'",
    ),
    "doob with eigen_tol -1": (
        "doob",
        {"cfg.json": {**SIMPLE, **ANCHORED, "eigen_tol": -1, "seed": 1}},
        "unknown key(s) ['eigen_tol'] for 'doob'",
    ),
    "doob with dump_path": (
        "doob",
        {"cfg.json": {**SIMPLE, **ANCHORED, "dump_path": True, "seed": 1}},
        "unknown key(s) ['dump_path'] for 'doob'",
    ),
    "potential type zero": (
        "spectrum",
        {"cfg.json": {**SIMPLE, "potential": {"type": "zero"}, "L_sequence": [20, 30]}},
        "unknown potential type 'zero'",
    ),
    "potential type decaying": (
        "spectrum",
        {
            "cfg.json": {
                **SIMPLE,
                "potential": {"type": "decaying", "sites": [[0, 1.0]]},
                "L_sequence": [20, 30],
            }
        },
        "unknown potential type 'decaying'",
    ),
    "spectrum with one radius twice": (
        "spectrum",
        {"cfg.json": {**SIMPLE, "L_sequence": [40, 40]}},
        "'L_sequence' needs at least two box radii that differ, got [40, 40]",
    ),
    "fk with the misspelled key sample": (
        "fk",
        {"cfg.json": {**SIMPLE, **DELTA, "n": 6, "sample": 500, "seed": 1}},
        "unknown key(s) ['sample'] for 'fk'",
    ),
    "lazy1d with q 1": (
        "validate",
        {"cfg.json": {"kernel": {"preset": "lazy1d", "q": 1.0}}},
        "lazy1d preset: q must lie in [0, 1), got 1.0",
    ),
    "kernel section that is a number": (
        "validate",
        {"cfg.json": {"kernel": 5}},
        "'kernel' section must be a JSON object, got 5",
    ),
    "potential section that is a number": (
        "essential",
        {"cfg.json": {**SIMPLE, "potential": 3}},
        "'potential' section must be a JSON object, got 3",
    ),
    "simple1d preset with a q": (
        "validate",
        {"cfg.json": {"kernel": {"preset": "simple1d", "q": 0.3}}},
        "unknown key(s) ['q'] in the 'kernel' section for 'simple1d'; allowed: preset",
    ),
    "geometric potential with the misspelled key vv": (
        "essential",
        {"cfg.json": {**SIMPLE, "potential": {"type": "geometric", "vv": 3.0}}},
        "unknown key(s) ['vv'] in the 'potential' section for 'geometric'",
    ),
    "gibbs with an indicator site S_1 cannot hit": (
        "gibbs",
        {"cfg.json": {**SIMPLE, **ANCHORED, "indicator_site": [5]}},
        "'indicator_site' [5] is not a one-step move of the kernel",
    ),
    "gibbs with L 2": (
        "gibbs",
        {"cfg.json": {**SIMPLE, **ANCHORED, "L": 2}},
        "'L' must be at least 4, got 2",
    ),
    "doob with L -3": (
        "doob",
        {"cfg.json": {**SIMPLE, **ANCHORED, "L": -3, "seed": 1}},
        "'L' must be at least 4, got -3",
    ),
    "decay under a range-2 kernel with L 7": (
        "decay",
        {"cfg.json": {"kernel": {"offsets": RANGE2_1D}, **DELTA, "L": 7, "fit_window": [0, 7]}},
        "'L' must be at least 8, got 7",
    ),
    "spectrum with L_sequence below the floor": (
        "spectrum",
        {"cfg.json": {**SIMPLE, "L_sequence": [2, 3]}},
        "'L_sequence' must be at least 4, got 2",
    ),
    "spectrum under a range-2 kernel with L_sequence below 8": (
        "spectrum",
        {"cfg.json": {"kernel": {"offsets": RANGE2_1D}, "L_sequence": [7, 20]}},
        "'L_sequence' must be at least 8, got 7",
    ),
    "dense potential with box_radius 0": (
        "fk",
        {
            "cfg.json": {
                **SIMPLE,
                "potential": {"type": "dense", "v": 0.5, "box_radius": 0},
                "n": 6,
                "samples": 2000,
                "seed": 1,
            }
        },
        "'box_radius' must be at least 1, got 0",
    ),
    "geometric potential with base 3.7": (
        "essential",
        {"cfg.json": {**SIMPLE, "potential": {"type": "geometric", "base": 3.7}}},
        "'base' must be an integer, got 3.7",
    ),
    "geometric potential with v true": (
        "essential",
        {"cfg.json": {**SIMPLE, "potential": {"type": "geometric", "v": True}}},
        "'v' must be a number, got True",
    ),
    "geometric potential with box_radius 40.9": (
        "essential",
        {"cfg.json": {**SIMPLE, "potential": {"type": "geometric", "box_radius": 40.9}}},
        "'box_radius' must be an integer, got 40.9",
    ),
    "explicit potential with a fractional site": (
        "essential",
        {"cfg.json": {**SIMPLE, "potential": {"type": "explicit", "sites": [[2.6, 1.0]]}}},
        "'sites' must be an integer, got 2.6",
    ),
    "explicit potential with essential value true": (
        "essential",
        {
            "cfg.json": {
                **SIMPLE,
                "potential": {
                    "type": "explicit",
                    "sites": [[2, 1.0]],
                    "tail": "sparse",
                    "essential_values": [True],
                },
            }
        },
        "'essential_values' must be a number, got True",
    ),
    "kernel offsets with a fractional coordinate": (
        "validate",
        {"cfg.json": {"kernel": {"offsets": [[1.4, 0.5], [-1, 0.5]]}}},
        "'offsets' must be an integer, got 1.4",
    ),
    "kernel offsets with dimension true": (
        "validate",
        {"cfg.json": {"kernel": {"offsets": [[1, 0.5], [-1, 0.5]], "dimension": True}}},
        "'dimension' must be a number, got True",
    ),
    "fk with seed -1": (
        "fk",
        {"cfg.json": {**SIMPLE, **DELTA, "n": 6, "samples": 2000, "seed": -1}},
        "'seed' must be at least 0, got -1",
    ),
    "green with lambda NaN": (
        "green",
        {"cfg.json": {**SIMPLE, "lambdas": [float("nan")]}},
        "'lambdas' must be finite, got nan",
    ),
    "green with lambda Infinity": (
        "green",
        {"cfg.json": {**SIMPLE, "lambdas": [2.0, float("inf")]}},
        "'lambdas' must be finite, got inf",
    ),
    "geometric potential with v NaN": (
        "essential",
        {"cfg.json": {**SIMPLE, "potential": {"type": "geometric", "v": float("nan")}}},
        "'v' must be finite, got nan",
    ),
    "green with a 3d displacement under simple2d": (
        "green",
        {"cfg.json": {"kernel": {"preset": "simple2d"}, "lambdas": [2.0], "xs": [[1, 2, 3]]}},
        "'xs' must be a list of 2 numbers, got [1, 2, 3]",
    ),
    "green with a 2d displacement under simple1d": (
        "green",
        {"cfg.json": {**SIMPLE, "lambdas": [2.0], "xs": [[1, 2]]}},
        "'xs' must be a list of 1 numbers, got [1, 2]",
    ),
    "doob with seed 2**64": (
        "doob",
        {"cfg.json": {**SIMPLE, **ANCHORED, "steps": 10, "seed": 2**64}},
        "'seed' must be below 2**64, got 18446744073709551616",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_table(tmp_path, capsys, case):
    kind, files, needle = MALFORMED[case]
    for name, payload in files.items():
        _write(tmp_path, name, payload)
    out = tmp_path / "out"
    assert main([kind, "--config", str(tmp_path / next(iter(files))), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert needle in err
    assert not (out / "summary.json").exists()


#: every experiment of demos/configs and the config it runs on
DEMO_RUNS = [
    ("validate", "presets.json"),
    ("green", "green_lazy.json"),
    ("bs", "bs_scan.json"),
    ("spectrum", "spectrum_anchor.json"),
    ("essential", "presets.json"),
    ("decay", "presets.json"),
    ("gibbs", "presets.json"),
    ("doob", "presets.json"),
    ("fk", "fk_delta.json"),
]


@pytest.mark.parametrize("kind, name", DEMO_RUNS)
def test_demo_configs_hold_only_known_keys(kind, name):
    cfg = load_config(Path(__file__).resolve().parent.parent / "demos" / "configs" / name)
    cfg["experiment"] = kind
    cfg.setdefault("seed", 1)
    assert check_experiment(cfg) == kind
    # every key of the kernel and potential sections is one its kind reads
    potential_from_config(cfg, kernel_from_config(cfg).dimension)


@pytest.mark.parametrize("kind", ["none"])
def test_potential_type_none_means_free_walk(tmp_path, kind):
    cfg = _write(tmp_path, "cfg.json", {**SIMPLE, "potential": {"type": kind}, "L_sequence": [20, 30]})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["results"]["lambda0"] is None


def test_decay_covers_the_discrete_spectrum_below_the_hull(tmp_path):
    # lazy1d(0.3) is not bipartite: three discrete eigenvalues lie below
    # lambda_- = -0.4327 and are not the negatives of the three above
    cfg = _write(tmp_path, "cfg.json", {"kernel": {"preset": "lazy1d", "q": 0.3}, **ANCHORED})
    out = tmp_path / "out"
    assert main(["decay", "--config", str(cfg), "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "decay.csv").read_text())))
    expected = (-0.6734, -0.4418, -0.4329, 1.2334, 1.2842, 2.0433)
    assert [float(row["eigenvalue"]) for row in rows] == pytest.approx(expected, abs=1e-4)
    assert all(float(row["decay_rate"]) > 0.0 for row in rows)
    assert json.loads((out / "summary.json").read_text())["results"]["discrete_count"] == 6


def test_unknown_suite_name(tmp_path):
    assert main(["suite", "wrong-name", "--out", str(tmp_path / "s")]) == 2


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    missing = str(tmp_path / "missing.json")
    assert main(["validate", "--config", missing]) == 2
    assert main(["green", "--config", missing, "--out", str(tmp_path / "g")]) == 2
    assert main(["suite", "wrong-name", "--out", str(tmp_path / "s")]) == 2
    assert len(built) == 1


def test_suite_subset_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "suite"
    assert main(["suite", "paper-repro", "--only", "1", "2", "--out", str(out)]) == 0
    text = (out / "suite.csv").read_text()
    assert "PASS" in text and "green oracle agreement" in text
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["1"]["passed"] is True
    captured = capsys.readouterr()
    assert "[PASS] criterion 01" in captured.out
    # idempotent artifacts: a second run is byte-identical
    out2 = tmp_path / "suite2"
    assert main(["suite", "paper-repro", "--only", "1", "2", "--out", str(out2)]) == 0
    assert (out / "suite.csv").read_bytes() == (out2 / "suite.csv").read_bytes()
    assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_green_grid_floor_fails_with_one_line(tmp_path, capsys):
    # the floor of resolvent._green_levels, read as a config bound
    cfg = _write(
        tmp_path,
        "cfg.json",
        {"kernel": {"preset": "simple1d"}, "lambdas": [1.25], "pts_per_axis": 32},
    )
    assert main(["green", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "'pts_per_axis' must be at least 64, got 32" in err
    assert err.count("\n") == 1
    cfg = _write(
        tmp_path,
        "cfg.json",
        {"kernel": {"preset": "simple1d"}, "lambdas": [1.25], "pts_per_axis": 64},
    )
    assert main(["green", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


#: experiment -> its required keys, for the dense 2d box above DENSE_CAP
DENSE_OVER_CAP = {
    "essential": {},
    "spectrum": {"L_sequence": [4, 6]},
    "bs": {"lambda_lo": 2.0, "lambda_hi": 3.0},
    "decay": {},
}


@pytest.mark.parametrize("kind", sorted(DENSE_OVER_CAP))
def test_dense_support_above_the_cap_fails_with_one_line(tmp_path, capsys, kind):
    # a 2d dense box of radius 40 holds 6561 > DENSE_CAP support sites; the
    # pair and profile matrices on them are refused before any allocation
    dense = {"type": "dense", "v": 1.0, "box_radius": 40}
    cfg = _write(
        tmp_path,
        "cfg.json",
        {"kernel": {"preset": "simple2d"}, "potential": dense, **DENSE_OVER_CAP[kind]},
    )
    assert main([kind, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: ")
    assert "BoxTooLarge" in err and "6561" in err
    assert err.count("\n") == 1


def test_gibbs_subcommand_needs_no_seed(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"preset": "lazy1d", "q": 0.3},
            "potential": {"type": "geometric", "v": 1.0, "base": 3, "anchor": [0, 2.0]},
            "L": 40,
            "n_range": [8, 20],
        },
    )
    out = tmp_path / "out"
    assert main(["gibbs", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert 0.0 < summary["results"]["fitted_eps"] < 1.0
    header = (out / "gibbs.csv").read_text().splitlines()[0]
    assert header == "n,D_n,fitted_eps"


def test_essential_non_sparse_fails_with_one_line(tmp_path, capsys):
    # declared sparse, but value 1 on every even site of Q(0, 64)
    potential = {
        "type": "explicit",
        "sites": [[x, 1.0] for x in range(-64, 65, 2)],
        "tail": "sparse",
        "essential_values": [1.0],
        "box_radius": 64,
    }
    cfg = _write(tmp_path, "cfg.json", {"kernel": {"preset": "lazy1d", "q": 0.25}, "potential": potential})
    out = tmp_path / "out"
    assert main(["essential", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("experiment failed: ")
    assert "NotSparse" in err and "Traceback" not in err
    assert err.count("\n") == 1
    assert not (out / "summary.json").exists()


def test_essential_subcommand(tmp_path):
    cfg = _write(
        tmp_path,
        "cfg.json",
        {
            "kernel": {"preset": "simple1d"},
            "potential": {"type": "geometric", "v": 1.0, "base": 3},
        },
    )
    out = tmp_path / "out"
    assert main(["essential", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["lambda0"] == pytest.approx(1.1547005383792515, abs=1e-8)


DEMO_RUNS = (
    ("validate", "presets.json"),
    ("green", "green_lazy.json"),
    ("bs", "bs_scan.json"),
    ("spectrum", "spectrum_anchor.json"),
    ("essential", "presets.json"),
    ("decay", "presets.json"),
    ("gibbs", "presets.json"),
    ("doob", "presets.json"),
    ("fk", "fk_delta.json"),
)


def test_demo_artifacts_hold_no_numpy_reprs(tmp_path):
    # a NumPy scalar written by repr() reads np.float64(...) under NumPy 2
    configs = Path(__file__).resolve().parent.parent / "demos" / "configs"
    for kind, name in DEMO_RUNS:
        out = tmp_path / kind
        argv = [kind, "--config", str(configs / name), "--out", str(out)]
        if kind in ("doob", "fk"):
            argv += ["--seed", "12345"]
        assert main(argv) == 0, kind
        for path in out.iterdir():
            assert "np." not in path.read_text(), f"{kind}/{path.name}"


#: imports the package with mpmath unimportable, then runs criterion 5 and
#: the demo experiments; argv: configs dir, output dir, DEMO_RUNS as JSON
NO_MPMATH = """
import json, sys
sys.modules["mpmath"] = None  # any import of mpmath now raises ImportError
import sparsewalk
from sparsewalk import acceptance
from sparsewalk.cli import main
assert acceptance.run_criterion(5).passed
configs, out, runs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
for kind, name in runs:
    argv = [kind, "--config", f"{configs}/{name}", "--out", f"{out}/{kind}"]
    if kind in ("doob", "fk"):
        argv += ["--seed", "12345"]
    assert main(argv) == 0, kind
"""


def test_runs_without_mpmath(tmp_path):
    # numpy is the only runtime dependency; mpmath serves the tests alone
    configs = Path(__file__).resolve().parent.parent / "demos" / "configs"
    src = str(Path(sparsewalk.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-c", NO_MPMATH, str(configs), str(tmp_path), json.dumps(DEMO_RUNS)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    for kind, _ in DEMO_RUNS:
        assert (tmp_path / kind / "summary.json").is_file(), kind
