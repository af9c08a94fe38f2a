import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetconv import cli
from hetconv.graph import Schema
from hetconv.interpret import summary_to_json
from hetconv.io import load_graph

from conftest import dblp_reference_summary


GEN_SPEC = {
    "counts": {"A": 40, "P": 130, "C": 8, "T": 60},
    "n_classes": 4,
    "noise": 0.0,
    "feature_dim": 12,
    "seed": 0,
    "edges": [
        {"picker": "P", "picked": "C", "dist": "const", "value": 1},
        {"picker": "A", "picked": "P", "dist": "powerlaw", "exponent": 2.0,
         "min_degree": 3, "max_degree": 12},
        {"picker": "P", "picked": "T", "dist": "powerlaw"},
    ],
}

TRAIN_CFG = {
    "layer_widths": [8, 4],
    "d_a": 4,
    "max_epochs": 6,
    "patience": 6,
    "seed": 0,
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(GEN_SPEC))
    out = root / "data"
    code = cli.main(
        ["generate", "--spec", str(spec_path), "--out", str(out),
         "--train-fraction", "40"]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "config.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    code = cli.main(
        ["train", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def huge_dir(data_dir, tmp_path_factory):
    """The CLI graph with every value of ``features_A`` set to 1e200."""
    out = tmp_path_factory.mktemp("huge") / "data"
    shutil.copytree(data_dir, out)
    feats = out / "features_A.npy"
    np.save(feats, np.full_like(np.load(feats), 1e200))
    return out


def run_cli(args, **env):
    """``hetconv`` in a fresh interpreter, so an uncaught error prints its traceback."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "hetconv.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestUsageErrors:
    def test_missing_required_flag_exits_one(self, capsys):
        assert cli.main(["train"]) == cli.EXIT_USAGE
        assert "required" in capsys.readouterr().err

    def test_unknown_subcommand_exits_one(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "args, option",
        [
            (["benchmark", "--scales", "2"], "--scales"),
            (["benchmark", "--repeats", "1"], "--repeats"),
            # text that does not parse as the option's number
            (["explain", "--target", "A", "--top-k", "1.5"], "--top-k"),
            (["generate", "--spec", "s", "--out", "o", "--train-fraction", "nan"],
             "--train-fraction"),
            (["verify", "--data", "d", "--max-objects", "x"], "--max-objects"),
            (["verify", "--data", "d", "--max-features", "2.5"], "--max-features"),
            (["verify", "--data", "d", "--max-objects", "0"], "--max-objects"),
            (["verify", "--data", "d", "--max-features", "0"], "--max-features"),
            (["generate", "--spec", "s", "--out", "o", "--train-fraction", "150"],
             "--train-fraction"),
            (["explain", "--target", "A", "--top-k", "-2"], "--top-k"),
            (["explain", "--target", "A", "--per-object", "--max-tracked", "0"],
             "--max-tracked"),
            (["explain", "--target", "A", "--max-tracked", "-1"], "--max-tracked"),
        ],
    )
    def test_bad_numeric_option_exits_one(self, capsys, args, option):
        assert cli.main(args) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err
        assert f"'{args[-1]}'" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["gradcheck", "--data", "d"], "invalid choice: 'gradcheck'"),
            (["explain", "--target", "A", "--tsv", "r.tsv"], "unrecognized arguments: --tsv"),
            (["benchmark", "--csv", "b.csv"], "unrecognized arguments: --csv"),
        ],
    )
    def test_removed_entry_points_exit_one(self, capsys, args, message):
        assert cli.main(args) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            # the files named do not exist: the check comes before any load
            (["--model", "m", "--data", "d", "--per-object"], "--per-object needs --out"),
            (["--summary", "s", "--per-object", "--out", "o"],
             "--per-object needs --model and --data"),
            (["--summary", "s", "--model", "m", "--data", "d", "--per-object", "--out", "o"],
             "--per-object needs --model and --data"),
        ],
    )
    def test_per_object_conflicts_exit_one(self, capsys, args, message):
        assert cli.main(["explain", "--target", "A", *args]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_bad_thread_count_exits_one(self, data_dir):
        proc = run_cli(["verify", "--data", str(data_dir)], HETCONV_THREADS="x")
        assert proc.returncode == cli.EXIT_USAGE
        assert "HETCONV_THREADS" in proc.stderr and "'x'" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestBadInputExitsData:
    @pytest.mark.parametrize(
        "name, body, message",
        [
            ("labels_A.tsv", "0\t1\n-1\t0\n", "labels_A.tsv:2: object index -1 out of range"),
            ("labels_A.tsv", "40\t0\n", "labels_A.tsv:1: object index 40 out of range"),
            ("labels_A.tsv", "0\t-1\n", "labels_A.tsv:1: negative class -1"),
            ("labels_A.tsv", "0 1\n", "labels_A.tsv:1: expected 2 fields"),
            ("edges_A_P.tsv", "0\t130\t1\n", "edges_A_P.tsv:1: target index 130 out of range"),
            ("edges_A_P.tsv", "1.0\t0\t1\n", "edges_A_P.tsv:1: source index is not an integer"),
            ("edges_A_P.tsv", "0\t0\tnan\n", "edges_A_P.tsv:1: non-finite weight"),
            ("edges_A_P.tsv", "0\t0\t1\n1\t0\t0\n", "edges_A_P.tsv:2: non-positive weight 0.0"),
            ("split_A.json", '{"train": [999], "test": [1]}',
             "type A split train: index 999 outside [0, 40)"),
            ("split_A.json", '{"train": [0, 1], "val": [2], "test": [1, 3]}',
             "type A: split parts train and test share 1 objects"),
            ("split_A.json", '{"train": [0, 1], "test": [2, 3, 2]}',
             "type A split test: index 2 listed more than once"),
            ("split_P.json", '{"train": [0]}', "type P split train: 1 unlabeled objects"),
            ("split_A.json", '{"train": [0,\n', "split_A.json: Expecting value"),
            ("schema.json", '{"types": ["A", "P', "schema.json: Unterminated string"),
            ("features_A.npy", "garbage",
             "features_A.npy: not a NumPy .npy or .npz file (no NumPy magic)"),
        ],
    )
    def test_bad_graph_file(self, data_dir, tmp_path, name, body, message):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        (broken / name).write_text(body)
        proc = run_cli(["verify", "--data", str(broken)])
        assert proc.returncode == cli.EXIT_DATA
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "allow_pickle" not in proc.stderr

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_missing_checkpoint(self, data_dir, tmp_path, command):
        missing = tmp_path / "no_model"
        args = [command, "--model", str(missing), "--data", str(data_dir)]
        proc = run_cli(args + (["--target", "A"] if command == "explain" else []))
        assert proc.returncode == cli.EXIT_DATA
        assert str(missing) in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["evaluate", "explain"])
    def test_feature_width_mismatch(self, data_dir, run_dir, tmp_path, command):
        narrow = tmp_path / "narrow"
        shutil.copytree(data_dir, narrow)
        feats = narrow / "features_A.npy"
        np.save(feats, np.load(feats)[:, :8])
        ckpt = run_dir / "model"
        args = [command, "--model", str(ckpt), "--data", str(narrow)]
        proc = run_cli(args + (["--target", "A"] if command == "explain" else []))
        assert proc.returncode == cli.EXIT_DATA
        assert (
            f"checkpoint {ckpt}: type A takes input width {GEN_SPEC['feature_dim']}, "
            "but the data's features_A has width 8"
        ) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_truncated_parameter_file(self, data_dir, run_dir, tmp_path):
        ckpt = tmp_path / "model"
        shutil.copytree(run_dir / "model", ckpt)
        param = ckpt / "model.npz"
        param.write_bytes(param.read_bytes()[: param.stat().st_size // 2])
        proc = run_cli(["evaluate", "--model", str(ckpt), "--data", str(data_dir)])
        assert proc.returncode == cli.EXIT_DATA
        assert param.name in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_checkpoint_array_names(self, data_dir, run_dir, tmp_path, change):
        ckpt = tmp_path / "model"
        shutil.copytree(run_dir / "model", ckpt)
        with np.load(ckpt / "model.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        if change == "missing":
            del arrays["L2_A_self"]
        else:
            arrays["L9_A_self"] = np.zeros((2, 2))
        np.savez(ckpt / "model.npz", **arrays)
        proc = run_cli(["evaluate", "--model", str(ckpt), "--data", str(data_dir)])
        assert proc.returncode == cli.EXIT_DATA
        want = {
            "missing": "missing arrays ['L2_A_self'], unexpected arrays []",
            "extra": "missing arrays [], unexpected arrays ['L9_A_self']",
        }[change]
        assert f"model.npz: {want}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_old_tsv_graph_layout(self, data_dir, tmp_path):
        old = tmp_path / "old"
        shutil.copytree(data_dir, old)
        feats = np.load(old / "features_A.npy")
        (old / "features_A.npy").unlink()
        np.savetxt(old / "features_A.tsv", feats, fmt="%.17g", header=f"{len(feats)} 12",
                   comments="")
        proc = run_cli(["verify", "--data", str(old)])
        assert proc.returncode == cli.EXIT_DATA
        assert "features_A.tsv: features in the old dense-TSV layout" in proc.stderr
        assert "np.loadtxt" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_old_tsv_checkpoint_layout(self, data_dir, run_dir, tmp_path):
        ckpt = tmp_path / "model"
        shutil.copytree(run_dir / "model", ckpt)
        (ckpt / "model.npz").unlink()
        (ckpt / "L2_A_self.tsv").write_text("1 1\n0\n")
        proc = run_cli(["evaluate", "--model", str(ckpt), "--data", str(data_dir)])
        assert proc.returncode == cli.EXIT_DATA
        assert "checkpoint in the old layout" in proc.stderr
        assert "Traceback" not in proc.stderr


# (case, file content: None for no file, "dir" for a directory, message)
BAD_JSON_FILES = [
    ("missing", None, "No such file or directory"),
    ("directory", "dir", "Is a directory"),
    ("non-utf8", b'{"seed": "\xff"}', "can't decode byte 0xff"),
    ("invalid", b'{"seed": ', "Expecting value"),
    ("nested-list", b"[[1]]", "expected a JSON object, got list"),
    ("string", b'"x"', "expected a JSON object, got str"),
]

# keys that replace TRAIN_CFG's, and the message naming the bad field
BAD_CONFIG_FIELDS = [
    ({"layer_widths": "64"}, "layer_widths must be a non-empty list of integers, got '64'"),
    ({"layer_widths": [1.5, 2.9]}, "layer_widths[0] must be an integer >= 1, got 1.5"),
    ({"mean_variant": "no"}, "mean_variant must be true or false, got 'no'"),
    ({"max_epochs": 1.5, "patience": 0}, "max_epochs must be an integer >= 0, got 1.5"),
    ({"max_epochs": True}, "max_epochs must be an integer >= 0, got True"),
    ({"d_a": -1}, "d_a must be an integer >= 1, got -1"),
    ({"seed": "x"}, "seed must be an integer, got 'x'"),
    ({"learning_rate": float("nan")}, "learning_rate must be a finite number > 0, got nan"),
    ({"learning_rate": float("inf")}, "learning_rate must be a finite number > 0, got inf"),
    ({"l2_weight": float("nan")}, "l2_weight must be a finite number >= 0, got nan"),
]


def _spec_with_const_degree(value):
    """GEN_SPEC with edge 0's constant degree replaced."""
    edges = [dict(GEN_SPEC["edges"][0], value=value), *GEN_SPEC["edges"][1:]]
    return {**GEN_SPEC, "edges": edges}


# generator specs with a mistyped field, and the message naming it
BAD_SPEC_FIELDS = [
    (_spec_with_const_degree(-1), "edges[0]: value must be an integer >= 1, got -1"),
    (_spec_with_const_degree(1.5), "edges[0]: value must be an integer >= 1, got 1.5"),
    (_spec_with_const_degree(True), "edges[0]: value must be an integer >= 1, got True"),
    (_spec_with_const_degree(float("nan")), "edges[0]: value must be an integer >= 1, got nan"),
    ({**GEN_SPEC, "edges": [*GEN_SPEC["edges"][:2], {"picker": "P", "picked": "T",
                                                      "exponent": float("nan")}]},
     "edges[2]: exponent must be a finite number, got nan"),
    ({**GEN_SPEC, "seed": 1.5}, "seed must be an integer, got 1.5"),
    ({**GEN_SPEC, "seed": True}, "seed must be an integer, got True"),
    ({**GEN_SPEC, "counts": {**GEN_SPEC["counts"], "C": 2.5}},
     "counts['C'] must be an integer >= 1, got 2.5"),
    ({**GEN_SPEC, "noise": float("nan")}, "noise must be a finite number in [0, 1), got nan"),
    ({**GEN_SPEC, "edges": [GEN_SPEC["edges"][0], {**GEN_SPEC["edges"][1], "min_degree": 13},
                            GEN_SPEC["edges"][2]]},
     "edges[1]: min_degree must be <= max_degree, got 13 > 12"),
]

# generator specs that generate cannot honour, and the message naming the culprit
BAD_SPEC_WIRING = [
    ("count-for-undeclared-type", {**GEN_SPEC, "counts": {**GEN_SPEC["counts"], "Z": 3}},
     "counts['Z']: 'Z' is not a declared type"),
    ("edge-picks-undeclared-type",
     {**GEN_SPEC, "edges": [*GEN_SPEC["edges"], {"picker": "A", "picked": "Z"}]},
     "edges[3]: picked 'Z' is not a declared type"),
    ("edge-without-relation",
     {**GEN_SPEC, "edges": [*GEN_SPEC["edges"], {"picker": "A", "picked": "T"}]},
     "edges[3]: no relation between A and T is declared"),
    ("pair-wired-twice",
     {**GEN_SPEC, "edges": [*GEN_SPEC["edges"], {"picker": "P", "picked": "A"}]},
     "edges[3]: P and A are already wired by edges[1]"),
]


def _bad_json_inputs():
    for command in ("train", "benchmark", "generate", "explain"):
        for case, body, message in BAD_JSON_FILES:
            yield pytest.param(command, body, message, id=f"{command}-{case}")
    for fields, message in BAD_CONFIG_FIELDS:
        body = json.dumps({**TRAIN_CFG, **fields}).encode()
        yield pytest.param("train", body, message, id=f"train-{json.dumps(fields)}")
    for spec, message in BAD_SPEC_FIELDS:
        field, got = message.split(" must ")[0].replace(": ", "."), message.rsplit("got ", 1)[1]
        yield pytest.param(
            "generate", json.dumps(spec).encode(), message, id=f"generate-{field}={got}"
        )
    for case, spec, message in BAD_SPEC_WIRING:
        yield pytest.param("generate", json.dumps(spec).encode(), message, id=f"generate-{case}")
    schema = {"types": ["A", "P"], "relations": [["A", "P"], ["P", "A"]]}
    blocks_list = {"schema": schema, "transitions": [{"blocks": []}]}
    yield pytest.param(
        "explain", json.dumps(blocks_list).encode(), "'list' object has no attribute 'items'",
        id="explain-blocks-not-an-object",
    )
    # a well-formed summary without a block that A's ranking reads
    dblp = Schema(
        ("P", "A", "C", "T"),
        (("C", "P"), ("P", "C"), ("A", "P"), ("P", "A"), ("T", "P"), ("P", "T")),
    )
    partial = summary_to_json(dblp_reference_summary(dblp))
    del partial["transitions"][1]["blocks"]["A"]
    yield pytest.param(
        "explain", json.dumps(partial).encode(), "summary has no block A at transition 2-3",
        id="explain-missing-block",
    )


@pytest.mark.parametrize("command, body, message", _bad_json_inputs())
def test_bad_json_input_names_the_file(data_dir, tmp_path, capsys, command, body, message):
    """Every JSON input goes through one reader: a bad file is one error
    line with the command's exit code and prefix, naming the file. In
    process, an uncaught exception fails the test."""
    path = tmp_path / "input.json"
    if body == "dir":
        path.mkdir()
    elif body is not None:
        path.write_bytes(body)
    code, prefix, args = {
        "train": (cli.EXIT_USAGE, "bad config",
                  ["train", "--data", str(data_dir), "--config", str(path),
                   "--out", str(tmp_path / "o")]),
        "benchmark": (cli.EXIT_USAGE, "bad config", ["benchmark", "--config", str(path)]),
        "generate": (cli.EXIT_USAGE, "bad generator spec",
                     ["generate", "--spec", str(path), "--out", str(tmp_path / "o")]),
        "explain": (cli.EXIT_DATA, "bad summary file",
                    ["explain", "--summary", str(path), "--target", "A"]),
    }[command]
    assert cli.main(args) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}: {path}: ")
    assert message in err and len(err.splitlines()) == 1


class TestNumericFailure:
    def test_overflowing_features_exit_numeric(self, data_dir, tmp_path):
        # 1e308 overflows the forward pass itself, so the first epoch's loss is NaN
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        feats = broken / "features_A.npy"
        np.save(feats, np.full_like(np.load(feats), 1e308))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"max_epochs": 8, "patience": 8}))
        proc = run_cli(
            ["train", "--data", str(broken), "--config", str(cfg),
             "--out", str(tmp_path / "run")]
        )
        assert proc.returncode == cli.EXIT_NUMERIC
        assert "train loss is nan" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run" / "training_log.jsonl").exists()

    def test_adam_moment_overflow_exits_numeric(self, huge_dir, tmp_path):
        # the loss stays finite near 1e200, but g * g overflows Adam's second moment
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"layer_widths": [8, 4], "max_epochs": 8, "patience": 8}))
        proc = run_cli(
            ["train", "--data", str(huge_dir), "--config", str(cfg),
             "--out", str(tmp_path / "run")]
        )
        assert proc.returncode == cli.EXIT_NUMERIC
        assert "epoch 1: parameter L2_" in proc.stderr
        assert "non-finite gradient or moment" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "run" / "training_log.jsonl").exists()


class TestGenerate:
    def test_writes_full_layout(self, data_dir):
        names = {p.name for p in data_dir.iterdir()}
        assert "schema.json" in names
        for t in ("P", "A", "C", "T"):
            assert f"features_{t}.npy" in names
        assert "edges_C_P.tsv" in names and "edges_P_C.tsv" in names
        assert "labels_A.tsv" in names
        assert "split_A.json" in names
        g = load_graph(data_dir)
        assert g.n_objects("A") == 40

    def test_writes_only_declared_relations(self, tmp_path):
        # the schema declares (C, P) but not (P, C)
        schema = {"types": ["P", "A", "C", "T"],
                  "relations": [["C", "P"], ["A", "P"], ["P", "A"], ["T", "P"], ["P", "T"]]}
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({**GEN_SPEC, "schema": schema}))
        out = tmp_path / "o"
        assert cli.main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        edges = {p.name for p in out.glob("edges_*.tsv")}
        assert edges == {f"edges_{a}_{b}.tsv" for a, b in schema["relations"]}
        assert cli.main(["verify", "--data", str(out)]) == 0

    def test_generating_over_a_graph_leaves_none_of_its_files(self, tmp_path):
        out = tmp_path / "o"
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(GEN_SPEC))
        assert cli.main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        assert (out / "labels_A.tsv").exists()
        spec.write_text(json.dumps({**GEN_SPEC, "planted_path": ["C", "P"]}))
        assert cli.main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
        g = load_graph(out)
        assert set(g.labels) == set(g.splits) == {"P"}
        assert not (out / "labels_A.tsv").exists() and not (out / "split_A.json").exists()
        assert cli.main(["verify", "--data", str(out)]) == 0

    def test_bad_spec_key_exits_usage(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps({"counts": {"A": 5}, "bogus": 1}))
        code = cli.main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, seed, kind",
        [([{"counts": {"A": 5}}], ["--seed", "3"], "list"), ("x", [], "str")],
    )
    def test_spec_not_an_object_exits_usage(self, tmp_path, capsys, body, seed, kind):
        spec = tmp_path / "s.json"
        spec.write_text(json.dumps(body))
        code = cli.main(["generate", "--spec", str(spec), "--out", str(tmp_path / "o"), *seed])
        assert code == cli.EXIT_USAGE
        assert (
            f"bad generator spec: {spec}: expected a JSON object, got {kind}"
            in capsys.readouterr().err
        )


class TestTrain:
    def test_produces_all_artifacts(self, run_dir):
        assert (run_dir / "model" / "model.json").exists()
        assert (run_dir / "training_log.jsonl").exists()
        assert (run_dir / "attention_summary.json").exists()
        assert (run_dir / "test_metrics.json").exists()
        assert (run_dir / "resolved_config.json").exists()
        log_lines = (run_dir / "training_log.jsonl").read_text().splitlines()
        assert len(log_lines) == TRAIN_CFG["max_epochs"]
        record = json.loads(log_lines[0])
        assert {"epoch", "train_loss", "val_micro_f1", "epoch_seconds"} <= set(record)

    def test_resolved_config_logged(self, run_dir):
        resolved = json.loads((run_dir / "resolved_config.json").read_text())
        assert resolved["seed"] == 0
        assert resolved["learning_rate"] == 0.01
        assert "dims" in resolved

    def test_same_seed_identical_metrics(self, data_dir, run_dir, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        out = tmp_path / "rerun"
        assert cli.main(
            ["train", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
        ) == 0
        assert (out / "test_metrics.json").read_text() == (
            run_dir / "test_metrics.json"
        ).read_text()

    def test_missing_labels_names_file(self, data_dir, tmp_path, capsys):
        broken = tmp_path / "nolabels"
        shutil.copytree(data_dir, broken)
        (broken / "labels_A.tsv").unlink()
        (broken / "split_A.json").unlink()
        code = cli.main(["train", "--data", str(broken), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_DATA
        assert "labels_" in capsys.readouterr().err

    def test_unknown_config_key_exits_usage(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"learning_rat": 0.1}))
        code = cli.main(
            ["train", "--data", str(data_dir), "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == cli.EXIT_USAGE
        assert "learning_rat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weights, code, message",
        [
            ({"A": -1.0}, cli.EXIT_USAGE,
             "bad config: loss_weights['A'] must be a finite number >= 0, got -1.0"),
            ({"A": "x"}, cli.EXIT_USAGE,
             "bad config: loss_weights['A'] must be a finite number >= 0, got 'x'"),
            ({"A": float("nan")}, cli.EXIT_USAGE,
             "bad config: loss_weights['A'] must be a finite number >= 0, got nan"),
            # the CLI graph labels only A
            ({"A": 1.0, "Z": 2.0}, cli.EXIT_DATA,
             "loss_weights name types with no train labels: ['Z']"),
        ],
    )
    def test_bad_loss_weights(self, data_dir, tmp_path, capsys, weights, code, message):
        cfg = tmp_path / "weights.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, "loss_weights": weights}))
        assert cli.main(
            ["train", "--data", str(data_dir), "--config", str(cfg), "--out", str(tmp_path / "o")]
        ) == code
        # a config error names the file
        assert message.replace("bad config: ", f"bad config: {cfg}: ") in capsys.readouterr().err

    def test_validation_failure_exits_data(self, data_dir, tmp_path, capsys):
        broken = tmp_path / "badgraph"
        shutil.copytree(data_dir, broken)
        edges = broken / "edges_A_P.tsv"
        lines = edges.read_text().splitlines()
        edges.write_text("\n".join(lines[1:]) + "\n")  # break transpose symmetry
        code = cli.main(["train", "--data", str(broken), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_DATA
        assert "transpose" in capsys.readouterr().err


class TestEvaluate:
    def test_matches_saved_metrics(self, data_dir, run_dir, capsys):
        code = cli.main(
            ["evaluate", "--model", str(run_dir / "model"), "--data", str(data_dir)]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((run_dir / "test_metrics.json").read_text())
        assert printed == saved

    def test_schema_mismatch_exits_data(self, run_dir, tmp_path, toy_graph, capsys):
        from hetconv.io import save_graph

        other = tmp_path / "other"
        save_graph(other, toy_graph)
        code = cli.main(
            ["evaluate", "--model", str(run_dir / "model"), "--data", str(other)]
        )
        assert code == cli.EXIT_DATA
        assert "schema hash" in capsys.readouterr().err


class TestExplain:
    def test_summary_file_reproduces_reference_total(self, tmp_path, dblp_schema, capsys):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(summary_to_json(dblp_reference_summary(dblp_schema))))
        code = cli.main(
            ["explain", "--summary", str(summary_path), "--target", "A", "--top-k", "3"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report[0]["meta_path"] == ["C", "P", "A"]
        assert report[0]["score"] == pytest.approx(0.4228, abs=1e-4)

    def test_model_route_ranks_planted_path_first(self, data_dir, run_dir, capsys):
        code = cli.main(
            ["explain", "--model", str(run_dir / "model"), "--data", str(data_dir),
             "--target", "A", "--top-k", "2"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report) == 2

    def test_per_object_report(self, data_dir, run_dir, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["explain", "--model", str(run_dir / "model"), "--data", str(data_dir),
             "--target", "A", "--per-object", "--top-k", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["per_object"]) == 40
        top = report["per_object"][0][0]
        assert set(top) == {"meta_path", "score"}

    def test_per_object_report_matches_a_full_record_pass(
        self, data_dir, run_dir, tmp_path, monkeypatch
    ):
        from hetconv import model

        args = ["explain", "--model", str(run_dir / "model"), "--data", str(data_dir),
                "--target", "A", "--per-object", "--out"]
        target_only = tmp_path / "target_only.json"
        assert quiet_main(args + [str(target_only)]) == 0
        requested = []
        forward = model.forward

        def full_pass(params, g, mode="eval", outputs=None):
            requested.append(outputs)
            return forward(params, g, mode=mode)

        monkeypatch.setattr(model, "forward", full_pass)
        full = tmp_path / "full.json"
        assert quiet_main(args + [str(full)]) == 0
        assert requested == [["A"]]
        assert target_only.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("top_k", [0, 3])
    def test_per_object_report_bytes_match_the_dict_oracle(
        self, data_dir, run_dir, tmp_path, top_k
    ):
        from hetconv.interpret import per_object_scores
        from hetconv.io import write_json
        from hetconv.model import forward, load_model

        out = tmp_path / "report.json"
        assert quiet_main(
            ["explain", "--model", str(run_dir / "model"), "--data", str(data_dir),
             "--target", "A", "--per-object", "--top-k", str(top_k), "--out", str(out)]
        ) == 0
        g = load_graph(data_dir)
        params, _ = load_model(run_dir / "model")
        _, records = forward(params, g, mode="eval", outputs=["A"])
        report = json.loads(out.read_text())
        report["per_object"] = [
            sorted(
                ({"meta_path": list(p), "score": s} for p, s in scores.items()),
                key=lambda e: -e["score"],
            )[: top_k or None]
            for scores in per_object_scores(g, records, "A")
        ]
        write_json(tmp_path / "oracle.json", report)
        assert out.read_bytes() == (tmp_path / "oracle.json").read_bytes()

    def test_non_finite_per_object_mass_exits_numeric(
        self, data_dir, run_dir, tmp_path, monkeypatch, capsys
    ):
        from hetconv import interpret

        masses_of = interpret.per_object_masses

        def poisoned(*args):
            prefixes, masses = masses_of(*args)
            masses[0, 0] = np.inf
            return prefixes, masses

        monkeypatch.setattr(interpret, "per_object_masses", poisoned)
        out = tmp_path / "report.json"
        code = cli.main(
            ["explain", "--model", str(run_dir / "model"), "--data", str(data_dir),
             "--target", "A", "--per-object", "--out", str(out)]
        )
        assert code == cli.EXIT_NUMERIC
        assert "non-finite per-object meta-path mass" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_summary_exits_data(self, tmp_path, dblp_schema, capsys):
        raw = summary_to_json(dblp_reference_summary(dblp_schema))
        raw["transitions"][0]["blocks"]["A"] = {"self": np.nan, "neighbors": {"P": np.nan}}
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(raw))
        code = cli.main(["explain", "--summary", str(summary_path), "--target", "A"])
        assert code == cli.EXIT_DATA
        assert (
            f"bad summary file: {summary_path}: transition 1-2 block A: "
            in capsys.readouterr().err
        )

    def test_block_of_a_type_without_objects_exits_data(self, tmp_path, capsys):
        """A type with no objects gives its blocks no attention rows, so a
        ranking that reads one has nothing to read."""
        from dataclasses import replace

        from hetconv.datagen import dblp_spec, generate, with_splits
        from hetconv.graph import SparseAdj
        from hetconv.io import save_graph

        g = with_splits(generate(dblp_spec(40)), 40.0)
        n_p = g.n_objects("P")
        g = replace(
            g,
            features={**g.features, "T": np.zeros((0, g.features["T"].shape[1]))},
            adjacency={
                **g.adjacency,
                ("T", "P"): SparseAdj.from_edges(n_p, 0, [], []),
                ("P", "T"): SparseAdj.from_edges(0, n_p, [], []),
            },
        )
        data = tmp_path / "data"
        save_graph(data, g)
        cfg = tmp_path / "config.json"
        cfg.write_text(
            json.dumps({**TRAIN_CFG, "layer_widths": [8, 8, 4], "max_epochs": 3, "patience": 3})
        )
        run = tmp_path / "run"
        assert quiet_main(["train", "--data", str(data), "--config", str(cfg),
                           "--out", str(run)]) == 0
        code = cli.main(
            ["explain", "--model", str(run / "model"), "--data", str(data), "--target", "A"]
        )
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: data {data}: summary has no block T at transition 1-2 "
            "(a type without objects has no attention rows)\n"
        )

    def test_unknown_target_nonzero(self, tmp_path, dblp_schema, capsys):
        summary_path = tmp_path / "summary.json"
        summary_path.write_text(json.dumps(summary_to_json(dblp_reference_summary(dblp_schema))))
        code = cli.main(["explain", "--summary", str(summary_path), "--target", "X"])
        assert code == cli.EXIT_USAGE

    def test_needs_summary_or_model(self, capsys):
        code = cli.main(["explain", "--target", "A"])
        assert code == cli.EXIT_USAGE


class TestVerify:
    def test_clean_data_passes(self, data_dir, capsys):
        code = cli.main(["verify", "--data", str(data_dir), "--max-objects", "25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "validate_graph PASS" in out
        assert "spectral_equivalence" in out and "FAIL" not in out
        assert "gradcheck PASS" in out

    def test_spectral_tolerance_scales_with_output(self, huge_dir, capsys):
        # every object of the CLI graph, whose largest type has 130
        cli.main(["verify", "--data", str(huge_dir), "--max-objects", "130"])
        out = capsys.readouterr().out
        assert "spectral_equivalence A<->P PASS" in out
        assert "x scale 2.764e+200" in out
        line = next(x for x in out.splitlines() if "A<->P" in x)
        # the deviation passes only because the tolerance scales
        assert float(line.split("max deviation ")[1].split()[0]) > cli.SPECTRAL_TOL

    def test_spectral_check_runs_on_the_cut_graph(self, data_dir, capsys, monkeypatch):
        import hetconv.model as model_mod

        seen = []
        check = model_mod.spectral_equivalence_on_graph

        def recording(g, *args, **kwargs):
            seen.append(g)
            return check(g, *args, **kwargs)

        monkeypatch.setattr(model_mod, "spectral_equivalence_on_graph", recording)
        code = cli.main(
            ["verify", "--data", str(data_dir), "--max-objects", "7", "--max-features", "4"]
        )
        assert code == cli.EXIT_OK, capsys.readouterr().out
        assert len(seen) == 3
        for g in seen:
            assert max(g.n_objects(t) for t in g.schema.object_types) <= 7
            assert max(f.shape[1] for f in g.features.values()) <= 4

    def test_gradcheck_floor_scales_with_loss(self, huge_dir, capsys):
        code = cli.main(["verify", "--data", str(huge_dir)])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK, out
        assert "gradcheck PASS" in out
        floor = float(out.split("floor ")[1].split(")")[0])
        assert floor > 1e180

    def test_corrupted_adjacency_fails(self, data_dir, tmp_path, capsys):
        broken = tmp_path / "corrupt"
        shutil.copytree(data_dir, broken)
        edges = broken / "edges_C_P.tsv"
        lines = edges.read_text().splitlines()
        edges.write_text("\n".join(lines[2:]) + "\n")
        code = cli.main(["verify", "--data", str(broken)])
        assert code == cli.EXIT_DATA
        assert "FAIL" in capsys.readouterr().out


class TestGradcheckCommand:
    """The finite-difference check, which verify runs after its other checks."""

    def test_passes_on_clean_data(self, data_dir, capsys):
        code = cli.main(["verify", "--data", str(data_dir), "--max-objects", "20"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        per_param = [line for line in lines if ": rel_err=" in line and " abs_err=" in line]
        # one line per parameter, then the summary line
        assert per_param and lines[-1 - len(per_param):-1] == per_param
        assert lines[-1].startswith("gradcheck PASS")


class TestBenchmarkCommand:
    def test_writes_report(self, tmp_path, monkeypatch, capsys):
        import hetconv.bench as bench_mod
        from hetconv.datagen import GenSpec

        def tiny(seed=0, n_scales=6):
            return [
                GenSpec(
                    counts={"A": 12 * 2**i, "P": 40 * 2**i, "C": 6, "T": 20 * 2**i},
                    n_classes=2, seed=seed, feature_dim=6,
                )
                for i in range(5)
            ]

        monkeypatch.setattr(bench_mod, "default_scale_specs", tiny)
        out = tmp_path / "bench.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layer_widths": [6, 2], "d_a": 3}))
        code = cli.main(
            ["benchmark", "--out", str(out), "--scales", "5", "--repeats", "3",
             "--config", str(cfg)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["scales"]) == 5
        assert "linear fit" in capsys.readouterr().out


    def test_records_the_pinned_thread_count(self, tmp_path):
        # empty OpenBLAS/OpenMP variables leave the pool at its default size
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layer_widths": [4, 2], "d_a": 2}))
        out = tmp_path / "bench.json"
        proc = run_cli(
            ["benchmark", "--scales", "5", "--repeats", "3", "--config", str(cfg),
             "--out", str(out)],
            HETCONV_THREADS="1", OPENBLAS_NUM_THREADS="", OMP_NUM_THREADS="",
        )
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        report = json.loads(out.read_text())
        assert report["threads"] == 1
        env = report["environment"]
        assert env["blas_threads"] and set(env["blas_threads"].values()) == {1}
        assert env["cpu_count"] == os.cpu_count()
        assert {"python", "numpy", "scipy", "blas"} <= env.keys()


def _bad_npy(kind: str) -> bytes:
    a = {
        "float32": np.ones((4, 3), dtype=np.float32),
        "1-D": np.ones(4),
        "nan": np.full((4, 3), np.nan),
        "object": np.array([[1.0, None]], dtype=object),
    }[kind]
    buf = io.BytesIO()
    np.save(buf, a, allow_pickle=kind == "object")
    return buf.getvalue()


def corrupt(path: Path, how: tuple) -> None:
    """Damage one file: ("truncate", fraction), ("byte", fraction, value),
    ("empty",), ("delete",) or ("npy", kind)."""
    raw = path.read_bytes()
    if how[0] == "truncate":
        path.write_bytes(raw[: int(how[1] * len(raw))])
    elif how[0] == "byte":
        at = min(int(how[1] * len(raw)), len(raw) - 1)
        path.write_bytes(raw[:at] + bytes([how[2]]) + raw[at + 1:])
    elif how[0] == "empty":
        path.write_bytes(b"")
    elif how[0] == "delete":
        path.unlink()
    else:
        path.write_bytes(_bad_npy(how[1]))


CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True)),
    st.tuples(st.just("byte"), st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
    st.tuples(st.sampled_from(["empty", "delete"])),
    st.tuples(st.just("npy"), st.sampled_from(["float32", "1-D", "nan", "object"])),
)


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class TestCorruptFiles:
    """Whatever one damaged file holds, verify, evaluate and train end with
    a documented exit code, never an exception."""

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, 10**6), how=CORRUPTIONS)
    def test_exit_code_not_exception(self, data_dir, run_dir, which, how):
        with tempfile.TemporaryDirectory() as tmp:
            data, ckpt = Path(tmp) / "data", Path(tmp) / "model"
            shutil.copytree(data_dir, data)
            shutil.copytree(run_dir / "model", ckpt)
            files = sorted(data.iterdir()) + sorted(ckpt.iterdir())
            target = files[which % len(files)]
            corrupt(target, how)
            codes = [quiet_main(["evaluate", "--model", str(ckpt), "--data", str(data)])]
            if target.parent == data:
                codes.append(quiet_main(
                    ["verify", "--data", str(data), "--max-objects", "8", "--max-features", "3"]
                ))
                cfg = Path(tmp) / "config.json"
                cfg.write_text(json.dumps(dict(TRAIN_CFG, max_epochs=2, patience=2)))
                codes.append(quiet_main(
                    ["train", "--data", str(data), "--config", str(cfg), "--out", str(Path(tmp) / "run")]
                ))
        assert set(codes) <= {0, 1, 2, 3}


class TestDtype:
    def test_float32_checkpoint_reproduces_train_metrics(self, data_dir, run_dir, tmp_path):
        assert json.loads((run_dir / "model" / "model.json").read_text())["dtype"] == "float32"
        assert json.loads((run_dir / "resolved_config.json").read_text())["dtype"] == "float32"
        out = tmp_path / "metrics.json"
        code = quiet_main(
            ["evaluate", "--model", str(run_dir / "model"), "--data", str(data_dir),
             "--out", str(out)]
        )
        assert code == cli.EXIT_OK
        assert out.read_bytes() == (run_dir / "test_metrics.json").read_bytes()

    def test_features_near_1e20_train_in_float64(self, data_dir, tmp_path):
        # float32 would overflow Adam's second moment at this scale
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        feats = data / "features_A.npy"
        np.save(feats, np.full_like(np.load(feats), 1e20))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TRAIN_CFG))
        out = tmp_path / "run"
        code = quiet_main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
        assert code == cli.EXIT_OK
        assert json.loads((out / "resolved_config.json").read_text())["dtype"] == "float64"
        assert json.loads((out / "model" / "model.json").read_text())["dtype"] == "float64"


def test_empty_val_split_trains(data_dir, tmp_path):
    # verify accepts "val": [], so train must too: early stopping follows the loss
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    split = json.loads((data / "split_A.json").read_text())
    split["val"] = []
    (data / "split_A.json").write_text(json.dumps(split))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    assert quiet_main(["verify", "--data", str(data)]) == cli.EXIT_OK
    out = tmp_path / "run"
    code = quiet_main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)])
    assert code == cli.EXIT_OK
    log = [json.loads(line) for line in (out / "training_log.jsonl").read_text().splitlines()]
    assert len(log) == TRAIN_CFG["max_epochs"]
    assert all(r["val_micro_f1"] is None for r in log)


def test_train_and_explain_normalize_each_relation_once(data_dir, tmp_path, monkeypatch):
    from hetconv import graph

    normalized = []
    row_normalize = graph.row_normalize

    def counted(a):
        normalized.append(a)
        return row_normalize(a)

    monkeypatch.setattr(graph, "row_normalize", counted)
    n_relations = len(load_graph(data_dir).adjacency)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    out = tmp_path / "run"
    args = ["--data", str(data_dir), "--config", str(cfg), "--out", str(out)]
    assert quiet_main(["train", *args]) == 0
    assert len(normalized) == n_relations
    normalized.clear()
    assert quiet_main(
        ["explain", "--model", str(out / "model"), "--data", str(data_dir),
         "--target", "A", "--per-object", "--out", str(tmp_path / "report.json")]
    ) == 0
    assert len(normalized) == n_relations


def test_train_runs_one_eval_pass_after_fit(data_dir, tmp_path, monkeypatch):
    from hetconv import model, train

    modes = []
    forward = model.forward

    def counted(*args, **kwargs):
        modes.append(kwargs.get("mode", "eval"))
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counted)
    monkeypatch.setattr(train, "forward", counted)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    out = tmp_path / "run"
    assert quiet_main(["train", "--data", str(data_dir), "--config", str(cfg), "--out", str(out)]) == 0
    # each epoch: a train pass and the validation pass; then one pass for
    # the attention summary and the test metrics
    assert modes == ["train", "eval"] * TRAIN_CFG["max_epochs"] + ["eval"]
