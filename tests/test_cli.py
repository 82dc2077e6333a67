import json

import numpy as np
import pytest

from meganet.cli import (
    DEFAULTS,
    build_parser,
    effective_config,
    main,
    read_config_file,
)
from meganet.data import ConfigError


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "tx.csv"
    rc = run(["gen", "--task", "max_of_sums", "--num-nodes", 80,
              "--seed", 1, "--out", out])
    assert rc == 0
    return out, tmp_path / "tx.csv.labels.csv"


def test_gen_writes_both_files(dataset):
    tx, labels = dataset
    assert tx.exists() and labels.exists()
    header = tx.read_text().splitlines()[0]
    assert header == "src,dst,timestamp,amount"


def test_gen_invalid_task_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["gen", "--task", "bogus", "--out", tmp_path / "x.csv"])
    assert excinfo.value.code == 2


def test_config_file_parsing(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("# comment\nlearning_rate = 0.02\nbidirectional=false\n\n")
    cfg = read_config_file(p)
    assert cfg == {"learning_rate": 0.02, "bidirectional": False}


def test_config_file_unknown_key(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("momentum=0.9\n")
    with pytest.raises(ConfigError):
        read_config_file(p)


def test_config_file_bad_value(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("epochs=soon\n")
    with pytest.raises(ConfigError):
        read_config_file(p)


def test_precedence_flag_beats_file_beats_default(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("learning_rate=0.02\nepochs=5\n")
    parser = build_parser()
    args = parser.parse_args(["train", "--data", "x", "--out-dir", "y",
                              "--config", str(p), "--epochs", "3"])
    cfg = effective_config(args)
    assert cfg["learning_rate"] == 0.02      # from file
    assert cfg["epochs"] == 3                # flag wins
    assert cfg["batch_size"] == DEFAULTS["batch_size"]


def test_defaults_match_reference_table():
    assert DEFAULTS["learning_rate"] == 0.003
    assert DEFAULTS["hidden"] == 64
    assert DEFAULTS["batch_size"] == 8192
    assert DEFAULTS["dropout"] == 0.1
    assert DEFAULTS["class_weight_1"] == 6.27


def train_args(tx, labels, out_dir, *extra):
    return ["train", "--data", tx, "--node-labels", labels,
            "--out-dir", out_dir, "--epochs", 4, "--hidden", 8,
            "--mlp-hidden", 8, "--num-layers", 1, "--dropout", 0.0,
            "--class-weight-1", 3, "--no-bidirectional", *extra]


def test_train_writes_records_and_summary(dataset, tmp_path, capsys):
    tx, labels = dataset
    out_dir = tmp_path / "run"
    assert run(train_args(tx, labels, out_dir, "--seeds", "0,1")) == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["seeds"] == [0, 1]
    assert len(summary["f1_per_seed"]) == 2
    assert summary["effective_config"]["epochs"] == 4
    rec = json.loads((out_dir / "record_seed0.json").read_text())
    assert rec["seed"] == 0
    assert rec["config"]["effective"]["model"] == "two-stage"


def test_train_determinism_across_invocations(dataset, tmp_path):
    tx, labels = dataset
    run(train_args(tx, labels, tmp_path / "a", "--seeds", "0"))
    run(train_args(tx, labels, tmp_path / "b", "--seeds", "0"))
    a = json.loads((tmp_path / "a" / "record_seed0.json").read_text())
    b = json.loads((tmp_path / "b" / "record_seed0.json").read_text())
    a.pop("wall_clock"), b.pop("wall_clock")
    assert a == b


def test_train_eval_checkpoint_roundtrip(dataset, tmp_path, capsys):
    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    run(train_args(tx, labels, tmp_path / "run", "--seeds", "0",
                   "--checkpoint", ckpt))
    rec = json.loads((tmp_path / "run" / "record_seed0.json").read_text())
    capsys.readouterr()
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels, "--split", "test", "--seed", 0])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["metrics"]["f1"] == rec["final_metrics"]["f1"]


def test_train_single_stage_switch(dataset, tmp_path):
    tx, labels = dataset
    out_dir = tmp_path / "gin"
    assert run(train_args(tx, labels, out_dir, "--seeds", "0",
                          "--model", "single-stage-gin")) == 0
    rec = json.loads((out_dir / "record_seed0.json").read_text())
    assert rec["config"]["model"]["two_stage"] is False


def test_missing_data_file_exit_2(tmp_path, capsys):
    rc = run(["train", "--data", tmp_path / "nope.csv",
              "--out-dir", tmp_path / "o"])
    assert rc == 2


def test_bad_node_label_row_exit_2(dataset, tmp_path, capsys):
    tx, labels = dataset
    bad = tmp_path / "bad.labels.csv"
    bad.write_text(labels.read_text() + "-1,1\n")
    assert run(train_args(tx, bad, tmp_path / "o")) == 2
    assert "row" in capsys.readouterr().err


def test_labelless_schema_without_sidecar_exit_2(dataset, tmp_path, capsys):
    tx, _ = dataset
    rc = run(["train", "--data", tx, "--schema", "eth",
              "--out-dir", tmp_path / "o"])
    assert rc == 2


def test_check_subcommand_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    rc = run(["check", "--suite", "expressivity", "--suite", "port-witness",
              "--out", report])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] expressivity" in out
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert len(payload["suites"]) == 2


def test_check_unknown_suite_exit_2(capsys):
    assert run(["check", "--suite", "nonsense"]) == 2


def _corrupt_nan(p):
    p["mlps"][0]["weights"][0][0] = float("nan")


def _corrupt_truncate(p):
    p["mlps"][1]["weights"][0] = p["mlps"][1]["weights"][0][:-1]


@pytest.mark.parametrize("corrupt", [
    _corrupt_nan,
    lambda p: p.update(format_version=2),
    lambda p: "{not json",
    _corrupt_truncate,
    lambda p: p.pop("d_edge_in"),
], ids=["nan-weight", "format-version-2", "not-json", "truncated-weights",
        "missing-key"])
def test_malformed_checkpoint_exit_2(dataset, tmp_path, capsys, corrupt):
    from meganet.model import Model, ModelConfig, save_checkpoint

    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    save_checkpoint(Model(ModelConfig(), 1, 1), ckpt)
    payload = json.loads(ckpt.read_text())
    text = corrupt(payload)
    ckpt.write_text(text if isinstance(text, str) else json.dumps(payload))
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels])
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err


def test_gen_out_neighbor_count_needs_median_degree_2(tmp_path, capsys):
    rc = run(["gen", "--task", "out_neighbor_count", "--senders", 1,
              "--num-nodes", 40, "--out", tmp_path / "tx.csv"])
    assert rc == 2
    assert "median out-degree" in capsys.readouterr().err
    assert not (tmp_path / "tx.csv").exists()
