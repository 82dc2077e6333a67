import argparse
import copy
import json
from pathlib import Path

import numpy as np
import pytest

from meganet import checks
from meganet.cli import (
    DEFAULTS,
    _configs,
    build_parser,
    effective_config,
    main,
    read_config_file,
)
from meganet.data import PLANTED_TASKS, ConfigError
from meganet.model import ModelConfig
from meganet.train import TrainConfig

DATA = Path(__file__).parent / "data"

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


def test_gen_task_choices_are_the_planted_tasks():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    task = next(a for a in commands.choices["gen"]._actions
                if a.dest == "task")
    assert tuple(task.choices) == tuple(PLANTED_TASKS)


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


def test_config_file_with_a_byte_order_mark(tmp_path):
    # Notepad saves UTF-8 text with a leading byte-order mark
    p = tmp_path / "cfg"
    p.write_text("epochs=5\nlearning_rate=0.02\n", encoding="utf-8-sig")
    assert read_config_file(p) == {"epochs": 5, "learning_rate": 0.02}
    args = build_parser().parse_args(["train", "--data", "x", "--out-dir",
                                      "y", "--config", str(p)])
    assert effective_config(args)["epochs"] == 5


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


@pytest.mark.parametrize("readout", ["node", "edge"])
def test_defaults_build_the_default_configs(readout):
    """With no flag and no file, train builds ModelConfig() and TrainConfig()."""
    assert _configs(DEFAULTS, readout) == (ModelConfig(readout=readout),
                                           TrainConfig())


# a value other than the default, as a flag or a config-file line writes it
OTHER_STRINGS = {"model": "single-stage-gin", "edge_agg": "pna",
                 "node_agg": "max"}


def other_value(key):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        return str(not default).lower()
    return OTHER_STRINGS[key] if isinstance(default, str) else str(default * 2)


@pytest.mark.parametrize("key", DEFAULTS)
def test_every_option_has_a_flag_parsed_as_its_file_line(tmp_path, key):
    raw = other_value(key)
    flag = "--" + key.replace("_", "-")
    if isinstance(DEFAULTS[key], bool):
        argv = [flag if raw == "true" else "--no-" + flag[2:]]
    else:
        argv = [flag, raw]
    args = build_parser().parse_args(["train", "--data", "x", "--out-dir", "y",
                                      *argv])
    from_flag = effective_config(args)[key]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"{key}={raw}\n")
    from_file = read_config_file(cfg)[key]
    assert from_flag == from_file != DEFAULTS[key]
    assert type(from_flag) is type(from_file) is type(DEFAULTS[key])


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
    assert summary["f1_mean"] == pytest.approx(np.mean(summary["f1_per_seed"]))
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


def test_train_reads_the_csv_once_for_all_seeds(dataset, tmp_path,
                                               monkeypatch):
    """Each seed's record equals the record of a run with that seed alone."""
    import meganet.cli as cli_module

    tx, labels = dataset
    loads = []

    def counted(*args, fn=cli_module.load_transactions):
        loads.append(args)
        return fn(*args)

    monkeypatch.setattr(cli_module, "load_transactions", counted)
    assert run(train_args(tx, labels, tmp_path / "all", "--seeds", "0,1,2")) == 0
    assert len(loads) == 1
    for seed in (0, 1, 2):
        assert run(train_args(tx, labels, tmp_path / f"s{seed}",
                              "--seeds", seed)) == 0
        a, b = (json.loads((tmp_path / d / f"record_seed{seed}.json").read_text())
                for d in ("all", f"s{seed}"))
        a.pop("wall_clock"), b.pop("wall_clock")
        assert a == b


@pytest.mark.parametrize("task", ["node", "edge"])
def test_train_eval_checkpoint_roundtrip(dataset, tmp_path, capsys, task):
    """eval on the training CSV scores the test split as training did."""
    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    train = train_args(tx, labels, tmp_path / "run", "--seeds", "0",
                       "--checkpoint", ckpt)
    data = ["--data", tx, "--node-labels", labels]
    if task == "edge":
        edge_tx = with_edge_labels(tx, tmp_path / "edges.csv")
        train = [edge_tx if a == tx else a for a in train
                 if a not in ("--node-labels", labels)]
        data = ["--data", edge_tx]
    assert run(train) == 0
    rec = json.loads((tmp_path / "run" / "record_seed0.json").read_text())
    assert rec["config"]["task_type"] == task
    capsys.readouterr()
    rc = run(["eval", "--checkpoint", ckpt, *data, "--split", "test"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("f1", "pr_auc"):
        assert out["metrics"][key] == rec["final_metrics"][key]


def test_eval_splits_a_node_task_with_the_checkpoints_seed(dataset, tmp_path,
                                                           capsys):
    """A checkpoint trained with seed 3 scores the test nodes that seed's
    split held out, not those of seed 0."""
    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    assert run(train_args(tx, labels, tmp_path / "run", "--seeds", 3,
                          "--checkpoint", ckpt)) == 0
    rec = json.loads((tmp_path / "run" / "record_seed3.json").read_text())
    capsys.readouterr()
    assert run(["eval", "--checkpoint", ckpt, "--data", tx,
                "--node-labels", labels]) == 0
    assert json.loads(capsys.readouterr().out)["metrics"] == \
        rec["final_metrics"]


def test_eval_has_no_seed_option(dataset, tmp_path, capsys):
    tx, labels = dataset
    with pytest.raises(SystemExit) as excinfo:
        run(["eval", "--checkpoint", tmp_path / "model.json", "--data", tx,
             "--node-labels", labels, "--seed", 0])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


AML_HEADER = ("src_account,dst_account,timestamp,amount_received,currency,"
              "payment_format,is_laundering")


def write_aml(path, rows):
    path.write_text("\n".join([AML_HEADER, *(",".join(map(str, r))
                                            for r in rows)]) + "\n")
    return path


@pytest.fixture
def aml(tmp_path):
    """A 300-row AML-schema CSV with distinct timestamps, and an edge-task
    checkpoint trained on it."""
    rng = np.random.default_rng(4)
    stamps = rng.permutation(300) * 60 + 1_000_000
    rows = [(f"acct{rng.integers(40)}", f"acct{rng.integers(40)}", t,
             round(float(rng.lognormal(4, 1)), 2),
             ("USD", "EUR", "GBP", "CHF")[rng.integers(4)],
             ("wire", "card", "cash")[rng.integers(3)],
             int(rng.random() < 0.2)) for t in stamps]
    tx = write_aml(tmp_path / "aml.csv", rows)
    ckpt = tmp_path / "aml-model.json"
    assert run(["train", "--schema", "aml", "--data", tx, "--out-dir",
                tmp_path / "aml-run", "--epochs", 3, "--hidden", 8,
                "--mlp-hidden", 8, "--num-layers", 2, "--checkpoint",
                ckpt]) == 0
    return tx, rows, ckpt


def eval_logits(tx, ckpt):
    """The logits meganet eval scores, one per transaction, in timestamp
    order."""
    import meganet.cli as cli_module
    from meganet.graph import build_reverse_index, build_support_index
    from meganet.model import load_checkpoint

    model, spec = load_checkpoint(ckpt)
    args = build_parser().parse_args(["eval", "--schema", "aml", "--data",
                                      str(tx), "--checkpoint", str(ckpt)])
    task, _ = cli_module._load_task(args, model.seed, spec)
    supp = build_support_index(task.graph)
    logits, _ = model.forward(task.graph, supp,
                              build_reverse_index(task.graph, supp))
    stamps = [int(row.split(",")[2])
              for row in tx.read_text().splitlines()[1:]]
    return logits[np.argsort(stamps)]


def test_eval_scores_a_row_shuffled_csv_alike(aml, tmp_path, capsys):
    """Categories are numbered in first-seen order as a CSV is read; eval
    maps them through the checkpoint's encoding by name, so a reordered CSV
    scores every transaction as the original does. Only float32 rounding
    differs, as sums run in another edge order; it is relative to the
    summands, so the bound is 1e-5 of the largest logit (a mis-mapped
    one-hot column moves logits by whole units)."""
    tx, rows, ckpt = aml
    order = np.random.default_rng(0).permutation(len(rows))
    shuffled = write_aml(tmp_path / "shuffled.csv", [rows[i] for i in order])
    want, got = eval_logits(tx, ckpt), eval_logits(shuffled, ckpt)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())
    capsys.readouterr()
    assert run(["eval", "--schema", "aml", "--data", shuffled,
                "--checkpoint", ckpt]) == 0


def test_eval_csv_with_a_category_unseen_in_training_exit_2(aml, tmp_path,
                                                            capsys):
    tx, rows, ckpt = aml
    renamed = [r[:4] + ("SEK" if r[4] == "GBP" else r[4],) + r[5:]
               for r in rows]
    first = next(i for i, r in enumerate(renamed) if r[4] == "SEK") + 1
    capsys.readouterr()
    assert run(["eval", "--schema", "aml", "--data",
                write_aml(tmp_path / "sek.csv", renamed),
                "--checkpoint", ckpt]) == 2
    assert (f"currency: row {first} holds 'SEK', a value the encoding "
            "does not know") in capsys.readouterr().err


def test_eval_csv_with_other_categorical_columns_exit_2(aml, tmp_path,
                                                        capsys):
    """The generated schema reads no categorical column of the same rows."""
    tx, rows, ckpt = aml
    both = tmp_path / "both.csv"
    both.write_text("\n".join(
        [AML_HEADER + ",src,dst,amount,label"]
        + [",".join(map(str, r + (r[0], r[1], r[3], r[6]))) for r in rows])
        + "\n")
    capsys.readouterr()
    assert run(["eval", "--data", both, "--checkpoint", ckpt]) == 2
    assert ("categorical columns [] are not the encoding's ['currency', "
            "'payment_format']") in capsys.readouterr().err


def test_version_1_checkpoint_in_eval_exit_2(dataset, tmp_path, capsys):
    """Version 2 is the only checkpoint format; eval names the version of
    a file in another."""
    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    payload = json.loads((DATA / "node_checkpoint_v1.json").read_text())
    payload["format_version"] = 1
    ckpt.write_text(json.dumps(payload))
    assert run(["eval", "--checkpoint", ckpt, "--data", tx,
                "--node-labels", labels]) == 2
    assert ("unsupported checkpoint version 1: only version 2 loads"
            in capsys.readouterr().err)


def test_checkpoint_without_an_encoding_in_eval_exit_2(dataset, capsys):
    """A checkpoint saved through the API with no feature spec loads, but
    carries no input encoding to score a CSV with; eval refuses it rather
    than fit one on the CSV."""
    tx, labels = dataset
    ckpt = DATA / "node_checkpoint_v1.json"
    assert run(["eval", "--checkpoint", ckpt, "--data", tx,
                "--node-labels", labels]) == 2
    assert "carries no input encoding; retrain" in capsys.readouterr().err


def with_edge_labels(tx, out):
    """tx plus a label column that marks every third transaction."""
    header, *rows = tx.read_text().splitlines()
    out.write_text("\n".join([header + ",label"] + [
        f"{row},{int(i % 3 == 0)}" for i, row in enumerate(rows)]) + "\n")
    return out


@pytest.mark.parametrize("trained_on", ["node", "edge"])
def test_eval_on_the_other_task_type_exit_2(dataset, tmp_path, capsys,
                                            trained_on):
    """A node-readout checkpoint on an edge task, or an edge-readout one on
    a node task, is a usage error, not a traceback or wrong-row metrics."""
    tx, labels = dataset
    edge_tx = with_edge_labels(tx, tmp_path / "edges.csv")
    ckpt = tmp_path / "model.json"
    node_task = ["--node-labels", labels]
    train = train_args(edge_tx, labels, tmp_path / "run", "--epochs", 1,
                       "--checkpoint", ckpt)
    if trained_on == "edge":
        train = [a for a in train if a not in node_task]
    assert run(train) == 0
    capsys.readouterr()
    rc = run(["eval", "--checkpoint", ckpt, "--data", edge_tx,
              *(node_task if trained_on == "edge" else [])])
    assert rc == 2
    other = "node" if trained_on == "edge" else "edge"
    assert (f"a {trained_on}-readout model cannot evaluate a {other} task"
            in capsys.readouterr().err)


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


def test_diverging_training_exit_1(dataset, tmp_path, capsys):
    tx, labels = dataset
    with np.errstate(all="ignore"):
        rc = run(train_args(tx, labels, tmp_path / "o",
                            "--learning-rate", "1e154"))
    assert rc == 1
    assert "training failed:" in capsys.readouterr().err


def test_node_listed_twice_in_sidecar_exit_2(dataset, tmp_path, capsys):
    tx, labels = dataset
    twice = tmp_path / "twice.labels.csv"
    twice.write_text("node,label\n0,1\n0,0\n")
    assert run(train_args(tx, twice, tmp_path / "o")) == 2
    assert "row 2: node '0' is listed twice" in capsys.readouterr().err


@pytest.mark.parametrize("extra,message", [
    (["--config", "edge_agg=bogus"], "unknown aggregation kind 'bogus'"),
    (["--seeds", "0,x"], "--seeds"),
    (["--seeds", "0,1,0"], "repeats a seed"),
    (["--batch-size", 0], "batch_size"),
    (["--batch-size", -5], "batch_size"),
    (["--epochs", 0], "epochs"),
    (["--patience", -1], "patience"),
    (["--hidden", 0], "widths"),
    (["--mlp-hidden", 0], "widths"),
    (["--edge-agg", "bogus"], "unknown aggregation kind 'bogus'"),
    (["--config", "epochs=soon"], "epochs: unparseable value 'soon'"),
    (["--epochs", "soon"], "epochs: unparseable value 'soon'"),
    (["--config", "model=gcn"], "unknown model 'gcn'"),
    (["--model", "gcn"], "unknown model 'gcn'"),
    (["--config", "ego_ids=true"], "unknown key 'ego_ids'"),
    (["--config", "epochs=3\n# later\nepochs=4"],
     "line 3: key 'epochs' is set twice"),
    (["--learning-rate", "inf"], "learning_rate must be positive and finite"),
    (["--class-weight-1", "inf"], "class weights must be positive and finite"),
    (["--class-weight-0", "nan"], "class weights must be positive and finite"),
], ids=["unknown-agg", "bad-seeds", "repeated-seed", "batch-0",
        "batch-negative", "epochs-0", "patience-negative", "hidden-0",
        "mlp-hidden-0", "unknown-agg-flag", "unparseable-epochs",
        "unparseable-epochs-flag", "unknown-model", "unknown-model-flag",
        "ego-ids-file", "repeated-key-file", "learning-rate-inf",
        "class-weight-1-inf", "class-weight-0-nan"])
def test_malformed_configuration_exit_2(dataset, tmp_path, capsys, extra,
                                        message):
    tx, labels = dataset
    if extra[0] == "--config":
        cfg = tmp_path / "c.cfg"
        cfg.write_text(extra[1] + "\n")
        extra = ["--config", cfg]
    out_dir = tmp_path / "o"
    assert run(train_args(tx, labels, out_dir, *extra)) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()          # rejected before anything is run


@pytest.mark.parametrize("flag", ["--ego-ids", "--no-ego-ids"])
def test_ego_ids_flag_is_unknown_exit_2(dataset, tmp_path, capsys, flag):
    """Full-graph training cannot mark ego nodes, so no flag sets them."""
    tx, labels = dataset
    with pytest.raises(SystemExit) as excinfo:
        run(train_args(tx, labels, tmp_path / "o", flag))
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_labelless_schema_without_sidecar_exit_2(dataset, tmp_path, capsys):
    tx, _ = dataset
    rc = run(["train", "--data", tx, "--schema", "eth",
              "--out-dir", tmp_path / "o"])
    assert rc == 2


def test_check_subcommand_report(tmp_path, capsys):
    report = tmp_path / "rep.json"
    rc = run(["check", "--suite", "expressivity", "--suite", "port-witness",
              "--suite", "connectivity", "--out", report])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS] expressivity" in out and "[PASS] connectivity" in out
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert [s["suite"] for s in payload["suites"]] == [
        "expressivity", "port-witness", "connectivity"]


def test_check_suite_selection_and_exit_code(monkeypatch, capsys):
    """By default check runs every suite but the slow planted-separation;
    'all' runs that too, and a failed suite makes the exit code 1."""
    ran, passes = [], {"fast": True, "planted-separation": True}

    def fake(name):
        def suite():
            ran.append(name)
            return {"suite": name, "passed": passes[name], "seconds": 0.0}
        return suite

    monkeypatch.setattr(checks, "SUITES", {n: fake(n) for n in passes})
    assert run(["check"]) == 0 and ran == ["fast"]
    ran.clear()
    assert run(["check", "--suite", "all"]) == 0
    assert ran == ["fast", "planted-separation"]
    passes["planted-separation"] = False
    assert run(["check"]) == 0
    assert run(["check", "--suite", "all"]) == 1
    assert "[FAIL] planted-separation" in capsys.readouterr().out


def test_check_unknown_suite_exit_2(capsys):
    assert run(["check", "--suite", "nonsense"]) == 2


# each suite's report keys in order, and toy arguments that run it fast
SUITE_REPORTS = {
    "equivariance": (dict(num_graphs=1), ["graphs", "combinations_checked",
                                          "failures"]),
    "node-ids": (dict(num_graphs=2), ["graphs", "failures"]),
    "port-witness": (dict(n_values=(4,), trials=1), ["witnesses"]),
    "expressivity": ({}, ["values"]),
    "gradients": (dict(num_graphs=1, directions=1),
                  ["graphs", "max_rel_error", "failures"]),
    "complexity": (dict(sizes=(100, 200)), ["counts", "ratios"]),
    "connectivity": (dict(num_graphs=2), ["graphs", "failures"]),
    "planted-separation": (dict(num_nodes=40, seeds=(0,), epochs=1),
                           ["max_of_sums", "out_neighbor_count", "min_gap"]),
}


def test_suites_register_in_order_and_stamp_their_reports():
    """SUITES holds the eight suites in order; each report starts with the
    suite's registered name and "passed" and ends with its run time."""
    assert list(checks.SUITES) == list(SUITE_REPORTS)
    for name, (kwargs, keys) in SUITE_REPORTS.items():
        report = checks.SUITES[name](**kwargs)
        assert list(report) == ["suite", "passed", *keys, "seconds"]
        assert report["suite"] == name and report["seconds"] >= 0


def _corrupt_nan(p):
    p["mlps"][0]["weights"][0][0] = float("nan")


def _corrupt_truncate(p):
    p["mlps"][1]["weights"][0] = p["mlps"][1]["weights"][0][:-1]


def _corrupt_spec(**entries):
    return lambda p: p["feature_spec"].update(entries)


@pytest.fixture(scope="module")
def clean_checkpoint(tmp_path_factory):
    """The payload of a default-width checkpoint that, uncorrupted, scores
    the dataset fixture's data; saved once, since saving takes most of a
    case's time."""
    from meganet.data import FeatureSpec
    from meganet.model import Model, ModelConfig, save_checkpoint

    ckpt = tmp_path_factory.mktemp("clean") / "model.json"
    save_checkpoint(Model(ModelConfig(), 1, 2), ckpt,
                    FeatureSpec(ts_mean=0.0, ts_std=1.0, amount_mean=0.0,
                                amount_std=1.0))
    return json.loads(ckpt.read_text())


@pytest.mark.parametrize("corrupt", [
    _corrupt_nan,
    lambda p: p.update(format_version=3),
    lambda p: "{not json",
    _corrupt_truncate,
    lambda p: p.pop("d_edge_in"),
    lambda p: p["feature_spec"].pop("ts_std"),
    _corrupt_spec(amount_mean=float("nan")),
    _corrupt_spec(ts_mean=float("inf")),
    _corrupt_spec(ts_std=0.0),
    _corrupt_spec(amount_std=float("inf")),
    _corrupt_spec(categories={"currency": "USD"}),
    _corrupt_spec(categories={"currency": ["USD", 1]}),
    _corrupt_spec(categories=["currency"]),
    lambda p: p["mlps"][-1]["weights"].pop(),
], ids=["nan-weight", "format-version-3", "not-json", "truncated-weights",
        "missing-key", "spec-missing-key", "spec-nan-mean", "spec-inf-mean",
        "spec-zero-std", "spec-inf-std", "spec-categories-a-string",
        "spec-category-not-a-string", "spec-categories-a-list",
        "mlp-layer-dropped"])
def test_malformed_checkpoint_exit_2(dataset, clean_checkpoint, tmp_path,
                                    capsys, corrupt):
    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    payload = copy.deepcopy(clean_checkpoint)
    text = corrupt(payload)
    ckpt.write_text(text if isinstance(text, str) else json.dumps(payload))
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels])
    assert rc == 2
    assert "checkpoint" in capsys.readouterr().err


def test_unknown_dtype_checkpoint_exit_2(dataset, tmp_path, capsys):
    from meganet.model import Model, ModelConfig, save_checkpoint

    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    save_checkpoint(Model(ModelConfig(), 1, 1), ckpt)
    payload = json.loads(ckpt.read_text())
    payload["config"]["dtype"] = "float16"
    ckpt.write_text(json.dumps(payload))
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels])
    assert rc == 2
    assert "unknown dtype 'float16'" in capsys.readouterr().err


@pytest.mark.parametrize("saved,echoed,message", [
    # written before the baseline ran both directions: one direction's
    # weights under a config that says two
    ({"two_stage": False, "bidirectional": False}, {"bidirectional": True},
     "checkpoint MLPs: missing ['layer0.rev_msg_net', "
     "'layer0.rev_edge_update_net', 'layer1.rev_msg_net']"),
    # trained on an ego column that marked every labeled node; refused as
    # its config is read, before the weights are matched
    ({}, {"ego_ids": True}, "checkpoint config: unknown ['ego_ids']"),
], ids=["single-stage-bidirectional", "ego-ids"])
def test_checkpoint_of_an_unhonoured_switch_exit_2(dataset, tmp_path, capsys,
                                                   saved, echoed, message):
    from meganet.model import Model, save_checkpoint

    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    save_checkpoint(Model(ModelConfig(hidden_node=4, hidden_edge=4,
                                      mlp_hidden=4, **saved), 1, 1), ckpt)
    payload = json.loads(ckpt.read_text())
    payload["config"].update(echoed)
    ckpt.write_text(json.dumps(payload))
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_pna_subset_checkpoint_exit_2(dataset, tmp_path, capsys):
    from meganet.agg import AggSpec
    from meganet.model import Model, save_checkpoint

    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    save_checkpoint(Model(ModelConfig(edge_agg=AggSpec("pna"), hidden_node=4,
                                      hidden_edge=4, mlp_hidden=4), 1, 1),
                    ckpt)
    payload = json.loads(ckpt.read_text())
    payload["config"]["edge_agg"]["pna_stats"] = ["mean", "max"]
    ckpt.write_text(json.dumps(payload))
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels])
    assert rc == 2
    assert ("checkpoint edge_agg: unknown ['pna_stats']"
            in capsys.readouterr().err)


def test_infinite_mean_log_degree_checkpoint_exit_2(dataset, tmp_path, capsys):
    """A PNA normaliser of Infinity (valid JSON to Python's reader) would
    scale every amplification to 0 and score NaN logits."""
    from meganet.agg import AggSpec
    from meganet.model import Model, save_checkpoint

    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    save_checkpoint(Model(ModelConfig(node_agg=AggSpec("pna"), hidden_node=4,
                                      hidden_edge=4, mlp_hidden=4), 1, 1),
                    ckpt)
    payload = json.loads(ckpt.read_text())
    payload["config"]["node_agg"]["mean_log_degree"] = float("inf")
    ckpt.write_text(json.dumps(payload))
    assert "Infinity" in ckpt.read_text()
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels])
    assert rc == 2
    assert "mean_log_degree must be positive and finite" in \
        capsys.readouterr().err


def test_gen_out_neighbor_count_needs_median_degree_2(tmp_path, capsys):
    rc = run(["gen", "--task", "out_neighbor_count", "--senders", 1,
              "--num-nodes", 40, "--out", tmp_path / "tx.csv"])
    assert rc == 2
    assert "median out-degree" in capsys.readouterr().err
    assert not (tmp_path / "tx.csv").exists()


@pytest.mark.parametrize("column,value,message", [
    ("amount", "nan", "amount 'nan' is not a finite number"),
    ("timestamp", "inf", "timestamp 'inf' is not a finite number"),
    ("label", "2", "label '2' must be 0 or 1"),
    ("timestamp", "1e300", "timestamp '1e300' is outside the int64 range"),
    ("src", "", "src is empty"),
    ("amount", None, "fewer fields than the header"),
], ids=["nan-amount", "inf-timestamp", "label-2", "huge-timestamp",
        "empty-src", "short-row"])
def test_malformed_transaction_row_exit_2(tmp_path, capsys, column, value,
                                          message):
    header = ["src", "dst", "timestamp", "amount", "label"]
    rows = [[str(k % 3), str((k + 1) % 3), str(k), "1.5", str(k % 2)]
            for k in range(10)]
    rows[6][header.index(column)] = value
    if value is None:                       # the row ends before column
        del rows[6][header.index(column):]
    tx = tmp_path / "tx.csv"
    tx.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    rc = run(["train", "--data", tx, "--out-dir", tmp_path / "o",
              "--epochs", 1])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 7" in err and message in err


def test_config_file_values_take_the_type_of_their_default(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("\n".join(f"{k}={v}" for k, v in DEFAULTS.items()))
    parsed = read_config_file(cfg)
    assert parsed == DEFAULTS
    assert all(type(parsed[k]) is type(v) for k, v in DEFAULTS.items())


def ten_row_csv(path, header=b"src,dst,timestamp,amount,label", rows=None):
    """A generated-schema transaction CSV; rows replaces data rows by their
    1-based number."""
    lines = [f"{k % 3},{(k + 1) % 3},{k},1.5,{k % 2}".encode()
             for k in range(10)]
    for rownum, line in (rows or {}).items():
        lines[rownum - 1] = line
    path.write_bytes(b"\n".join([header, *lines, b""]))
    return path


@pytest.mark.parametrize("header,rows,message", [
    (b"src,dst,timestamp,amount,label", {7: b"0,1,6,1.5,0,7"},
     "tx.csv row 7: more fields than the header"),
    (b"src,dst,timestamp,amount,amount,label", {},
     "tx.csv: the header must name column(s) ['amount'] once"),
    (b"src,dst,timestamp,amount,label", {7: b"\xff,1,6,1.5,0"},
     "tx.csv: not UTF-8 CSV text"),
], ids=["more-fields", "column-twice", "not-utf8"])
def test_malformed_transaction_file_exit_2(tmp_path, capsys, header, rows,
                                           message):
    tx = ten_row_csv(tmp_path / "tx.csv", header, rows)
    rc = run(["train", "--data", tx, "--out-dir", tmp_path / "o",
              "--epochs", 1])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("sidecar,message", [
    (b"node,label\n0,-1\n1,-1,junk\n",
     "bad.labels.csv row 2: more fields than the header"),
    (b"node,label\n0,-1\n\xe9,0\n", "bad.labels.csv: not UTF-8 CSV text"),
    (b"node,label\n0,1\n1,0\n2,1\n3,0\n", "too few labeled nodes to split"),
], ids=["more-fields", "not-utf8", "four-labeled"])
def test_malformed_sidecar_file_exit_2(dataset, tmp_path, capsys, sidecar,
                                       message):
    tx, _ = dataset
    bad = tmp_path / "bad.labels.csv"
    bad.write_bytes(sidecar)
    assert run(train_args(tx, bad, tmp_path / "o")) == 2
    assert message in capsys.readouterr().err


def test_amounts_whose_mean_overflows_exit_2(tmp_path, capsys):
    """Standardising finite amounts whose sum overflows float64 is a data
    error naming the column; tier-1 turns a numpy warning into a failure."""
    tx = ten_row_csv(tmp_path / "tx.csv", rows={
        1: b"0,1,0,1e308,0", 2: b"1,2,1,1.5e308,1", 3: b"2,0,2,1.7e308,0"})
    rc = run(["train", "--data", tx, "--out-dir", tmp_path / "o",
              "--epochs", 1])
    assert rc == 2
    assert "amount: the training rows' mean or standard deviation " \
        "overflows float64" in capsys.readouterr().err


def test_amount_too_far_from_the_training_mean_exit_2(tmp_path, capsys):
    """A later row whose z-score overflows float64 is a data error naming
    its column and row, though the training statistics are finite."""
    rows = {k: f"{k % 3},{(k + 1) % 3},{k - 1},-1e307,0".encode()
            for k in range(1, 8)}
    rows.update({8: b"1,2,7,1.79e308,1", 9: b"2,0,8,1e308,0",
                 10: b"0,1,9,1e308,1"})
    tx = ten_row_csv(tmp_path / "tx.csv", rows=rows)
    rc = run(["train", "--data", tx, "--out-dir", tmp_path / "o",
              "--epochs", 1])
    assert rc == 2
    assert "amount: row 8 (1.79e+308) lies too far from the training rows' " \
        "mean to standardise in float64" in capsys.readouterr().err


def test_checkpoint_that_is_not_utf8_exit_2(dataset, tmp_path, capsys):
    tx, labels = dataset
    ckpt = tmp_path / "model.json"
    ckpt.write_bytes(b'{"format_version": "\xff"}')
    rc = run(["eval", "--checkpoint", ckpt, "--data", tx,
              "--node-labels", labels])
    assert rc == 2
    assert "checkpoint is not JSON" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exit_2(dataset, tmp_path, capsys):
    tx, labels = dataset
    cfg = tmp_path / "c.cfg"
    cfg.write_bytes(b"epochs=1\n# caf\xe9\n")
    with pytest.raises(ConfigError, match="not UTF-8 text"):
        read_config_file(cfg)
    assert run(train_args(tx, labels, tmp_path / "o", "--config", cfg)) == 2
    assert "c.cfg: not UTF-8 text" in capsys.readouterr().err


def test_data_path_naming_a_directory_exit_2(tmp_path, capsys):
    rc = run(["train", "--data", tmp_path, "--out-dir", tmp_path / "o"])
    assert rc == 2
    assert "Is a directory" in capsys.readouterr().err
