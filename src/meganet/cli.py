"""Command-line entry point.

Subcommands: gen (synthetic datasets), train, eval, check (property
suites). Option precedence is command-line flag > config-file entry >
built-in default; the effective configuration is echoed into every output
record. Exit codes: 0 success, 1 failed checks or failed training,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import checks
from .data import (
    ConfigError,
    IngestionError,
    SCHEMAS,
    SplitSpec,
    compute_feature_spec,
    generate_planted_task,
    load_node_labels,
    load_transactions,
    temporal_split,
    to_multigraph,
    write_node_labels_csv,
    write_transactions_csv,
)
from .agg import AggError, AggSpec
from .model import ModelConfig, ModelError, load_checkpoint, save_checkpoint
from .nn import NnError
from .train import (TaskData, TrainConfig, TrainingError, evaluate_model,
                    random_item_split, train_model)

_MODELS = ("single-stage-gin", "two-stage")     # indexed by two_stage
_MODEL, _TRAIN = ModelConfig(), TrainConfig()
# option defaults, read off the reference hyperparameters the two configs hold
DEFAULTS = {
    "learning_rate": _TRAIN.learning_rate,
    "hidden": _MODEL.hidden_node,
    "batch_size": _TRAIN.batch_size,
    "dropout": _MODEL.dropout,
    "class_weight_0": _TRAIN.class_weights[0],
    "class_weight_1": _TRAIN.class_weights[1],
    "num_layers": _MODEL.num_layers,
    "epochs": _TRAIN.epochs,
    "patience": _TRAIN.patience,
    "model": _MODELS[_MODEL.two_stage],
    "bidirectional": _MODEL.bidirectional,
    "ego_ids": _MODEL.ego_ids,
    "edge_agg": _MODEL.edge_agg.kind,
    "node_agg": _MODEL.node_agg.kind,
    "mlp_hidden": _MODEL.mlp_hidden,
}


def _coerce(key: str, raw: str):
    """Parse raw as the type of the key's DEFAULTS value."""
    kind = type(DEFAULTS[key])
    if kind is bool:
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        return kind(raw.strip())
    except ValueError:
        raise ConfigError(f"{key}: unparseable value {raw!r}") from None


def read_config_file(path) -> dict:
    """key=value lines; blank lines and # comments are ignored."""
    out = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected key=value")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{path} line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def effective_config(args) -> dict:
    """DEFAULTS, overridden by the config file, overridden by the flags."""
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            # a boolean flag stores its value, any other its raw string
            cfg[key] = _coerce(key, flag) if isinstance(flag, str) else flag
    if cfg["model"] not in _MODELS:
        raise ConfigError(f"unknown model {cfg['model']!r}")
    return cfg


def _configs(cfg: dict, readout: str) -> tuple[ModelConfig, TrainConfig]:
    """The model and training configs of an effective configuration."""
    model = ModelConfig(
        num_layers=cfg["num_layers"],
        bidirectional=cfg["bidirectional"],
        ego_ids=cfg["ego_ids"],
        edge_agg=AggSpec(cfg["edge_agg"]),
        node_agg=AggSpec(cfg["node_agg"]),
        readout=readout,
        two_stage=cfg["model"] == _MODELS[True],
        hidden_node=cfg["hidden"],
        hidden_edge=cfg["hidden"],
        mlp_hidden=cfg["mlp_hidden"],
        dropout=cfg["dropout"],
    )
    train = TrainConfig(
        learning_rate=cfg["learning_rate"],
        batch_size=cfg["batch_size"],
        dropout=cfg["dropout"],
        class_weights=(cfg["class_weight_0"], cfg["class_weight_1"]),
        epochs=cfg["epochs"],
        patience=cfg["patience"],
    )
    return model, train


def _node_split(items: np.ndarray, seed: int) -> dict:
    """The train/val/test split of a node task's labeled items under seed."""
    tr, va, te = random_item_split(items.size, seed + 101)
    return dict(train_idx=tr, val_idx=va, test_idx=te)


def _load_task(args, seed: int) -> TaskData:
    """Build TaskData from a transaction CSV (edge or node labels)."""
    schema = SCHEMAS[args.schema]
    if args.node_labels:
        # labels come from the sidecar, not from a transaction column
        schema = dataclasses.replace(schema, label=None)
    table = load_transactions(args.data, schema)
    if args.node_labels:
        table.node_labels = load_node_labels(args.node_labels,
                                             table.account_names)
        spec = compute_feature_spec(table)
        g, _, node_labels = to_multigraph(table, spec)
        items = np.flatnonzero(node_labels >= 0)
        if items.size < 5:
            raise ConfigError("too few labeled nodes to split")
        return TaskData(graph=g, labels=node_labels[items], items=items,
                        task_type="node", **_node_split(items, seed))
    if table.labels is None:
        raise ConfigError(
            f"schema {args.schema!r} has no label column; pass --node-labels")
    tr, va, te = temporal_split(table, SplitSpec())
    spec = compute_feature_spec(table, tr)
    g, edge_labels, _ = to_multigraph(table, spec)
    return TaskData(graph=g, labels=edge_labels,
                    items=np.arange(g.num_edges), task_type="edge",
                    train_idx=tr, val_idx=va, test_idx=te)


def cmd_gen(args) -> int:
    g, labels = generate_planted_task(args.num_nodes, args.senders,
                                      args.payments, args.task, args.seed)
    rows = write_transactions_csv(args.out, g)
    labels_path = args.labels_out or str(args.out) + ".labels.csv"
    write_node_labels_csv(labels_path, labels)
    print(f"wrote {rows} transactions to {args.out}")
    print(f"wrote node labels to {labels_path}")
    return 0


def cmd_train(args) -> int:
    cfg = effective_config(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        raise ConfigError(f"--seeds: bad seed list {args.seeds!r}") from None
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"--seeds: {args.seeds!r} repeats a seed")
    # checked before any data is read; a node-label file makes a node task
    model_config, train_config = _configs(
        cfg, readout="node" if args.node_labels else "edge")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # the CSV is read once; only a node task's split depends on the seed
    task = _load_task(args, seeds[0])
    records = []
    first_model = None
    for seed in seeds:
        if task.task_type == "node":
            task = dataclasses.replace(task, **_node_split(task.items, seed))
        model, rec = train_model(task, model_config, train_config, seed=seed)
        rec.config["effective"] = cfg
        rec.save(out_dir / f"record_seed{seed}.json")
        records.append(rec)
        if first_model is None:
            first_model = model
        print(f"seed {seed}: test F1 {rec.final_metrics['f1']:.4f} "
              f"(best epoch {rec.best_epoch})")

    f1s = np.array([r.final_metrics["f1"] for r in records])
    summary = {
        "effective_config": cfg,
        "seeds": seeds,
        "f1_mean": float(f1s.mean()),
        "f1_std": float(f1s.std()),
        "f1_per_seed": f1s.tolist(),
    }
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"mean test F1 {summary['f1_mean']:.4f} "
          f"+- {summary['f1_std']:.4f} over {len(seeds)} seed(s)")
    if args.checkpoint:
        save_checkpoint(first_model, args.checkpoint)
        print(f"saved checkpoint to {args.checkpoint}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    metrics = evaluate_model(model, _load_task(args, seed=args.seed),
                             args.split)
    print(json.dumps({"split": args.split, "metrics": metrics}, indent=2,
                     sort_keys=True))
    return 0


def cmd_check(args) -> int:
    if args.suite:
        names = list(dict.fromkeys(args.suite))
        unknown = [n for n in names if n != "all" and n not in checks.SUITES]
        if unknown:
            raise ConfigError(f"unknown suite(s) {unknown}")
        if "all" in names:
            names = list(checks.SUITES)
    else:
        # everything except the slow trained-model separations
        names = [n for n in checks.SUITES if n != "planted-separation"]

    reports = []
    all_passed = True
    for name in names:
        report = checks.SUITES[name]()
        reports.append(report)
        status = "PASS" if report["passed"] else "FAIL"
        print(f"[{status}] {name} ({report['seconds']:.1f}s)")
        all_passed &= report["passed"]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"passed": all_passed, "suites": reports}, fh,
                      indent=2, sort_keys=True, default=str)
        print(f"wrote report to {args.out}")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meganet",
        description="two-stage multigraph message passing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic planted dataset")
    p.add_argument("--task", required=True,
                   choices=("max_of_sums", "out_neighbor_count"))
    p.add_argument("--num-nodes", type=int, default=500)
    p.add_argument("--senders", type=int, default=2,
                   help="senders per labeled node (or median out-degree)")
    p.add_argument("--payments", type=int, default=2,
                   help="parallel payments per sender")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="transactions CSV to write")
    p.add_argument("--labels-out", help="node-label CSV (default <out>.labels.csv)")
    p.set_defaults(fn=cmd_gen)

    def add_common(p):
        p.add_argument("--data", required=True, help="transactions CSV")
        p.add_argument("--schema", default="generated", choices=sorted(SCHEMAS))
        p.add_argument("--node-labels", help="sidecar node-label CSV")

    p = sub.add_parser("train", help="train and evaluate across seeds")
    add_common(p)
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--checkpoint", help="write first-seed model weights here")
    for key, default in DEFAULTS.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            group = p.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, action="store_true",
                               default=None, help=f"(default {default})")
            group.add_argument("--no-" + flag[2:], dest=key,
                               action="store_false", default=None)
        else:
            # parsed by effective_config, as a config-file value is
            p.add_argument(flag, dest=key, help=f"(default {default})")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a saved checkpoint")
    add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--seed", type=int, default=0,
                   help="split seed for node-label tasks")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite", action="append",
                   help=f"one of {', '.join(checks.SUITES)} or 'all'; "
                        "repeatable (default: all fast suites)")
    p.add_argument("--out", help="write a JSON report here")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AggError, ConfigError, IngestionError, ModelError, NnError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
