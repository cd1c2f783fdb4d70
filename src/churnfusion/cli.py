"""Command-line experiment harness.

Every command takes the same three flags. Settings, thresholds and the
``compare`` seed list come only from the --config file; --seed overrides
its top-level seed. Workspace layout under --out: ``data/`` (cohort
files), ``models/`` (versioned binaries), ``reports/`` (assignment tables
and metric reports). All commands re-derive the train/test split from the
top-level seed, so trainers and evaluators agree without extra bookkeeping.
``train`` and ``evaluate`` share `pipeline.Split` and `pipeline.assign`
with `pipeline.run_experiment`; ``evaluate`` reads ``models/<name>.bin``,
except that ``evaluate hybrid`` trains and writes ``churn_hybrid.bin``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import churn_model as cm
from . import fl_model as flm
from . import fusion
from . import metrics
from . import pipeline
from . import ser_model as serm
from . import synth
from .errors import ChurnFusionError, MissingModality


def _workspace(args) -> tuple[Path, Path, Path]:
    out = Path(args.out)
    return out / "data", out / "models", out / "reports"


def _read_cohort(data_dir: Path) -> synth.SyntheticCohort:
    if not (data_dir / "table.csv").exists():
        raise MissingModality(f"no cohort at {data_dir}; run 'gen' first")
    return synth.read_cohort(data_dir)


def cmd_gen(args) -> int:
    cfg = pipeline.load_config(args.config, args.seed)
    data_dir, _, _ = _workspace(args)
    cohort = synth.generate_cohort(cfg.synth)
    synth.write_cohort(cohort, data_dir)
    print(f"cohort={len(cohort.table)}")
    print(f"data_dir={data_dir}")
    return 0


# save and load of each model blob under models/
BLOBS = {
    "fl": (flm.save_fl_model, flm.load_fl_model),
    "ser": (serm.save_emotion_model, serm.load_emotion_model),
    "churn": (cm.save_churn_model, cm.load_churn_model),
    "churn_hybrid": (cm.save_churn_model, cm.load_churn_model),
}


def _save_model(model_dir: Path, name: str, model) -> Path:
    model_dir.mkdir(parents=True, exist_ok=True)
    path = model_dir / f"{name}.bin"
    path.write_bytes(BLOBS[name][0](model))
    return path


def _stored_model(model_dir: Path, split: pipeline.Split, name: str):
    """Model source reading models/; the hybrid churn model is trained and written here."""
    if name == "churn_hybrid":
        model = pipeline.train_model(split, name)
        _save_model(model_dir, name, model)
        return model
    path = model_dir / f"{name}.bin"
    if not path.exists():
        raise MissingModality(f"missing {name} model at {path}; run 'train {name}'")
    try:
        return BLOBS[name][1](path.read_bytes())
    except ValueError as exc:  # a cut, foreign or overlong blob
        raise ValueError(f"unreadable {name} model at {path}: {exc}") from exc


def cmd_train(args) -> int:
    cfg = pipeline.load_config(args.config, args.seed)
    data_dir, model_dir, _ = _workspace(args)
    cohort = _read_cohort(data_dir)
    split = pipeline.Split(cohort, cfg, pipeline.train_model)
    model = split.model(args.modality)
    if args.modality == "fl":
        # coreg_train refuses fewer than two labelled rows, so `known` selects at least two
        known = ~np.isnan(split.train.fl_label)
        pred = flm.predict_fl_batch(model, split.train.features[known])
        rmse = float(np.sqrt(np.mean((pred - split.train.fl_label[known]) ** 2)))
        print(f"train_rmse={rmse!r}")
        print(f"pseudo_labels={len(model.transcript)}")
    else:
        print(f"final_loss={model.final_loss!r}")
    if args.modality == "churn":
        print(f"train_accuracy={model.train_accuracy!r}")
    print(f"model_path={_save_model(model_dir, args.modality, model)}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = pipeline.load_config(args.config, args.seed)
    data_dir, model_dir, report_dir = _workspace(args)
    cohort = _read_cohort(data_dir)
    split = pipeline.Split(cohort, cfg, functools.partial(_stored_model, model_dir))
    assignments = pipeline.assign(args.strategy, split)
    text = metrics.serialize_report(pipeline.evaluate(assignments, split))
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / f"assignments_{args.strategy}.csv").write_bytes(
        fusion.serialize_assignments(assignments)
    )
    (report_dir / f"report_{args.strategy}.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


def cmd_compare(args) -> int:
    cfg = pipeline.load_config(args.config, args.seed)
    _, _, report_dir = _workspace(args)
    rows = pipeline.compare_over_seeds(cfg)
    table = pipeline.format_comparison(rows)
    report_dir.mkdir(parents=True, exist_ok=True)
    (report_dir / "compare.csv").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


def cmd_report(args) -> int:
    _, _, report_dir = _workspace(args)
    found = False
    for path in sorted(report_dir.glob("report_*.txt")) + [report_dir / "compare.csv"]:
        if path.exists():
            found = True
            print(f"# {path.name}")
            print(path.read_text(encoding="utf-8"), end="")
    if not found:
        raise MissingModality(f"no reports under {report_dir}; run 'evaluate' or 'compare'")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="churnfusion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="top-level seed override")
        p.add_argument("--out", default="workspace", help="workspace directory")

    p = sub.add_parser("gen", help="generate a synthetic cohort")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one unimodal model")
    p.add_argument("modality", choices=("fl", "ser", "churn"))
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run one fusion strategy on the held-out split")
    p.add_argument("strategy", choices=pipeline.STRATEGIES)
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="compare all strategies over a seed ensemble")
    common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="print stored reports")
    common(p)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ChurnFusionError, OSError, ValueError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
