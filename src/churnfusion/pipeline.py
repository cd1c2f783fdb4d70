"""Experiment orchestration shared by the CLI and the comparison harness.

One top-level seed drives everything: cohort generation, resampling,
both network trainers, and the train/test split all derive their own
streams from it, so a rerun with the same seed reproduces every artifact
byte for byte. `assign` is the only place a fusion strategy is chosen;
`run_experiment` feeds it models trained in process and the CLI feeds it
models read from a workspace, so both write the same bytes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import churn_model as cm
from . import fl_model as flm
from . import fusion
from . import metrics
from . import ser_model as serm
from . import synth
from .audio_features import FeatureParams, build_feature_maps
from .data_model import CustomerTable, csv_bytes
from .errors import InvalidConfig, MissingModality
from .mlp import TrainConfig

STRATEGIES = ("none", "late", "hybrid")
COMPARED = ("map", "macro_f1", "accuracy", "auc")  # MetricReport fields averaged over seeds


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    test_fraction: float = 0.3
    rfe_k: int = 8
    ser_corpus_per_class: int = 40
    synth: synth.SynthConfig = field(default_factory=synth.SynthConfig)
    smogn: flm.SmognConfig = field(default_factory=flm.SmognConfig)
    coreg: flm.CoregConfig = field(default_factory=flm.CoregConfig)
    smote: cm.SmoteParams = field(default_factory=cm.SmoteParams)
    churn_train: TrainConfig = field(default_factory=TrainConfig)
    ser_train: TrainConfig = field(default_factory=lambda: TrainConfig(epochs=120))
    translation: fusion.TranslationConfig = field(default_factory=fusion.TranslationConfig)
    features: FeatureParams = field(default_factory=FeatureParams)

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise InvalidConfig("test_fraction must lie in (0, 1)")
        if not self.seeds:
            raise InvalidConfig("seeds must be non-empty")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise InvalidConfig(f"seeds must be distinct: {repeated[0]} repeats")


def with_seed(cfg: RunConfig, seed: int) -> RunConfig:
    """Re-derive every nested seed from one top-level seed."""
    return replace(
        cfg,
        seed=seed,
        synth=replace(cfg.synth, seed=seed),
        smogn=replace(cfg.smogn, seed=seed + 1),
        coreg=replace(cfg.coreg, seed=seed + 2),
        churn_train=replace(cfg.churn_train, seed=seed + 3),
        ser_train=replace(cfg.ser_train, seed=seed + 4),
    )


_BOOL = {"true": True, "false": False, "1": True, "0": False}


def _coerce(where: str, value: str, kind):
    if kind is bool:
        try:
            return _BOOL[value.strip().lower()]
        except KeyError:
            raise InvalidConfig(f"{where} must be one of {', '.join(_BOOL)}: {value!r}") from None
    if kind in (int, float, str):
        try:
            return kind(value)
        except ValueError:
            raise InvalidConfig(f"{where} must be {kind.__name__}: {value!r}") from None
    raise InvalidConfig(f"{where} cannot be set from a config file")


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Flat key=value config; dotted keys address nested sections.

    Example: ``synth.n_customers=2000`` or ``rfe_k=6``. ``seeds`` takes a
    comma-separated list. Unknown keys are rejected.
    """
    cfg = base or RunConfig()
    nested_updates: dict[str, dict] = {}
    top_updates: dict = {}
    top_fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        where = f"line {lineno}: {key}"
        if key == "seeds":
            top_updates[key] = tuple(_coerce(where, v, int) for v in value.split(",") if v.strip())
        elif "." in key:
            section, name = key.split(".", 1)
            target = getattr(cfg, section, None)
            if section not in top_fields or not dataclasses.is_dataclass(target):
                raise InvalidConfig(f"line {lineno}: unknown section {section!r}")
            section_fields = {f.name: f for f in dataclasses.fields(target)}
            if name not in section_fields:
                raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
            if name == "seed":
                raise InvalidConfig(f"line {lineno}: set the top-level 'seed', not {key!r}")
            current = getattr(target, name)
            nested_updates.setdefault(section, {})[name] = _coerce(where, value, type(current))
        elif key in top_fields:
            top_updates[key] = _coerce(where, value, type(getattr(cfg, key)))
        else:
            raise InvalidConfig(f"line {lineno}: unknown key {key!r}")
    for section, updates in nested_updates.items():
        top_updates[section] = replace(getattr(cfg, section), **updates)
    return replace(cfg, **top_updates)


def load_config(path: str | Path | None, seed: int | None = None) -> RunConfig:
    cfg = RunConfig()
    if path is not None:
        cfg = parse_config_text(Path(path).read_text(encoding="utf-8"), cfg)
    return with_seed(cfg, seed if seed is not None else cfg.seed)


def split_table(table: CustomerTable, test_fraction: float, seed: int):
    """Deterministic shuffle split; returns (train_table, test_table, is_test) in table order."""
    n = len(table)
    order = np.random.default_rng(seed + 6).permutation(n)
    is_test = np.zeros(n, dtype=bool)
    is_test[order[: max(1, int(round(test_fraction * n)))]] = True
    return table.take(~is_test), table.take(is_test), is_test


def train_fl(train_table: CustomerTable, cfg: RunConfig) -> flm.FLModel:
    known = ~np.isnan(train_table.fl_label)
    X = train_table.features
    return flm.coreg_train(X[known], train_table.fl_label[known], X[~known], cfg.smogn, cfg.coreg)


def train_ser(cfg: RunConfig) -> serm.EmotionModel:
    clips, labels = synth.generate_ser_corpus(
        cfg.ser_corpus_per_class, cfg.synth.clip_duration_s, cfg.seed + 5
    )
    images = build_feature_maps(clips, range(len(clips)), cfg.features)
    return serm.train_emotion(images, labels, cfg.ser_train)


def train_churn_baseline(train_table: CustomerTable, cfg: RunConfig) -> cm.ChurnModel:
    rfe_k = min(cfg.rfe_k, train_table.features.shape[1])
    return cm.train_churn(
        train_table.features, train_table.churn_outcome, rfe_k, cfg.smote, cfg.churn_train
    )


def compute_emotions(table, clips, ser, cfg: RunConfig) -> np.ndarray:
    """Negative-emotion flag (0/1) per row, from the clip its audio_ref names."""
    missing = [cid for cid, ref in zip(table.ids, table.audio_ref) if ref not in clips]
    if missing:
        raise MissingModality(f"{len(missing)} customers have no audio clip, first {missing[0]!r}")
    images = build_feature_maps(clips, table.audio_ref, cfg.features)
    return np.array([serm.predict_emotion(ser, image) for image in images], dtype=int)


class Split:
    """One seed's train/test split of a cohort, with the models it is scored by.

    `source(split, name)` supplies the model called "fl", "ser", "churn" or
    "churn_hybrid": `train_model` trains it in process, the CLI reads it
    from a workspace. Each model and each side's emotion flags are made at
    most once per split, whatever strategies ask for them.
    """

    def __init__(self, cohort: synth.SyntheticCohort, cfg: RunConfig, source):
        self.cohort, self.cfg, self._source = cohort, cfg, source
        self.train, self.test, self.is_test = split_table(cohort.table, cfg.test_fraction, cfg.seed)
        self._models = {}

    def model(self, name: str):
        if name not in self._models:
            self._models[name] = self._source(self, name)
        return self._models[name]

    @cached_property
    def train_emotions(self) -> np.ndarray:
        return compute_emotions(self.train, self.cohort.audio_clips, self.model("ser"), self.cfg)

    @cached_property
    def test_emotions(self) -> np.ndarray:
        return compute_emotions(self.test, self.cohort.audio_clips, self.model("ser"), self.cfg)


def train_model(split: Split, name: str):
    """Train the named model on the split's training side."""
    cfg = split.cfg
    if name == "fl":
        return train_fl(split.train, cfg)
    if name == "ser":
        return train_ser(cfg)
    if name == "churn":
        return train_churn_baseline(split.train, cfg)
    if name == "churn_hybrid":
        rfe_k = min(cfg.rfe_k + 2, split.train.features.shape[1] + 2)
        return fusion.train_hybrid_churn(
            split.train, split.model("fl"), split.train_emotions, rfe_k, cfg.smote, cfg.churn_train
        )
    raise InvalidConfig(f"unknown model {name!r}")


def assign(strategy: str, split: Split) -> fusion.Assignments:
    """Score the split's test side under one fusion strategy."""
    translation = split.cfg.translation
    if strategy == "none":
        return fusion.run_none_fusion(split.test, split.model("churn"), translation)
    if strategy == "late":
        return fusion.run_late_fusion(
            split.test, split.model("fl"), split.model("churn"), split.test_emotions, translation
        )
    if strategy == "hybrid":
        return fusion.run_hybrid_fusion(
            split.test, split.model("fl"), split.model("churn_hybrid"), split.test_emotions,
            translation,
        )
    raise InvalidConfig(f"unknown strategy {strategy!r}")


def evaluate(assignments: fusion.Assignments, split: Split) -> metrics.MetricReport:
    """Metric report of one strategy's test-side assignments against the cohort's truth."""
    return metrics.evaluate_assignments(
        assignments, split.cohort.risk_tier[split.is_test], split.test.churn_outcome
    )


@dataclass
class ExperimentResult:
    assignments: dict[str, fusion.Assignments]
    reports: dict[str, metrics.MetricReport]


def run_experiment(cfg: RunConfig, strategies=STRATEGIES) -> ExperimentResult:
    """Generate, train, and evaluate the requested strategies on one seed."""
    split = Split(synth.generate_cohort(cfg.synth), cfg, train_model)
    assignments = {strategy: assign(strategy, split) for strategy in strategies}
    reports = {strategy: evaluate(a, split) for strategy, a in assignments.items()}
    return ExperimentResult(assignments, reports)


def compare_over_seeds(cfg: RunConfig, strategies=STRATEGIES):
    """Per-strategy mean and std of MAP / macro-F1 / accuracy / AUC over seeds."""
    reports = [run_experiment(with_seed(cfg, seed), strategies).reports for seed in cfg.seeds]
    rows = {}
    for s in strategies:
        rows[s] = {}
        for name in COMPARED:
            vals = [getattr(r[s], name) for r in reports if getattr(r[s], name) is not None]
            if vals:
                rows[s][name] = (float(np.mean(vals)), float(np.std(vals)))
    return rows


def format_comparison(rows: dict) -> str:
    """Comparison table: one metric row, one column per fusion strategy."""
    lines = [["metric", *rows]]
    for name in COMPARED:
        cells = [
            f"{100 * row[name][0]:.1f} +/- {100 * row[name][1]:.1f}" if name in row else ""
            for row in rows.values()
        ]
        lines.append([name, *cells])
    return csv_bytes(lines).decode("utf-8")
