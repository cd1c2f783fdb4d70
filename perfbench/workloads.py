"""The benchmark's workloads: what one round runs and what it leaves to check.

A round is one timed run of the workload: a sequence of CLI commands on a
fresh workspace. `execute` is the timed part; `collect` turns what it
produced into operations whose artifacts the checks read, outside the
timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from churnfusion import cli, pipeline
from churnfusion.audio_features import AudioClip


@dataclass
class Op:
    """One operation of a round: a CLI command."""

    name: str
    error: str | None = None  # what it raised or printed when it failed to run
    artifacts: dict[str, bytes] = field(default_factory=dict)  # bytes the checks read
    digests: dict[str, str] = field(default_factory=dict)  # every output, for determinism


def digest(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    config_text: str
    commands: tuple[str, ...]  # CLI argv prefixes

    def config(self, seed: int) -> pipeline.RunConfig:
        return pipeline.with_seed(pipeline.parse_config_text(self.config_text), seed)

    def op_names(self) -> list[str]:
        return [c.replace(" ", "_") for c in self.commands]

    def prepare(self, work: Path) -> None:
        """Fresh, empty workspace; outside the timed region."""
        shutil.rmtree(work, ignore_errors=True)
        (work / "ws").mkdir(parents=True)
        (work / "config.txt").write_text(self.config_text, encoding="utf-8")

    def execute(self, cfg: pipeline.RunConfig, work: Path, tracer=None):
        """The timed part of one round."""
        outcomes = []
        for command in self.commands:
            argv = command.split() + ["--out", str(work / "ws"), "--seed", str(cfg.seed),
                                      "--config", str(work / "config.txt")]
            out, err = io.StringIO(), io.StringIO()
            span = tracer.span(f"cli.{command.replace(' ', '_')}") if tracer else contextlib.nullcontext()
            try:
                with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # cli.main lets unexpected errors escape
                code, err = 1, io.StringIO(repr(exc))
            outcomes.append((code, out.getvalue(), err.getvalue()))
        return outcomes

    def collect(self, work: Path, produced) -> list[Op]:
        ws = work / "ws"
        files = {p.relative_to(ws).as_posix(): p for p in sorted(ws.rglob("*")) if p.is_file()}
        ops = []
        for name, (code, out, err) in zip(self.op_names(), produced):
            op = Op(name, error=None if code == 0 else (err.strip() or f"exit code {code}"))
            # each round has its own workspace, and commands print its path
            op.digests["stdout"] = digest(out.replace(str(ws), "<ws>").encode("utf-8"))
            ops.append(op)
        by_name = {op.name: op for op in ops}
        for rel, path in files.items():
            blob = path.read_bytes()
            op = by_name.get(_owner(rel), ops[-1])
            op.digests[rel] = digest(blob)
            if not rel.startswith("data/audio/") and not rel.startswith("models/"):
                op.artifacts[rel] = blob
        return ops


def _owner(rel: str) -> str:
    """The CLI command that writes a workspace file."""
    if rel.startswith("data/"):
        return "gen"
    if rel == "models/churn_hybrid.bin":
        return "evaluate_hybrid"
    if rel.startswith("models/"):
        return "train_" + rel[len("models/"):].split(".")[0]
    if rel.startswith("reports/"):
        strategy = rel.rsplit("_", 1)[-1].split(".")[0]
        return f"evaluate_{strategy}"
    return ""


def workspace_bytes(work: Path) -> int:
    return sum(p.stat().st_size for p in (work / "ws").rglob("*") if p.is_file())


def read_wav(path: Path) -> AudioClip:
    with wave.open(str(path), "rb") as wav:
        rate = wav.getframerate()
        pcm = np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2")
    return AudioClip(samples=pcm / 32767.0, sample_rate=rate)


def reference_inputs(work: Path):
    """Ground truth, churn outcomes and cohort clips (name, clip) in id order,
    read from a round's workspace files."""
    data = work / "ws" / "data"
    truth = {}
    for line in (data / "ground_truth.csv").read_text(encoding="utf-8").splitlines()[1:]:
        cid, tier, _ = line.split(",")
        truth[cid] = tier
    lines = (data / "table.csv").read_text(encoding="utf-8").splitlines()
    col = lines[0].split(",").index("churn_outcome")
    outcomes = {cells[0]: int(cells[col]) for cells in (ln.split(",") for ln in lines[1:])}
    # a generator, so WAV files are decoded only as far as the sample scan reads
    clips = ((p.name, read_wav(p)) for p in sorted((data / "audio").glob("*.wav")))
    return truth, outcomes, clips


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_workspace",
            "synth.n_customers = 300\nsynth.coupling = 0.9\nsynth.clip_duration_s = 0.5\n",
            ("gen", "train fl", "train ser", "train churn",
             "evaluate none", "evaluate late", "evaluate hybrid"),
        ),
        Workload(
            "tabular2k",
            "synth.n_customers = 2000\nsynth.coupling = 0.9\nsynth.clip_duration_s = 0.5\n",
            ("gen", "train fl", "train churn", "evaluate none"),
        ),
    )
}
