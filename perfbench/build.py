"""Locating the program, and building the benchmark's fixed inputs.

The benchmark runs from the root of a checkout and imports the program
from ``src/``.  Its fixed inputs are built once per checkout with the
code under test and kept under ``.perfbench/<code digest>/``:

* ``corpus/``      the ROADMAP baseline corpus, ``generate --scale 0.05``
  (generator seed 21578, the CLI default; the workload seed never
  reaches it);
* ``serve_model/`` the 3-category (earn, grain, trade) model the serving
  workloads load, trained with the train command's defaults at 300
  tournaments;
* ``serve_model.json`` that model's test-split macro-F1.

The digest covers every file under ``src/``, so a changed program never
reuses inputs built by another version.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

CORPUS_SCALE = "0.05"
TOURNAMENTS = "300"
TRAIN_CATEGORIES = ["earn", "grain"]
SERVE_CATEGORIES = ["earn", "grain", "trade"]


class ProgramMissing(RuntimeError):
    """The checkout holds no program to benchmark."""


def program_env() -> Dict[str, str]:
    """Environment for child processes running the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def import_program() -> None:
    """Make ``import repro`` load the checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def code_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cli(args: List[str]) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=program_env(), check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )


class Inputs:
    """Paths of the built inputs (built on first use)."""

    def __init__(self) -> None:
        import_program()
        self.home = WORK / code_digest()
        self.corpus = self.home / "corpus"
        self.serve_model = self.home / "serve_model"
        self.serve_model_info = self.home / "serve_model.json"
        self.runs = WORK / "runs"

    def build(self) -> "Inputs":
        self.home.mkdir(parents=True, exist_ok=True)
        if not self.corpus.is_dir():
            self._atomic(self.corpus, lambda out: _cli(
                ["generate", "--out", str(out), "--scale", CORPUS_SCALE]))
        if not self.serve_model_info.is_file():
            self._atomic(self.serve_model, lambda out: _cli(
                ["train", "--data", str(self.corpus), "--out", str(out),
                 "--categories", *SERVE_CATEGORIES,
                 "--tournaments", TOURNAMENTS]))
            from repro import load_corpus
            from repro.persistence import load_pipeline

            pipeline = load_pipeline(self.serve_model, load_corpus(self.corpus))
            scores = pipeline.evaluate("test")
            self.serve_model_info.write_text(
                json.dumps({"macro_f1": scores.macro_f1}))
        return self

    @property
    def serve_macro_f1(self) -> float:
        return json.loads(self.serve_model_info.read_text())["macro_f1"]

    def run_dir(self) -> Path:
        """A fresh scratch directory for this run."""
        path = self.runs / str(os.getpid())
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def clean(self) -> None:
        """Remove this run's scratch directory."""
        shutil.rmtree(self.runs / str(os.getpid()), ignore_errors=True)

    @staticmethod
    def _atomic(target: Path, make) -> None:
        partial = target.with_name(target.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        shutil.rmtree(target, ignore_errors=True)
        make(partial)
        partial.rename(target)
