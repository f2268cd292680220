"""The ``train`` workload: repeated in-process fits of the train command.

One operation is ``repro.cli.main(["train", ...])`` with the command's
defaults plus ``--categories earn grain --tournaments 300`` on the
baseline corpus: load the SGML directory, fit the pipeline inline
(``--jobs 0``), save it.  A run holds several identical fits, so its
headline is the median of several and one slow window on the machine
moves one sample, not the run.

Set-up is the import of the program plus ``load_corpus``, timed inside
fresh interpreters (the parent cannot re-import), several times a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from build import TOURNAMENTS, TRAIN_CATEGORIES, Inputs, program_env
from tracing import Tracer, self_totals

#: Set-up probes per run (the median is reported).
SETUP_PROBES = 7

#: Fewest fits a run makes, whatever ``--seconds`` says.
MIN_FITS = 3

_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import repro.cli
from repro import load_corpus
load_corpus(sys.argv[1])
print(time.perf_counter() - start)
"""


def engine_bucket(engine, programs, *args, **kwargs) -> str:
    """FusedEngine.outputs calls by population size: one program, a
    tournament (2-4) or a population (5 and more)."""
    n = len(programs)
    kind = "single" if n == 1 else "tournament" if n <= 4 else "population"
    return f"gp.engine.{kind}"


def install_spans(tracer: Tracer, fit_contexts: List[object]) -> None:
    """Wrap the public entry points of each training layer."""
    import repro.cli as cli
    from repro.classify.binary import RlgpBinaryClassifier
    from repro.encoding.hierarchy import HierarchicalSomEncoder
    from repro.features import ALL_SELECTORS
    from repro.gp.engine import FusedEngine
    from repro.gp.optimize import ProgramOptimizer
    from repro.pipeline import ProSysPipeline
    from repro.preprocessing.pipeline import Preprocessor

    tracer.wrap(cli, "load_corpus", "corpus.load")
    tracer.wrap(cli, "save_pipeline", "persistence.save")
    tracer.wrap(Preprocessor, "document_tokens", "preprocessing.tokenize")
    tracer.wrap(ALL_SELECTORS["mi"], "select", "features.select")
    tracer.wrap(HierarchicalSomEncoder, "fit_character_level",
                "encoding.char_som")
    tracer.wrap(HierarchicalSomEncoder, "fit_category", "encoding.word_soms")
    tracer.wrap(HierarchicalSomEncoder, "encode_dataset",
                "encoding.encode_dataset")
    tracer.wrap(RlgpBinaryClassifier, "fit", "classify.rlgp")
    tracer.wrap(FusedEngine, "outputs", engine_bucket)
    tracer.wrap(ProgramOptimizer, "optimize", "gp.optimize")

    # The fit's RunContext carries the engine's metrics registry; keep a
    # handle to read its counters after the fit.
    original_fit = ProSysPipeline.fit

    def fit(self, corpus, categories=None, ctx=None):
        fit_contexts.append(ctx)
        return original_fit(self, corpus, categories=categories, ctx=ctx)

    tracer.patch(ProSysPipeline, "fit", fit)


def setup_seconds(inputs: Inputs) -> List[float]:
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(inputs.corpus)],
            env=program_env(), check=True, capture_output=True, text=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def champions(model_dir: Path) -> Dict[str, object]:
    manifest = json.loads((model_dir / "manifest.json").read_text())
    return {
        category: (payload["code"], payload["threshold"])
        for category, payload in manifest["classifiers"].items()
    }


def fit_once(inputs: Inputs, out: Path) -> float:
    import repro.cli as cli

    argv = ["train", "--data", str(inputs.corpus), "--out", str(out),
            "--categories", *TRAIN_CATEGORIES, "--tournaments", TOURNAMENTS]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"train exited with {code}")
    return elapsed


def run(inputs: Inputs, seconds: float, trace: bool) -> dict:
    from repro import load_corpus
    from repro.persistence import load_pipeline

    report: List[str] = []
    setup = setup_seconds(inputs)
    corpus = load_corpus(inputs.corpus)
    n_train = len(corpus.train_documents)
    run_dir = inputs.run_dir()

    fits: List[float] = []          # untraced fit+save seconds
    traced_fits: List[float] = []
    in_order: List[float] = []
    per_fit_layers: List[Dict[str, float]] = []
    first: Optional[dict] = None
    mismatched = 0
    started = time.perf_counter()
    index = 0
    while True:
        # Start another fit only if it should end inside the window.
        elapsed = time.perf_counter() - started
        last = in_order[-1] if in_order else 0.0
        enough = len(in_order) >= (2 * MIN_FITS - 2 if trace else MIN_FITS)
        if enough and elapsed + last > seconds:
            break
        out = run_dir / f"fit{index}"
        traced = trace and index % 2 == 1
        if traced:
            tracer, contexts = Tracer(), []
            install_spans(tracer, contexts)
            try:
                traced_fits.append(fit_once(inputs, out))
            finally:
                tracer.uninstall()
            per_fit_layers.append(fit_layers(tracer, contexts[-1]))
            in_order.append(traced_fits[-1])
        else:
            fits.append(fit_once(inputs, out))
            in_order.append(fits[-1])
        current = champions(out)
        if first is None:
            first = current
        elif current != first:
            mismatched += 1
        index += 1

    macro_f1 = load_pipeline(out, corpus).evaluate("test").macro_f1
    fit_s = statistics.median(fits)
    attempted = len(in_order)
    report.append(f"fits: {attempted} ({len(traced_fits)} traced), "
                  f"champions differing from the first fit: {mismatched}")
    report.append("fit+save seconds, in order: "
                  + ", ".join(f"{t:.3f}" for t in in_order))
    result = {
        "attempted": attempted,
        "failed": mismatched,
        "correct": mismatched == 0 and macro_f1 > 0,
        "report": report,
        "inputs": {"train_docs": n_train, "categories": len(TRAIN_CATEGORIES)},
        "timings": {"setup_s": setup, "fit_s": fits},
        "samples": {"setup_s": len(setup), "p50_ms": len(fits),
                    "tail_ms": len(fits), "docs_per_s": len(fits)},
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "p50_ms": fit_s * 1000.0,
            # Fewer than 11 fits: no percentile above the median has ten
            # samples beyond it, so the tail is the median too.
            "tail_ms": fit_s * 1000.0,
            "docs_per_s": n_train / fit_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "macro_f1": macro_f1,
        },
    }
    if trace:
        layers = {
            name: statistics.median(fit[name] for fit in per_fit_layers)
            for name in per_fit_layers[0]
        }
        layers["trace.overhead"] = statistics.median(traced_fits) / fit_s
        result["per_layer"] = layers
        # Every per-layer number is a median over the traced fits.
        result["samples"] = {name: len(traced_fits) for name in layers}
    return result


def fit_layers(tracer: Tracer, ctx) -> Dict[str, float]:
    """One traced fit's per-layer numbers: self seconds per span name,
    engine calls per bucket, and the engine's own counters."""
    totals = self_totals(tracer.spans)

    def seconds(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    layers = {
        "corpus.load_s": seconds("corpus.load"),
        "persistence.save_s": seconds("persistence.save"),
        "preprocessing.tokenize_s": seconds("preprocessing.tokenize"),
        "features.select_s": seconds("features.select"),
        "encoding.char_som_s": seconds("encoding.char_som"),
        "encoding.word_soms_s": seconds("encoding.word_soms"),
        "encoding.encode_dataset_s": seconds("encoding.encode_dataset"),
        "classify.rlgp_s": seconds("classify.rlgp"),
        "gp.optimize_s": seconds("gp.optimize"),
    }
    for kind in ("single", "tournament", "population"):
        layers[f"gp.engine.calls.{kind}"] = calls(f"gp.engine.{kind}")
        layers[f"gp.engine.s.{kind}"] = seconds(f"gp.engine.{kind}")
    tournament_calls = layers["gp.engine.calls.tournament"]
    layers["gp.engine.ms_per_call.tournament"] = (
        1000.0 * layers["gp.engine.s.tournament"] / tournament_calls
        if tournament_calls else 0.0
    )
    counters = ctx.metrics.snapshot()
    hits = counters.get("engine_cache_hits_total", 0.0)
    lookups = hits + counters.get("engine_cache_misses_total", 0.0)
    layers["gp.instructions"] = counters.get(
        "engine_instructions_executed_total", 0.0)
    layers["gp.dedup_hits"] = counters.get("engine_dedup_hits_total", 0.0)
    layers["gp.semantic_cache.hit_rate"] = hits / lookups if lookups else 0.0
    return layers
