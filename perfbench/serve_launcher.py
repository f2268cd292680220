"""Run ``repro.cli`` with spans around the serving path's public calls.

Usage::

    PYTHONPATH=src python3 perfbench/serve_launcher.py SPANS.json serve --async ...

Wraps model loading, document tokenisation, feature filtering and
sequence encoding, then runs the given ``repro.cli`` command unchanged.
When the command returns (Ctrl-C stops ``serve``), the spans recorded in
this process are written to ``SPANS.json``.  Forked evaluation workers
inherit the wrappers but never write their spans; the pool's own
``pool_eval_seconds`` histogram covers them.
"""

from __future__ import annotations

import os
import sys

from tracing import Tracer


def install_spans(tracer: Tracer) -> None:
    import repro.serve.registry as registry
    from repro.encoding.hierarchy import CategoryEncoder
    from repro.features.base import FeatureSet
    from repro.preprocessing.pipeline import Preprocessor

    tracer.wrap(registry, "load_pipeline", "persistence.load")
    tracer.wrap(Preprocessor, "document_tokens", "preprocessing.doc_tokens")
    tracer.wrap(FeatureSet, "filter_tokens_with_positions", "features.filter")
    tracer.wrap(CategoryEncoder, "encode", "encoding.encode")


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    import repro.cli

    tracer = Tracer()
    install_spans(tracer)
    launcher = os.getpid()
    try:
        return repro.cli.main(command)
    finally:
        if os.getpid() == launcher:
            tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
