"""The ``repro.cli serve`` subcommand, end to end over a real socket."""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def data_dir(serve_corpus, tmp_path_factory):
    from repro.corpus.sgml import write_sgml_files

    directory = tmp_path_factory.mktemp("serve-data")
    write_sgml_files(serve_corpus.documents, directory)
    return directory


#: perfbench's serving harness parses this same startup line.
BANNER = re.compile(
    r"serving \(asyncio\) on (http://[\d.]+:\d+)\s+"
    r"\(workers=(\d+), batch=(\d+)"
)


def _start_serve(model_dir, data_dir, *extra, **popen_kwargs):
    """Launch ``repro.cli serve`` on an ephemeral port; returns
    ``(process, base_url)`` once the startup line is printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", str(model_dir),
            "--data", str(data_dir),
            "--port", "0",
            "--max-delay-ms", "5",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        **popen_kwargs,
    )
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            line = process.stdout.readline()
            if not line and process.poll() is not None:
                raise RuntimeError("serve exited before binding")
            match = BANNER.search(line)
            if match:
                return process, match.group(1)
        raise AssertionError("server never reported its address")
    except BaseException:
        process.kill()
        process.wait(timeout=30)
        raise


def _classify(base_url, docs):
    request = urllib.request.Request(
        f"{base_url}/classify",
        data=json.dumps({"documents": [
            {"id": doc.doc_id, "title": doc.title, "body": doc.body}
            for doc in docs
        ]}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as resp:
        return json.loads(resp.read())


def _session_pids(sid):
    """Live (non-zombie) processes in session ``sid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # exited while we looked
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(entry))
    return pids


@pytest.fixture(scope="module")
def running_server(model_dir, data_dir):
    process, base_url = _start_serve(model_dir, data_dir)
    try:
        yield base_url
    finally:
        process.terminate()
        process.wait(timeout=30)


def test_serve_answers_healthz(running_server):
    with urllib.request.urlopen(f"{running_server}/healthz", timeout=30) as resp:
        payload = json.loads(resp.read())
    assert payload["status"] == "ok"


def test_serve_classifies_documents(running_server, serve_corpus, fitted_pipeline):
    docs = list(serve_corpus.test_documents)[:4]
    payload = _classify(running_server, docs)
    assert [r["topics"] for r in payload["results"]] == \
        fitted_pipeline.predict_documents(docs)


def test_serve_reports_metrics(running_server):
    with urllib.request.urlopen(f"{running_server}/metrics", timeout=30) as resp:
        body = resp.read().decode("utf-8")
    assert "service_request_seconds_count" in body
    assert "cache_hit_rate" in body


def test_async_flag_is_accepted_and_ignored(model_dir, data_dir):
    process, base_url = _start_serve(model_dir, data_dir, "--async")
    try:
        with urllib.request.urlopen(f"{base_url}/healthz", timeout=30) as resp:
            assert json.loads(resp.read())["status"] == "ok"
    finally:
        process.terminate()
        process.wait(timeout=30)


def test_sigterm_shuts_down_cleanly(model_dir, data_dir, serve_corpus):
    """SIGTERM takes the Ctrl-C path: the gateway and the service close,
    the process exits 0 and leaves nothing in its session."""
    process, base_url = _start_serve(
        model_dir, data_dir, start_new_session=True
    )
    sid = process.pid
    try:
        _classify(base_url, list(serve_corpus.test_documents)[:1])
        assert _session_pids(sid) == [sid]  # evaluation runs inline
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
        deadline = time.time() + 10
        while _session_pids(sid) and time.time() < deadline:
            time.sleep(0.05)
        assert _session_pids(sid) == []
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        for pid in _session_pids(sid):
            os.kill(pid, signal.SIGKILL)
