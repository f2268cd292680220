"""The serving workloads: ``classify_bulk`` and ``classify_interactive``.

Both drive ``repro.cli serve --async`` at its shipped defaults (2 worker
processes, batches of up to 16, 20 ms batching deadline, 4096-entry
sequence cache) over keep-alive HTTP connections, and check every timed
response against an in-process reference: the same model loaded with
``load_pipeline`` and scored with ``decision_matrix`` on the same
documents.  Topics must match and decision values must be identical.

* ``classify_bulk`` is a closed loop over 2 connections: each sends its
  next request of 64 never-repeated documents as soon as the last one is
  answered.  Every document misses the cache.
* ``classify_interactive`` is an open loop: requests of one document
  each are due at Poisson arrivals (40 per second), drawn Zipf(1) from
  256 hot documents, and timed from when they were due.

The server's process group (server, evaluation workers, resource
tracker) is read from ``/proc`` for CPU time and peak memory.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs as gen
from build import Inputs, program_env
from stats import highest_supported, percentile, supported
from tracing import load_spans, self_totals

#: Server launches per run for the set-up time (the median is reported).
SETUP_LAUNCHES = 3

#: Keep-alive connections per workload.  Bulk is a closed loop with one
#: client per vCPU.  Interactive needs enough connections that a request
#: is sent when due even while others are in flight: with two, requests
#: queued behind busy connections (late by 91 ms at p99) and p50 varied
#: from 29 to 59 ms between seeds, measuring the load generator instead
#: of the server.
CONNECTIONS = {"classify_bulk": 2, "classify_interactive": 8}

#: The tail percentile each workload reports: p75 for both.  A 30 s bulk
#: run holds about 85 requests, so p75 is the highest it supports.
#: Interactive's 1200 requests support p99, but the box's 50-100 ms
#: stalls set its upper tail: between ten-run sets of unchanged code the
#: p99 moved 36-221 ms and the p90's spread reached 0.28-0.37, beyond any
#: usable bound.  Higher percentiles are still printed with their counts.
#: If a run holds too few samples, the highest supported one stands in.
TAIL = {"classify_bulk": 75.0, "classify_interactive": 75.0}

_SERVING = re.compile(
    r"serving \(asyncio\) on http://([0-9.]+):(\d+)\s+"
    r"\(workers=(\d+), batch=(\d+)"
)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# the server under test
# ----------------------------------------------------------------------
def _proc_stat(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def group_pids(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _proc_stat(int(entry))
            if fields and int(fields[2]) == pgid and fields[0] != "Z":
                pids.append(int(entry))
    return pids


class Server:
    """One ``serve --async`` process (and its group) under test."""

    def __init__(self, command: List[str], log: Path) -> None:
        self.launched = time.perf_counter()
        self._stderr = open(log, "w")
        self.process = subprocess.Popen(
            command, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, start_new_session=True,
        )
        for line in self.process.stdout:
            match = _SERVING.search(line)
            if match:
                self.host = match.group(1)
                self.port = int(match.group(2))
                self.max_batch = int(match.group(4))
                break
        else:
            self.stop()
            raise RuntimeError(f"server exited before serving; see {log}")
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()

    def _read_rest(self) -> None:
        for _ in self.process.stdout:
            pass  # keep the pipe drained

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def call(self, method: str, path: str,
             body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One request on a connection of its own."""
        conn = self.connect()
        try:
            return request(conn, method, path, body)
        finally:
            conn.close()

    def wait_healthy(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            try:
                if self.call("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never became healthy")

    def metrics(self) -> Dict[str, float]:
        status, body = self.call("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        values = {}
        for line in body.decode().splitlines():
            name, _, value = line.rpartition(" ")
            if name:
                values[name] = float(value)
        return values

    def cpu_seconds(self) -> float:
        total = 0
        for pid in group_pids(self.process.pid):
            fields = _proc_stat(pid)
            if fields:
                total += int(fields[11]) + int(fields[12])
        return total / _CLK_TCK

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the server's group."""
        total_kb = 0
        for pid in group_pids(self.process.pid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """Ctrl-C the server (its clean shutdown path), then make sure
        nothing of its process group is left."""
        pgid = self.process.pid
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.perf_counter() + 10
        while group_pids(pgid) and time.perf_counter() < deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        self.process.wait()
        if hasattr(self, "_drain"):
            self._drain.join(timeout=5)
        self.process.stdout.close()
        self._stderr.close()


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[bytes] = None) -> Tuple[int, bytes]:
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def classify_body(payloads: Sequence[dict]) -> bytes:
    return json.dumps({"documents": list(payloads)}).encode()


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class Reference:
    """Expected answers from the same model, loaded in this process."""

    def __init__(self, inputs: Inputs) -> None:
        from repro import load_corpus
        from repro.persistence import load_pipeline

        self.corpus = load_corpus(inputs.corpus)
        self.pipeline = load_pipeline(inputs.serve_model, self.corpus)
        self.categories = list(self.pipeline.suite.categories)

    def sources(self) -> List[Tuple[str, str]]:
        return [(doc.title, doc.body) for doc in self.corpus.documents]

    @staticmethod
    def documents(payloads: Sequence[dict]) -> list:
        """Payloads as the program's documents, built independently of
        the server's own payload parsing."""
        from repro.corpus.document import Document

        return [Document(doc_id=p["id"], title=p["title"], body=p["body"],
                         split="test") for p in payloads]

    def expect(self, payloads: Sequence[dict]) -> List[dict]:
        """Per document: id, sorted topics and decision values."""
        docs = self.documents(payloads)
        values = self.pipeline.decision_matrix(docs)
        classifiers = self.pipeline.suite.classifiers
        return [
            {
                "doc_id": doc.doc_id,
                "topics": sorted(
                    c for c in self.categories
                    if values[c][i] > classifiers[c].threshold
                ),
                "decision_values": {
                    c: float(values[c][i]) for c in self.categories
                },
            }
            for i, doc in enumerate(docs)
        ]

    def sequence_lengths(self, payloads: Sequence[dict]) -> Dict[str, float]:
        """Mean encoded sequence length per category, and mean tokens."""
        pipeline = self.pipeline
        docs = self.documents(payloads)
        lengths = {
            category: statistics.mean(
                len(pipeline.encoder.encode_document(
                    doc, pipeline.tokenized, pipeline.feature_set, category
                ).sequence)
                for doc in docs
            )
            for category in self.categories
        }
        lengths["tokens"] = statistics.mean(
            len(pipeline.tokenized.tokens(doc)) for doc in docs)
        return lengths


def mismatches(body: bytes, expected: Sequence[dict]) -> int:
    """Documents of one response that differ from the reference (every
    document counts when the response cannot be read)."""
    try:
        results = json.loads(body)["results"]
    except (ValueError, KeyError, TypeError):
        return len(expected)
    if not isinstance(results, list) or len(results) != len(expected):
        return len(expected)
    wrong = 0
    for got, want in zip(results, expected):
        try:
            same = (
                got["doc_id"] == want["doc_id"]
                and sorted(got["topics"]) == want["topics"]
                and got["decision_values"] == want["decision_values"]
            )
        except (KeyError, TypeError):
            same = False
        wrong += not same
    return wrong


# ----------------------------------------------------------------------
# load generators
# ----------------------------------------------------------------------
class Record:
    __slots__ = ("index", "due", "sent", "done", "status", "body")

    def __init__(self, index: int, due: float, sent: float) -> None:
        self.index = index
        self.due = due
        self.sent = sent
        self.done = sent
        self.status = 0
        self.body = b""


Job = Tuple[int, float, bytes]  # (request index, due time, body)


def drive(server: Server, connections: int,
          take: Callable[[], Optional[Job]]) -> List[Record]:
    """Each connection repeatedly takes the next job, waits until it is
    due, sends it and waits for the answer, until ``take`` gives None."""
    records: List[Record] = []
    lock = threading.Lock()

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    job = take()
                if job is None:
                    return
                index, due, body = job
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                record = Record(index, due, time.perf_counter())
                try:
                    record.status, record.body = request(
                        conn, "POST", "/classify", body)
                except (OSError, http.client.HTTPException):
                    record.status = -1
                    conn.close()
                    conn = server.connect()
                record.done = time.perf_counter()
                with lock:
                    records.append(record)
        finally:
            conn.close()

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(records, key=lambda r: r.index)


def closed_loop(server: Server, connections: int, seconds: float,
                make_body: Callable[[int], bytes]) -> List[Record]:
    """Each connection sends its next request when the last is answered;
    no request starts after ``seconds``."""
    end = time.perf_counter() + seconds
    counter = iter(range(1 << 62))

    def take() -> Optional[Job]:
        if time.perf_counter() >= end:
            return None
        index = next(counter)
        body = make_body(index)
        return index, time.perf_counter(), body

    return drive(server, connections, take)


def open_loop(server: Server, connections: int, due: Sequence[float],
              make_body: Callable[[int], bytes]) -> List[Record]:
    """Request ``i`` is due ``due[i]`` seconds into the window; a free
    connection sends it then, or when one frees up if all are busy."""
    start = time.perf_counter() + 0.05
    counter = iter(range(len(due)))

    def take() -> Optional[Job]:
        index = next(counter, None)
        if index is None:
            return None
        return index, start + due[index], make_body(index)

    return drive(server, connections, take)


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
class Workload:
    """Inputs, traffic and checks of one serving workload."""

    def __init__(self, name: str, inputs: Inputs, reference: Reference,
                 seed: int) -> None:
        self.name = name
        self.inputs = inputs
        self.reference = reference
        self.seed = seed
        sources = reference.sources()
        self.docs = gen.QueryDocs(sources, seed, gen.MEASURED)
        self.warmup_docs = gen.QueryDocs(sources, seed, gen.WARMUP)
        self.bulk = name == "classify_bulk"
        self.per_request = gen.BULK_DOCS if self.bulk else 1
        self.hot: List[dict] = []
        self.hot_bodies: List[bytes] = []
        self.hot_expected: List[List[dict]] = []
        if not self.bulk:
            self.hot = self.docs.batch(0, gen.HOT_DOCS)
            self.hot_bodies = [classify_body([p]) for p in self.hot]
            self.hot_expected = [[e] for e in reference.expect(self.hot)]

    def warmup_body(self) -> bytes:
        return classify_body(self.warmup_docs.batch(0, self.per_request))

    def launch(self, command: List[str], log: Path) -> Tuple[Server, float]:
        """Start a server and bring it to the first answered classify;
        returns it with the seconds that took."""
        server = Server(command, log)
        try:
            server.wait_healthy()
            status, _ = server.call("POST", "/classify", self.warmup_body())
            if status != 200:
                raise RuntimeError(f"warm-up classify answered {status}")
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - server.launched

    def traffic(self, server: Server, seconds: float) -> Tuple[List[Record], float]:
        """Run the load for ``seconds``; returns records and window length."""
        start = time.perf_counter()
        if self.bulk:
            def body(index: int) -> bytes:
                return classify_body(self.docs.batch(
                    index * gen.BULK_DOCS, gen.BULK_DOCS))
            records = closed_loop(server, CONNECTIONS[self.name], seconds,
                                  body)
        else:
            due = gen.poisson_schedule(self.seed, seconds)
            self.picks = gen.zipf_picks(self.seed, len(due))
            records = open_loop(
                server, CONNECTIONS[self.name], due,
                lambda i: self.hot_bodies[self.picks[i]])
        end = max([start] + [r.done for r in records])
        return records, end - start

    def failures(self, records: Sequence[Record]) -> Tuple[int, int]:
        """(failed requests, wrong documents) against the reference."""
        failed = wrong_docs = 0
        if self.bulk:
            expected = self.reference.expect(
                [p for r in records if r.status == 200
                 for p in self.docs.batch(r.index * gen.BULK_DOCS,
                                          gen.BULK_DOCS)])
        cursor = 0
        for record in records:
            if record.status != 200:
                failed += 1
                continue
            if self.bulk:
                want = expected[cursor:cursor + gen.BULK_DOCS]
                cursor += gen.BULK_DOCS
            else:
                want = self.hot_expected[self.picks[record.index]]
            wrong = mismatches(record.body, want)
            wrong_docs += wrong
            failed += wrong > 0
        return failed, wrong_docs

    def input_properties(self, records: Sequence[Record]) -> Dict[str, float]:
        if self.bulk:
            sample = self.docs.batch(0, 256)
            hit_share = 0.0
        else:
            sample = self.hot
            hit_share = gen.repeat_share(self.picks[:len(records)])
        lengths = self.reference.sequence_lengths(sample)
        props = {"inputs.cache_hit_share": hit_share,
                 "inputs.tokens_per_doc": lengths.pop("tokens")}
        for category, length in lengths.items():
            props[f"inputs.seq_len.{category}"] = length
        return props


def latencies_ms(records: Sequence[Record]) -> List[float]:
    """Request latency, timed from when each request was due."""
    return [1000.0 * (r.done - r.due) for r in records]


def serve_command(inputs: Inputs, spans: Optional[Path] = None) -> List[str]:
    args = ["serve", "--async", "--model", str(inputs.serve_model),
            "--data", str(inputs.corpus), "--port", "0"]
    if spans is None:
        return [sys.executable, "-u", "-m", "repro.cli", *args]
    launcher = Path(__file__).with_name("serve_launcher.py")
    return [sys.executable, "-u", str(launcher), str(spans), *args]


def run(name: str, inputs: Inputs, seed: int, seconds: float,
        trace: bool) -> dict:
    reference = Reference(inputs)
    workload = Workload(name, inputs, reference, seed)
    run_dir = inputs.run_dir()
    report: List[str] = []
    tail_q = TAIL[name]

    if trace:
        return run_traced(workload, run_dir, seconds, report)

    setups = []
    server = None
    for launch in range(SETUP_LAUNCHES):
        if server is not None:
            server.stop()
        server, took = workload.launch(
            serve_command(inputs), run_dir / f"server{launch}.log")
        setups.append(took)
    try:
        records, window = workload.traffic(server, seconds)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    failed, wrong_docs = workload.failures(records)
    latencies = latencies_ms(records)
    docs = workload.per_request * sum(1 for r in records if r.status == 200)
    n = len(latencies)
    if not supported(n, tail_q):
        report.append(f"p{tail_q:g} has fewer than 10 samples beyond it")
        tail_q = highest_supported(n) or 50.0
    # Falling back to the median, report the very value p50_ms reports.
    tail = (statistics.median(latencies) if tail_q == 50.0
            else percentile(latencies, tail_q))
    report.append(f"requests: {n}, failed: {failed} "
                  f"(wrong documents: {wrong_docs}), tail_ms is p{tail_q:g}")
    props = workload.input_properties(records)
    return {
        "attempted": n,
        "failed": failed,
        "correct": failed == 0,
        "report": report,
        "inputs": props,
        "timings": {"setup_s": setups, "latency_ms": latencies},
        "samples": {"setup_s": len(setups), "p50_ms": n, "tail_ms": n,
                    "docs_per_s": docs},
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "p50_ms": statistics.median(latencies),
            "tail_ms": tail,
            "docs_per_s": docs / window,
            "peak_rss_mb": peak_rss,
            "macro_f1": inputs.serve_macro_f1,
        },
    }


def run_traced(workload: Workload, run_dir: Path, seconds: float,
               report: List[str]) -> dict:
    """Untraced then traced server, each under the full load; per-layer
    numbers come from the traced one's spans and ``/metrics`` deltas."""
    inputs = workload.inputs
    server, _ = workload.launch(serve_command(inputs), run_dir / "plain.log")
    try:
        plain, _ = workload.traffic(server, seconds)
    finally:
        server.stop()

    spans_path = run_dir / "spans.json"
    server, _ = workload.launch(serve_command(inputs, spans_path),
                                run_dir / "traced.log")
    try:
        before, cpu_before = server.metrics(), server.cpu_seconds()
        window_start = time.perf_counter()
        records, window = workload.traffic(server, seconds)
        window_end = time.perf_counter()
        after, cpu_after = server.metrics(), server.cpu_seconds()
        max_batch = server.max_batch
    finally:
        server.stop()
    spans = load_spans(str(spans_path))

    failed_plain, _ = workload.failures(plain)
    failed, wrong_docs = workload.failures(records)
    n = len(records)
    docs = workload.per_request * sum(1 for r in records if r.status == 200)
    report.append(f"untraced requests: {len(plain)}, failed: {failed_plain}; "
                  f"traced requests: {n}, failed: {failed} "
                  f"(wrong documents: {wrong_docs})")
    layers, samples = serving_layers(before, after, spans, window_start,
                                     window_end, docs, max_batch)
    layers["server.cpu_ms_per_doc"] = (
        1000.0 * (cpu_after - cpu_before) / docs if docs else 0.0)
    samples["server.cpu_ms_per_doc"] = docs
    if not workload.bulk:
        late = [1000.0 * (r.sent - r.due) for r in records]
        layers["loadgen.late_ms.p99"] = percentile(late, 99.0)
        samples["loadgen.late_ms.p99"] = n
    layers["trace.overhead"] = (
        statistics.median(latencies_ms(records))
        / statistics.median(latencies_ms(plain)))
    samples["trace.overhead"] = min(n, len(plain))
    for name in list(layers):
        q = name.rpartition(".p")[2]
        if q.isdigit() and not supported(samples.get(name, 0), float(q)):
            report.append(f"{name} withheld: fewer than 10 of its "
                          f"{samples.get(name, 0):g} samples lie beyond it")
            layers[name] = 0.0
    props = workload.input_properties(records)
    layers.update(props)
    # Every bulk document is new, so a cache hit means the inputs repeat.
    cache_ok = not workload.bulk or layers["cache.hits"] == 0
    if not cache_ok:
        report.append(f"bulk inputs hit the cache {layers['cache.hits']:g} times")
    return {
        "attempted": n + len(plain),
        "failed": failed + failed_plain,
        "correct": failed == 0 and failed_plain == 0 and cache_ok,
        "report": report,
        "inputs": props,
        "timings": {"latency_ms": latencies_ms(records)},
        "samples": samples,
        "per_layer": layers,
    }


def serving_layers(before: Dict[str, float], after: Dict[str, float],
                   spans, window_start: float, window_end: float,
                   docs: int, max_batch: int):
    """Per-layer numbers of one traced window, and the sample count
    behind each timing."""
    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    def mean(histogram: str) -> float:
        count = delta(f"{histogram}_count")
        return delta(f"{histogram}_sum") / count if count else 0.0

    def ms_per_doc(span: str) -> float:
        return 1000.0 * totals.get(span, (0, 0.0))[1] / docs if docs else 0.0

    totals = self_totals(spans, window_start, window_end)
    loads = [s for s in spans if s[0] == "persistence.load"]
    hits, misses = delta("cache_hits"), delta("cache_misses")
    batch_mean = mean("batcher_batch_size")
    layers = {
        "persistence.load_s": sum(s[4] for s in loads) / len(loads)
        if loads else 0.0,
        "preprocessing.doc_tokens_ms": ms_per_doc("preprocessing.doc_tokens"),
        "features.filter_ms": ms_per_doc("features.filter"),
        "encoding.encode_ms": ms_per_doc("encoding.encode"),
        "admission.shed": delta("admission_shed_rate_total")
        + delta("admission_shed_queue_total"),
        "batcher.queue_wait_ms.p50":
            1000.0 * after.get("batcher_queue_wait_seconds_p50", 0.0),
        "batcher.queue_wait_ms.p99":
            1000.0 * after.get("batcher_queue_wait_seconds_p99", 0.0),
        "batcher.batch_size.mean": batch_mean,
        "batcher.fill": batch_mean / max_batch,
        "service.encode_ms": 1000.0 * mean("service_encode_seconds"),
        "cache.hits": hits,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "cache.evictions": delta("cache_evictions"),
        "workers.eval_ms.p50": 1000.0 * after.get("pool_eval_seconds_p50", 0.0),
        "workers.jobs": delta("pool_jobs_total"),
        "workers.shm_sequences": delta("pool_shm_sequences_total"),
        "workers.pickled_sequences": delta("pool_pickled_sequences_total"),
        "workers.store_sequences": delta("pool_store_sequences_total"),
        "workers.restarts": delta("pool_worker_restarts_total"),
        "workers.requeues": delta("serve_batch_requeues_total"),
        "gateway.classify_ms.p50":
            1000.0 * after.get("gateway_classify_seconds_p50", 0.0),
        "gateway.classify_ms.p99":
            1000.0 * after.get("gateway_classify_seconds_p99", 0.0),
    }
    observed = {
        "gateway.classify_ms": delta("gateway_classify_seconds_count"),
        "batcher.queue_wait_ms": delta("batcher_queue_wait_seconds_count"),
        "batcher.batch_size": delta("batcher_batch_size_count"),
        "batcher.fill": delta("batcher_batch_size_count"),
        "service.encode_ms": delta("service_encode_seconds_count"),
        "workers.eval_ms": delta("pool_eval_seconds_count"),
        "persistence.load_s": len(loads),
    }
    for span in ("preprocessing.doc_tokens", "features.filter",
                 "encoding.encode"):
        observed[f"{span}_ms"] = totals.get(span, (0, 0.0))[0]
    samples = {
        name: count
        for name in layers
        for prefix, count in observed.items()
        if name.startswith(prefix)
    }
    return layers, samples
