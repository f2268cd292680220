"""The benchmark's own tests: sample-count rule, seeded inputs, checks.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

They need no built inputs and start no server.
"""

from __future__ import annotations

import json
import math

import pytest

import inputs as gen
import serving
import stats
from tracing import Tracer, self_totals

SOURCES = [
    ("Profit up", "net profit rose to record quarterly earnings cts shr"),
    ("Wheat exports", "usda said grain tonnes export wheat shipment"),
    ("Trade gap", "trade deficit widened as imports of goods rose"),
]


# ----------------------------------------------------------------------
# percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert stats.beyond(1000, 99.0) == 10
    assert stats.supported(1000, 99.0)
    assert not stats.supported(999, 99.0)
    assert stats.supported(100, 90.0)
    assert not stats.supported(99, 90.0)
    assert not stats.supported(10, 50.0)


def test_highest_supported_percentile():
    assert stats.highest_supported(1200) == 99.0
    assert stats.highest_supported(85) == 75.0
    assert stats.highest_supported(5) is None


def test_describe_reports_counts_and_only_supported_percentiles():
    samples = [float(i) for i in range(1, 201)]
    summary = stats.describe(samples)
    assert summary["n"] == 200
    assert summary["median"] == 100.5
    assert summary["p95"] == 190.0  # rank 190, ten beyond
    assert "p99" not in summary
    assert stats.describe([3.0])["median"] == 3.0


def test_nearest_rank_percentile():
    assert stats.percentile([5.0, 1.0, 3.0, 2.0, 4.0], 50.0) == 3.0
    assert stats.percentile(list(range(1, 101)), 90.0) == 90


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_other_inputs():
    a = gen.QueryDocs(SOURCES, 7, gen.MEASURED)
    b = gen.QueryDocs(SOURCES, 7, gen.MEASURED)
    c = gen.QueryDocs(SOURCES, 8, gen.MEASURED)
    assert a.batch(0, 50) == b.batch(0, 50)
    assert a.batch(0, 50) != c.batch(0, 50)
    assert gen.poisson_schedule(7, 30.0) == gen.poisson_schedule(7, 30.0)
    assert gen.poisson_schedule(7, 30.0) != gen.poisson_schedule(8, 30.0)
    assert gen.zipf_picks(7, 500) == gen.zipf_picks(7, 500)


def test_document_k_does_not_depend_on_request_order():
    docs = gen.QueryDocs(SOURCES, 3, gen.MEASURED)
    forward = [docs.payload(k) for k in range(20)]
    backward = [docs.payload(k) for k in reversed(range(20))][::-1]
    assert forward == backward


def test_documents_never_repeat_and_streams_do_not_overlap():
    measured = gen.QueryDocs(SOURCES, 5, gen.MEASURED).batch(0, 3000)
    warmup = gen.QueryDocs(SOURCES, 5, gen.WARMUP).batch(0, 64)
    texts = {(p["title"], p["body"]) for p in measured}
    assert len(texts) == len(measured)
    assert len({p["id"] for p in measured}) == len(measured)
    assert not texts & {(p["title"], p["body"]) for p in warmup}
    assert not {p["id"] for p in measured} & {p["id"] for p in warmup}
    assert min(p["id"] for p in measured) >= gen.QUERY_ID_BASE


def test_poisson_rate_and_zipf_hit_share():
    due = gen.poisson_schedule(11, 30.0)
    assert all(0 <= t < 30.0 for t in due)
    assert due == sorted(due)
    assert len(due) == 30 * gen.ARRIVAL_RATE
    picks = gen.zipf_picks(11, len(due))
    assert all(0 <= p < gen.HOT_DOCS for p in picks)
    assert 0.75 < gen.repeat_share(picks) < 0.9


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def _expected(doc_id: int) -> dict:
    return {
        "doc_id": doc_id,
        "topics": ["earn"],
        "decision_values": {"earn": 0.8125, "grain": -0.3, "trade": 0.1},
    }


def _body(results) -> bytes:
    return json.dumps({"results": results}).encode()


def test_exact_response_passes():
    want = [_expected(1), _expected(2)]
    assert serving.mismatches(_body(want), want) == 0


@pytest.mark.parametrize("corrupt", [
    lambda r: r["decision_values"].update(
        earn=math.nextafter(r["decision_values"]["earn"], 1.0)),
    lambda r: r.update(topics=["earn", "grain"]),
    lambda r: r.update(topics=[]),
    lambda r: r.update(doc_id=r["doc_id"] + 1),
    lambda r: r["decision_values"].pop("trade"),
])
def test_corrupted_document_is_a_mismatch(corrupt):
    want = [_expected(1), _expected(2)]
    got = json.loads(json.dumps(want))
    corrupt(got[1])
    assert serving.mismatches(_body(got), want) == 1


def test_unreadable_or_short_response_fails_every_document():
    want = [_expected(1), _expected(2)]
    assert serving.mismatches(b"not json", want) == 2
    assert serving.mismatches(b'{"error": "saturated"}', want) == 2
    assert serving.mismatches(_body(want[:1]), want) == 2


class _StubReference:
    def sources(self):
        return SOURCES

    def expect(self, payloads):
        return [_expected(p["id"]) for p in payloads]


def test_corrupted_or_refused_response_counts_as_failed_request():
    workload = serving.Workload(
        "classify_interactive", inputs=None, reference=_StubReference(),
        seed=1)
    workload.picks = [0, 1, 2, 3]
    records = []
    for index in range(4):
        record = serving.Record(index, 0.0, 0.0)
        want = workload.hot_expected[workload.picks[index]]
        record.status, record.body = 200, _body(want)
        records.append(record)
    assert workload.failures(records) == (0, 0)

    corrupted = json.loads(records[1].body)
    corrupted["results"][0]["decision_values"]["grain"] = 0.0
    records[1].body = json.dumps(corrupted).encode()
    records[2].status, records[2].body = 503, b'{"error": "saturated"}'
    assert workload.failures(records) == (2, 1)


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
class _Layer:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return sum(range(n))

    @classmethod
    def build(cls, n):
        return cls().outer(n)


def test_tracer_records_self_time_and_restores_originals():
    original_outer = _Layer.__dict__["outer"]
    original_build = _Layer.__dict__["build"]
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "outer")
    tracer.wrap(_Layer, "inner", lambda self, n: f"inner.{n}")
    tracer.wrap(_Layer, "build", "build")
    assert _Layer.build(1000) == sum(range(1000)) + 1
    tracer.uninstall()
    assert _Layer.__dict__["outer"] is original_outer
    assert _Layer.__dict__["build"] is original_build

    names = [span[0] for span in tracer.spans]
    assert names == ["inner.1000", "outer", "build"]
    inner, outer, build = tracer.spans
    assert inner[1] == "outer" and outer[1] == "build" and build[1] is None
    assert outer[4] == pytest.approx((outer[3] - outer[2]) - (inner[3] - inner[2]))
    totals = self_totals(tracer.spans)
    assert totals["outer"][0] == 1
    _Layer.build(10)
    assert len(tracer.spans) == 3  # uninstalled: nothing more recorded
