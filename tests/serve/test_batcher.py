"""Micro-batcher: coalescing, deadlines, failure propagation, shutdown."""

import threading
import time

import pytest

from repro.serve.batcher import BatcherClosed, MicroBatcher
from repro.serve.metrics import MetricsRegistry


def _echo(batch):
    return list(batch)


def test_single_item_round_trip():
    batcher = MicroBatcher(_echo, max_batch_size=8, max_delay=0.01)
    try:
        assert batcher.submit("x").result(timeout=5) == "x"
    finally:
        batcher.close()


def test_results_align_with_items():
    batcher = MicroBatcher(lambda batch: [item * 2 for item in batch],
                           max_batch_size=4, max_delay=0.01)
    try:
        futures = batcher.submit_many([1, 2, 3, 4, 5])
        assert [future.result(timeout=5) for future in futures] == [2, 4, 6, 8, 10]
    finally:
        batcher.close()


def test_concurrent_submissions_coalesce_into_batches():
    """Items arriving inside the deadline window share a handler call."""
    seen = []
    gate = threading.Event()

    def handler(batch):
        gate.wait(5)            # hold the first dispatch until all submitted
        seen.append(len(batch))
        return list(batch)

    metrics = MetricsRegistry()
    batcher = MicroBatcher(handler, max_batch_size=16, max_delay=0.2,
                           metrics=metrics)
    try:
        futures = [batcher.submit(i) for i in range(10)]
        gate.set()
        for future in futures:
            future.result(timeout=5)
        assert max(seen) > 1    # coalescing happened
        assert sum(seen) == 10  # nothing lost or duplicated
        assert metrics.histogram("batcher_batch_size").summary()["max"] > 1
    finally:
        batcher.close()


def test_max_batch_size_is_respected():
    seen = []
    batcher = MicroBatcher(lambda batch: (seen.append(len(batch)), batch)[1],
                           max_batch_size=3, max_delay=0.5)
    try:
        futures = batcher.submit_many(list(range(10)))
        for future in futures:
            future.result(timeout=5)
        assert max(seen) <= 3
    finally:
        batcher.close()


def test_backlog_past_its_deadline_dispatches_as_one_batch():
    """Items queued behind a slow batch are already past their deadline
    when the drain loop reaches them; they still share one batch instead
    of dispatching one at a time."""
    seen = []
    entered = threading.Event()
    release = threading.Event()

    def handler(batch):
        entered.set()
        release.wait(5)         # hold the first batch while a backlog forms
        seen.append(len(batch))
        return list(batch)

    batcher = MicroBatcher(handler, max_batch_size=16, max_delay=0.01)
    try:
        first = batcher.submit("first")
        assert entered.wait(5)
        backlog = batcher.submit_many(list(range(8)))
        time.sleep(0.05)        # every queued item is now past its deadline
        release.set()
        first.result(timeout=5)
        assert [future.result(timeout=5) for future in backlog] == list(range(8))
        assert seen == [1, 8]
    finally:
        batcher.close()


def test_deadline_bounds_single_item_latency():
    batcher = MicroBatcher(_echo, max_batch_size=64, max_delay=0.05)
    try:
        start = time.perf_counter()
        batcher.submit("only").result(timeout=5)
        # One lonely item must not wait for a full batch: its dispatch is
        # bounded by the deadline plus scheduling slack.
        assert time.perf_counter() - start < 1.0
    finally:
        batcher.close()


def test_handler_exception_fails_every_future_of_the_batch():
    def handler(batch):
        raise RuntimeError("boom")

    batcher = MicroBatcher(handler, max_batch_size=4, max_delay=0.05)
    try:
        futures = batcher.submit_many([1, 2])
        for future in futures:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)
    finally:
        batcher.close()


def test_result_count_mismatch_is_an_error():
    batcher = MicroBatcher(lambda batch: [], max_batch_size=4, max_delay=0.01)
    try:
        with pytest.raises(RuntimeError, match="results"):
            batcher.submit("x").result(timeout=5)
    finally:
        batcher.close()


def test_close_drains_queued_items():
    batcher = MicroBatcher(_echo, max_batch_size=4, max_delay=5.0)
    futures = batcher.submit_many(list(range(6)))
    batcher.close()
    assert [future.result(timeout=5) for future in futures] == list(range(6))


def test_submit_after_close_raises():
    batcher = MicroBatcher(_echo)
    batcher.close()
    with pytest.raises(BatcherClosed):
        batcher.submit("x")


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        MicroBatcher(_echo, max_batch_size=0)
    with pytest.raises(ValueError):
        MicroBatcher(_echo, max_delay=-1)
