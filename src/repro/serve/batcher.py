"""Micro-batching queue: coalesce single requests into vectorised batches.

The RLGP evaluator is dramatically faster per document when documents are
packed and evaluated together (see ``repro.gp.recurrent``), but a service
receives requests one at a time.  The :class:`MicroBatcher` sits between
the two: callers ``submit()`` items and get a future; a drain thread
collects whatever arrives within a deadline window (or until the batch is
full) and hands the whole batch to one handler call.

Latency contract: an item waits at most ``max_delay`` seconds beyond its
arrival before its batch is dispatched -- the first item of a batch opens
the window, a full batch closes it early.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence

from repro.serve.metrics import MetricsRegistry


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after the batcher is closed."""


class BatcherSaturated(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` at the queue bound.

    The batcher's last line of defence under overload: admission control
    sheds at the gateway door, but anything that bypasses it (direct
    ``classify()`` callers, several gateways over one service) still may
    not grow the queue without bound.  Retryable -- HTTP layers answer
    503 + ``Retry-After``.
    """


class _Item:
    __slots__ = ("payload", "future", "enqueued_at")

    def __init__(self, payload: object) -> None:
        self.payload = payload
        self.future: Future = Future()
        self.enqueued_at = time.perf_counter()


class MicroBatcher:
    """Coalesces submitted items into handler calls.

    Args:
        handler: called with the list of payloads of one batch; must
            return one result per payload, in order.  An exception fails
            every future of the batch.
        max_batch_size: dispatch as soon as this many items are pending.
        max_delay: seconds the first item of a batch may wait for company.
        max_queue: queued-item bound; beyond it :meth:`submit` raises
            :class:`BatcherSaturated` instead of growing memory
            (0 = unbounded, the historical behaviour).
        metrics: optional registry; the batcher records batch sizes,
            queue depth and per-item queue latency under ``batcher_*``.
    """

    def __init__(
        self,
        handler: Callable[[List[object]], Sequence[object]],
        max_batch_size: int = 16,
        max_delay: float = 0.02,
        max_queue: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        self.handler = handler
        self.max_batch_size = max_batch_size
        self.max_delay = max_delay
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queue: "queue.Queue[Optional[_Item]]" = queue.Queue()
        self._closed = False
        self._batch_sizes = self.metrics.histogram(
            "batcher_batch_size", "documents per dispatched batch"
        )
        self._queue_wait = self.metrics.histogram(
            "batcher_queue_wait_seconds", "time from submit to dispatch"
        )
        self._depth = self.metrics.gauge("batcher_queue_depth", "items waiting")
        self._dispatched = self.metrics.counter(
            "batcher_batches_total", "batches dispatched"
        )
        self._saturated = self.metrics.counter(
            "batcher_saturated_total", "submissions refused at the queue bound"
        )
        self._thread = threading.Thread(
            target=self._drain_loop, name="micro-batcher", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def submit(self, payload: object) -> Future:
        """Enqueue one item; the future resolves to its handler result."""
        if self._closed:
            raise BatcherClosed("batcher is closed")
        if self.max_queue and self._queue.qsize() >= self.max_queue:
            self._saturated.inc()
            raise BatcherSaturated(
                f"batcher queue at its {self.max_queue}-item bound"
            )
        item = _Item(payload)
        self._queue.put(item)
        self._depth.set(self._queue.qsize())
        return item.future

    def submit_many(self, payloads: Sequence[object]) -> List[Future]:
        """Enqueue several items at once (they may still split batches)."""
        return [self.submit(payload) for payload in payloads]

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def is_closed(self) -> bool:
        return self._closed

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop accepting work, drain what is queued, join the thread."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)  # wake the drain loop
        self._thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def _drain_loop(self) -> None:
        while True:
            try:
                first = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._closed:
                    return
                continue
            if first is None:
                # Shutdown sentinel: flush whatever is still queued.
                self._flush_remaining()
                return
            batch = [first]
            deadline = first.enqueued_at + self.max_delay
            while len(batch) < self.max_batch_size:
                remaining = deadline - time.perf_counter()
                try:
                    if remaining > 0:
                        item = self._queue.get(timeout=remaining)
                    else:
                        # Past the deadline: take what is already queued
                        # without waiting, so a backlog dispatches in
                        # full batches instead of one item at a time.
                        item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is None:
                    self._dispatch(batch)
                    self._flush_remaining()
                    return
                batch.append(item)
            self._dispatch(batch)

    def _flush_remaining(self) -> None:
        batch: List[_Item] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is None:
                continue
            batch.append(item)
            if len(batch) >= self.max_batch_size:
                self._dispatch(batch)
                batch = []
        if batch:
            self._dispatch(batch)

    def _dispatch(self, batch: List[_Item]) -> None:
        self._depth.set(self._queue.qsize())
        now = time.perf_counter()
        for item in batch:
            self._queue_wait.observe(now - item.enqueued_at)
        self._batch_sizes.observe(len(batch))
        self._dispatched.inc()
        try:
            results = self.handler([item.payload for item in batch])
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            for item in batch:
                item.future.set_exception(error)
            return
        if len(results) != len(batch):
            error = RuntimeError(
                f"batch handler returned {len(results)} results "
                f"for {len(batch)} items"
            )
            for item in batch:
                item.future.set_exception(error)
            return
        for item, result in zip(batch, results):
            item.future.set_result(result)
