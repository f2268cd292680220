"""Admission control for the serving front end.

A service that accepts every connection melts down from the inside:
queues grow without bound, latency climbs past every client's timeout,
and the node does strictly useless work.  Admission control keeps the
gateway honest by deciding *at the door* whether a request may enter:

* **bounded in-flight work** per route -- beyond ``max_inflight``
  admitted-but-unanswered requests the route is saturated and new
  arrivals are shed with ``503`` + ``Retry-After`` (the load balancer's
  cue to drain the node);
* **token-bucket rate limits** per route -- sustained arrival rates
  above ``rate`` requests/second (with ``burst`` headroom) are shed
  with ``429`` + ``Retry-After``.

Shedding is cheap by construction: a shed request allocates one small
response and never touches the batcher, the cache or the evaluator,
which is what bounds the gateway's memory under overload.

All clocks are ``time.perf_counter`` (monotonic); nothing here reads
wall-clock time.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.serve.metrics import MetricsRegistry


@dataclass(frozen=True)
class RoutePolicy:
    """Admission knobs for one route.

    Attributes:
        max_inflight: admitted-but-unanswered request bound; 0 disables
            the bound.  Arrivals beyond it are shed with 503.
        rate: sustained requests/second; None disables rate limiting.
            Arrivals beyond it are shed with 429.
        burst: bucket capacity (instantaneous headroom above ``rate``).
    """

    max_inflight: int = 256
    rate: Optional[float] = None
    burst: int = 32

    def __post_init__(self) -> None:
        if self.max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0, got {self.max_inflight}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")


class TokenBucket:
    """Classic token bucket over the monotonic clock.

    Tokens accrue at ``rate`` per second up to ``burst``; each admitted
    request spends one.  When empty, :meth:`try_acquire` reports how
    long until the next token matures (the ``Retry-After`` hint).
    """

    def __init__(self, rate: float, burst: int) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._tokens = float(burst)  # guarded by _lock
        self._refilled_at = time.perf_counter()  # guarded by _lock
        self._lock = threading.Lock()

    def try_acquire(self) -> "tuple[bool, float]":
        """Spend one token; returns ``(acquired, retry_after_seconds)``.

        The clock is sampled *under* the lock: a pre-lock sample lets a
        thread that loses the lock race write an older timestamp into
        ``_refilled_at``, and the rewound interval then refills twice --
        under contention the bucket granted far beyond ``burst + rate*t``.
        """
        with self._lock:
            now = time.perf_counter()
            elapsed = max(0.0, now - self._refilled_at)
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate
            )
            self._refilled_at = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate


class Decision:
    """Outcome of one admission check.

    Truthiness is admission; shed decisions carry the HTTP ``status``
    (429 rate-limited / 503 saturated) and a ``retry_after`` hint in
    seconds.  Admitted decisions must be :meth:`release`\\ d exactly once
    when the request is answered (idempotent, so error paths may be
    defensive).
    """

    __slots__ = ("admitted", "status", "retry_after", "_route", "_released")

    def __init__(
        self,
        admitted: bool,
        status: int = 200,
        retry_after: float = 0.0,
        route: Optional["_RouteState"] = None,
    ) -> None:
        self.admitted = admitted
        self.status = status
        self.retry_after = retry_after
        self._route = route
        self._released = False

    def __bool__(self) -> bool:
        return self.admitted

    def release(self) -> None:
        if self._released or self._route is None:
            return
        self._released = True
        self._route.release()


class _RouteState:
    """Live admission state of one route (policy + bucket + in-flight)."""

    def __init__(
        self, name: str, policy: RoutePolicy, metrics: MetricsRegistry
    ) -> None:
        self.name = name
        self.policy = policy
        self.bucket = (
            TokenBucket(policy.rate, policy.burst)
            if policy.rate is not None
            else None
        )
        self._inflight = 0  # guarded by _lock
        self._lock = threading.Lock()
        self._inflight_gauge = metrics.gauge(
            f"admission_{name}_inflight", f"admitted in-flight {name} requests"
        )

    def admit(self) -> "tuple[bool, float]":
        """Reserve an in-flight slot; ``(ok, retry_after)``."""
        with self._lock:
            bound = self.policy.max_inflight
            if bound and self._inflight >= bound:
                # Retry once the queue has had a chance to drain; the
                # hint scales with how deep the route already is.
                return False, 1.0
            self._inflight += 1
            inflight = self._inflight
        self._inflight_gauge.set(inflight)
        return True, 0.0

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)
            inflight = self._inflight
        self._inflight_gauge.set(inflight)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def saturated(self) -> bool:
        bound = self.policy.max_inflight
        if not bound:
            return False
        with self._lock:
            return self._inflight >= bound


class AdmissionController:
    """Route-keyed admission: rate limit first, then the queue bound.

    Args:
        policies: per-route overrides (``{"classify": RoutePolicy(...)}``).
        default: policy applied to routes without an override.
        metrics: registry for ``admission_*`` series.

    Unknown routes share the default policy but keep *separate* state --
    one flooded route cannot starve another's queue.
    """

    def __init__(
        self,
        policies: Optional[Dict[str, RoutePolicy]] = None,
        default: Optional[RoutePolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.default = default if default is not None else RoutePolicy()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._policies = dict(policies or {})
        self._routes: Dict[str, _RouteState] = {}  # guarded by _routes_lock
        self._routes_lock = threading.Lock()
        self._admitted = self.metrics.counter(
            "admission_admitted_total", "requests admitted"
        )
        self._shed_rate = self.metrics.counter(
            "admission_shed_rate_total", "requests shed by rate limit (429)"
        )
        self._shed_queue = self.metrics.counter(
            "admission_shed_queue_total", "requests shed at the queue bound (503)"
        )

    def route(self, name: str) -> _RouteState:
        with self._routes_lock:
            state = self._routes.get(name)
            if state is None:
                policy = self._policies.get(name, self.default)
                state = _RouteState(name, policy, self.metrics)
                self._routes[name] = state
            return state

    def admit(self, route_name: str) -> Decision:
        """One admission check; release the decision when answered."""
        route = self.route(route_name)
        if route.bucket is not None:
            acquired, retry_after = route.bucket.try_acquire()
            if not acquired:
                self._shed_rate.inc()
                return Decision(False, status=429, retry_after=retry_after)
        admitted, retry_after = route.admit()
        if not admitted:
            self._shed_queue.inc()
            return Decision(False, status=503, retry_after=retry_after)
        self._admitted.inc()
        return Decision(True, route=route)

    @property
    def saturated(self) -> bool:
        """True when any route is at its in-flight bound (healthz cue)."""
        with self._routes_lock:
            routes = list(self._routes.values())
        return any(route.saturated for route in routes)

    def snapshot(self) -> Dict[str, dict]:
        """Per-route state for the health/rollout views."""
        with self._routes_lock:
            routes = list(self._routes.values())
        return {
            route.name: {
                "inflight": route.inflight,
                "max_inflight": route.policy.max_inflight,
                "rate": route.policy.rate,
                "saturated": route.saturated,
            }
            for route in routes
        }
