"""Shadow/canary rollout: promote a retrained model on measured parity.

The drift-detect -> surgical-retrain loop (``repro.temporal``) produces
fresh candidate models while the incumbent keeps serving.  Swapping them
on a flag day is how silent regressions reach every user at once; the
:class:`RolloutManager` replaces the flag day with a measured, reversible
state machine:

``shadow``
    The incumbent answers everything.  A configurable fraction of
    classify traffic is *mirrored* to the candidate on a background
    thread; both predictions are recorded, neither response changes.
``canary``
    A (typically smaller) fraction of requests is *answered* by the
    candidate -- real exposure, bounded blast radius.  Both models still
    score the canary slice so the comparison continues.
``promoted`` / ``rolled_back``
    Terminal.  Promotion makes the candidate the registry default (all
    traffic, no restart); rollback leaves the incumbent untouched.

A phase advances only after ``min_samples`` compared documents, and only
when three parity gates all hold: topic agreement rate, mean absolute
decision-value divergence (the paper's decision values are the score the
canary compares online, exactly the rolling train-on-<=t / test-on-t+1
discipline applied to live traffic), and the candidate/incumbent latency
ratio.  Any gate failing rolls the candidate back.

Traffic selection is deterministic (an arrival-counter low-discrepancy
rule, not a PRNG), so identical request streams produce identical
rollout decisions.  Every transition emits a structured event on the
attached :class:`~repro.runtime.events.EventBus`, and :meth:`report`
is the JSON body of ``GET /rollout``.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.runtime.events import Event, EventBus
from repro.serve.metrics import MetricsRegistry

#: Rollout states (``RolloutManager.state``).
SHADOW = "shadow"
CANARY = "canary"
PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"
ABORTED = "aborted"

_TERMINAL = frozenset({PROMOTED, ROLLED_BACK, ABORTED})

#: Numeric encoding of states for the ``rollout_state`` gauge.
_STATE_CODES = {SHADOW: 1.0, CANARY: 2.0, PROMOTED: 3.0,
                ROLLED_BACK: -1.0, ABORTED: -2.0}


@dataclass(frozen=True)
class RolloutConfig:
    """Parity gates and traffic fractions for one rollout.

    Attributes:
        shadow_fraction: fraction of classify traffic mirrored to the
            candidate during shadow (responses unchanged).
        canary_fraction: fraction of traffic *answered* by the candidate
            during canary.
        min_samples: compared documents required before a phase may
            advance (per phase).
        min_agreement: lowest acceptable topic-set agreement rate.
        max_divergence: highest acceptable mean absolute decision-value
            difference over shared categories.
        max_latency_ratio: highest acceptable candidate/incumbent mean
            per-document evaluation-latency ratio.
        mirror_queue: bounded shadow-mirror queue (batches); overflow is
            dropped and counted, never blocks serving.
    """

    shadow_fraction: float = 1.0
    canary_fraction: float = 0.25
    min_samples: int = 50
    min_agreement: float = 0.98
    max_divergence: float = 0.05
    max_latency_ratio: float = 5.0
    mirror_queue: int = 64

    def __post_init__(self) -> None:
        for name in ("shadow_fraction", "canary_fraction"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if self.min_samples < 1:
            raise ValueError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if not 0.0 <= self.min_agreement <= 1.0:
            raise ValueError(
                f"min_agreement must be in [0, 1], got {self.min_agreement}"
            )
        if self.max_divergence < 0:
            raise ValueError(
                f"max_divergence must be >= 0, got {self.max_divergence}"
            )
        if self.max_latency_ratio <= 0:
            raise ValueError(
                f"max_latency_ratio must be positive, "
                f"got {self.max_latency_ratio}"
            )
        if self.mirror_queue < 1:
            raise ValueError(
                f"mirror_queue must be >= 1, got {self.mirror_queue}"
            )

    @classmethod
    def from_payload(cls, payload: dict) -> "RolloutConfig":
        """Build a config from a JSON request body (unknown keys rejected)."""
        known = {
            "shadow_fraction", "canary_fraction", "min_samples",
            "min_agreement", "max_divergence", "max_latency_ratio",
            "mirror_queue",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown rollout config keys: {', '.join(sorted(unknown))}"
            )
        return cls(**payload)


class _PhaseStats:
    """Comparison tallies for one phase (guarded by the manager lock)."""

    __slots__ = ("samples", "agreements", "divergence_sum",
                 "incumbent_seconds", "candidate_seconds")

    def __init__(self) -> None:
        self.samples = 0
        self.agreements = 0
        self.divergence_sum = 0.0
        self.incumbent_seconds = 0.0
        self.candidate_seconds = 0.0

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.samples if self.samples else 0.0

    @property
    def mean_divergence(self) -> float:
        return self.divergence_sum / self.samples if self.samples else 0.0

    @property
    def latency_ratio(self) -> float:
        if self.incumbent_seconds <= 0 or self.samples == 0:
            return 0.0
        return self.candidate_seconds / self.incumbent_seconds

    def payload(self) -> dict:
        return {
            "samples": self.samples,
            "agreement_rate": round(self.agreement_rate, 6),
            "mean_divergence": round(self.mean_divergence, 9),
            "latency_ratio": round(self.latency_ratio, 6),
        }


class _FractionGate:
    """Deterministic low-discrepancy selector: admits ~``fraction`` of a
    counted stream with bounded drift (the ``int(n*f)`` staircase), so
    identical traffic yields identical shadow/canary slices."""

    __slots__ = ("fraction", "_seen")

    def __init__(self, fraction: float) -> None:
        self.fraction = fraction
        self._seen = 0

    def take(self) -> bool:
        self._seen += 1
        return int(self._seen * self.fraction) > int(
            (self._seen - 1) * self.fraction
        )


class RolloutManager:
    """Drives one candidate through shadow -> canary -> promote/rollback.

    Args:
        incumbent / candidate: registry model names.
        evaluate: ``(model_name, documents) -> results`` -- the service's
            synchronous batch-classify path for one named model.
        promote: called exactly once on promotion (the registry default
            swap).
        config: fractions and parity gates.
        events: optional bus for ``rollout_*`` events.
        metrics: optional registry for ``rollout_*`` series.
    """

    def __init__(
        self,
        incumbent: str,
        candidate: str,
        evaluate: Callable[[str, Sequence[object]], List[dict]],
        promote: Callable[[], None],
        config: Optional[RolloutConfig] = None,
        events: Optional[EventBus] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if incumbent == candidate:
            raise ValueError(
                "rollout needs distinct incumbent and candidate models, "
                f"both are {incumbent!r}"
            )
        self.incumbent = incumbent
        self.candidate = candidate
        self.config = config if config is not None else RolloutConfig()
        self.events = events
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._evaluate = evaluate
        self._promote = promote

        # Reentrant: transitions announce themselves (gauge, event,
        # promotion) while holding it, so a reader that sees a new state
        # also sees its announcement -- and an event sink may call
        # report() from the announcing thread.
        self._lock = threading.RLock()
        self._state = SHADOW  # guarded by _lock
        self._reason = ""  # guarded by _lock
        self._stats = {SHADOW: _PhaseStats(), CANARY: _PhaseStats()}  # guarded by _lock
        self._shadow_gate = _FractionGate(self.config.shadow_fraction)  # guarded by _lock
        self._canary_gate = _FractionGate(self.config.canary_fraction)  # guarded by _lock

        self._samples_counter = self.metrics.counter(
            "rollout_samples_total", "documents compared across both models"
        )
        self._disagreements = self.metrics.counter(
            "rollout_disagreements_total", "documents with differing topics"
        )
        self._mirror_dropped = self.metrics.counter(
            "rollout_mirror_dropped_total",
            "shadow mirror batches dropped at the bounded queue",
        )
        self._state_gauge = self.metrics.gauge(
            "rollout_state",
            "rollout phase (1 shadow, 2 canary, 3 promoted, <0 terminated)",
        )
        self._state_gauge.set(_STATE_CODES[SHADOW])

        self._mirror_queue: "queue_module.Queue" = queue_module.Queue(
            maxsize=self.config.mirror_queue
        )
        self._mirror_thread = threading.Thread(
            target=self._mirror_loop, name="rollout-mirror", daemon=True
        )
        self._mirror_thread.start()
        self._emit("rollout_started", state=SHADOW,
                   shadow_fraction=self.config.shadow_fraction,
                   canary_fraction=self.config.canary_fraction,
                   min_samples=self.config.min_samples)

    # ------------------------------------------------------------------
    # the serving hook
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def finished(self) -> bool:
        return self.state in _TERMINAL

    def wants(self, model_name: str) -> bool:
        """Whether batches classified under ``model_name`` feed this
        rollout (incumbent traffic only, and only while live)."""
        return model_name == self.incumbent and not self.finished

    def intercept(
        self,
        documents: Sequence[object],
        results: List[dict],
        incumbent_seconds: float,
    ) -> List[dict]:
        """Observe one incumbent batch; returns the results to serve.

        Shadow: enqueues a mirror job (never blocks serving) and returns
        the incumbent results untouched.  Canary: scores the selected
        slice under the candidate synchronously, records the comparison,
        and substitutes the candidate's answers for that slice.
        """
        with self._lock:
            state = self._state
            if state == SHADOW:
                take = [self._shadow_gate.take() for _ in documents]
            elif state == CANARY:
                take = [self._canary_gate.take() for _ in documents]
            else:
                return results
        picked = [index for index, chosen in enumerate(take) if chosen]
        if not picked:
            return results
        subset = [documents[index] for index in picked]
        subset_results = [results[index] for index in picked]
        per_doc = incumbent_seconds / max(1, len(documents))
        if state == SHADOW:
            try:
                self._mirror_queue.put_nowait(
                    (subset, subset_results, per_doc * len(subset))
                )
            except queue_module.Full:
                self._mirror_dropped.inc()
            return results
        # Canary: the candidate answers the slice, so its evaluation is
        # synchronous -- the latency it adds is the latency being judged.
        candidate_results, candidate_seconds = self._score_candidate(subset)
        if candidate_results is None:
            return results
        self._record(CANARY, subset_results, candidate_results,
                     per_doc * len(subset), candidate_seconds)
        served = list(results)
        for position, index in enumerate(picked):
            served[index] = candidate_results[position]
        return served

    # ------------------------------------------------------------------
    # views and lifecycle
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-ready rollout state (the ``GET /rollout`` body)."""
        with self._lock:
            return {
                "incumbent": self.incumbent,
                "candidate": self.candidate,
                "state": self._state,
                "finished": self._state in _TERMINAL,
                "reason": self._reason,
                "config": {
                    "shadow_fraction": self.config.shadow_fraction,
                    "canary_fraction": self.config.canary_fraction,
                    "min_samples": self.config.min_samples,
                    "min_agreement": self.config.min_agreement,
                    "max_divergence": self.config.max_divergence,
                    "max_latency_ratio": self.config.max_latency_ratio,
                },
                "phases": {
                    name: stats.payload()
                    for name, stats in self._stats.items()
                },
            }

    def abort(self, reason: str = "aborted by operator") -> None:
        """Terminate without judgement; the incumbent keeps serving."""
        self._terminate(ABORTED, reason)

    def close(self) -> None:
        """Stop the mirror thread (idempotent; terminal state wakes it)."""
        if not self.finished:
            self.abort("rollout closed with the service")
        self._mirror_queue.put(None)
        self._mirror_thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _score_candidate(self, documents: Sequence[object]):
        started = time.perf_counter()
        try:
            candidate_results = self._evaluate(self.candidate, documents)
        except Exception as error:  # noqa: BLE001 - judged, not hidden
            # A candidate that cannot score traffic has failed its
            # audition; that is a rollback verdict, not a serving error.
            self._terminate(
                ROLLED_BACK, f"candidate evaluation failed: {error}"
            )
            return None, 0.0
        return candidate_results, time.perf_counter() - started

    def _mirror_loop(self) -> None:
        while True:
            job = self._mirror_queue.get()
            if job is None:
                return
            if self.finished:
                continue  # drain without scoring after termination
            subset, incumbent_results, incumbent_seconds = job
            candidate_results, candidate_seconds = self._score_candidate(
                subset
            )
            if candidate_results is None:
                continue
            self._record(SHADOW, incumbent_results, candidate_results,
                         incumbent_seconds, candidate_seconds)

    def _record(
        self,
        phase: str,
        incumbent_results: List[dict],
        candidate_results: List[dict],
        incumbent_seconds: float,
        candidate_seconds: float,
    ) -> None:
        disagreements = 0
        with self._lock:
            if self._state != phase:
                return  # a transition raced this batch; drop it
            stats = self._stats[phase]
            for ours, theirs in zip(incumbent_results, candidate_results):
                stats.samples += 1
                agreed = set(ours["topics"]) == set(theirs["topics"])
                stats.agreements += int(agreed)
                disagreements += int(not agreed)
                ours_values = ours["decision_values"]
                theirs_values = theirs["decision_values"]
                shared = ours_values.keys() & theirs_values.keys()
                if shared:
                    stats.divergence_sum += sum(
                        abs(ours_values[c] - theirs_values[c])
                        for c in shared
                    ) / len(shared)
            stats.incumbent_seconds += incumbent_seconds
            stats.candidate_seconds += candidate_seconds
        self._samples_counter.inc(len(incumbent_results))
        if disagreements:
            self._disagreements.inc(disagreements)
        self._maybe_advance(phase)

    def _gates(self, stats: _PhaseStats) -> Optional[str]:
        """The first failed parity gate, or None when all hold."""
        if stats.agreement_rate < self.config.min_agreement:
            return (
                f"agreement {stats.agreement_rate:.4f} < "
                f"{self.config.min_agreement}"
            )
        if stats.mean_divergence > self.config.max_divergence:
            return (
                f"decision divergence {stats.mean_divergence:.6f} > "
                f"{self.config.max_divergence}"
            )
        ratio = stats.latency_ratio
        if ratio and ratio > self.config.max_latency_ratio:
            return (
                f"latency ratio {ratio:.2f} > "
                f"{self.config.max_latency_ratio}"
            )
        return None

    def _maybe_advance(self, phase: str) -> None:
        with self._lock:
            if self._state != phase:
                return
            stats = self._stats[phase]
            if stats.samples < self.config.min_samples:
                return
            failure = self._gates(stats)
            payload = stats.payload()
            if failure is not None:
                self._terminate(ROLLED_BACK, f"{phase}: {failure}",
                                **payload)
            elif phase == SHADOW:
                self._state = CANARY
                self._state_gauge.set(_STATE_CODES[CANARY])
                self._emit("rollout_phase", state=CANARY,
                           from_state=SHADOW, **payload)
            else:
                self._promote()
                self._terminate(PROMOTED, "", **payload)

    def _terminate(self, state: str, reason: str, **payload) -> None:
        """Enter a terminal state and announce it, under the lock."""
        with self._lock:
            if self._state in _TERMINAL:
                return
            self._state = state
            self._reason = reason
            self._state_gauge.set(_STATE_CODES[state])
            self._emit("rollout_finished", state=state, reason=reason,
                       **payload)

    def _emit(self, kind: str, **payload) -> None:
        if self.events is None:
            return
        payload.setdefault("incumbent", self.incumbent)
        payload.setdefault("candidate", self.candidate)
        self.events.emit(Event(
            kind=kind,
            path=f"serve/rollout/{self.candidate}",
            payload=payload,
        ))
