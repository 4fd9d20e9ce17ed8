"""Bounded priority admission queue for the simulation daemon.

The queue is the daemon's *only* buffer: when it is full, new work is
shed with an explicit rejection instead of being buffered without bound
(ISSUE-5's admission-control requirement; an unbounded queue converts
overload into unbounded latency for everyone).  Higher ``priority``
values dequeue first; ties dequeue FIFO.

Not thread-safe on its own — the daemon serializes access under its
state lock, which also keeps ``depth``/``utilization`` consistent with
the decisions made from them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass(frozen=True)
class QueueItem:
    """One admitted-but-not-yet-dispatched job reference."""

    job_id: str
    priority: int = 0


@dataclass
class AdmissionQueue:
    """Bounded max-priority queue (higher priority dequeues first).

    Args:
        capacity: Maximum queued items; ``offer`` refuses beyond it.
    """

    capacity: int
    _heap: list[tuple[int, int, QueueItem]] = field(default_factory=list)
    _seq: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")

    @property
    def depth(self) -> int:
        """Number of queued items."""
        return len(self._heap)

    @property
    def utilization(self) -> float:
        """Fill fraction — the fidelity ladder's input (above 1 only
        while already-accepted jobs overfill the queue; see push)."""
        return len(self._heap) / self.capacity

    @property
    def full(self) -> bool:
        """True when ``offer`` would shed."""
        return len(self._heap) >= self.capacity

    def offer(self, item: QueueItem) -> bool:
        """Enqueue ``item`` unless the queue is full.

        Returns False — the caller must shed with an explicit rejection
        — instead of ever growing past ``capacity``.
        """
        if self.full:
            return False
        self.push(item)
        return True

    def push(self, item: QueueItem) -> None:
        """Enqueue ``item`` whatever the depth.

        For jobs that were already admitted (a requeue after a worker
        death, a parked job restored at start): capacity bounds new
        admissions, never accepted work.
        """
        # heapq is a min-heap: negate priority so higher dequeues first;
        # the monotone sequence number breaks ties FIFO.
        heapq.heappush(self._heap, (-item.priority, self._seq, item))
        self._seq += 1

    def poll(self) -> QueueItem | None:
        """Dequeue the highest-priority item, or None when empty."""
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def drain(self) -> list[QueueItem]:
        """Remove and return every queued item in dequeue order."""
        items: list[QueueItem] = []
        while self._heap:
            items.append(heapq.heappop(self._heap)[2])
        return items

    def steal(self, count: int) -> list[QueueItem]:
        """Remove up to ``count`` items from the *back* of the queue.

        Work stealing takes the jobs that would wait longest here —
        the lowest-priority, most recently enqueued items — so moving
        them to an idle peer helps the most and reorders the least.
        Returned items are in reverse dequeue order (the longest-wait
        item first).
        """
        if count <= 0 or not self._heap:
            return []
        ordered = self.drain()
        keep, stolen = ordered[:-count], ordered[-count:]
        for item in keep:
            self.push(item)
        return list(reversed(stolen))

    def __len__(self) -> int:
        return len(self._heap)
