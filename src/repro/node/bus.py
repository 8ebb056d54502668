"""In-memory message bus — the simulated wide-area network.

The real EDMS spans millions of nodes over Europe; the evaluation (like the
paper's own) runs on one machine, so the bus delivers messages in FIFO order
between registered nodes, counts traffic, and can simulate node outages — the
failure mode behind the paper's graceful-degradation argument ("pending
flexibilities simply timeout and customers fall back to the open contract").
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..core.errors import CommunicationError
from .messages import Message, MessageType

__all__ = ["MessageBus"]


class MessageBus:
    """FIFO message delivery between named nodes.

    Sending is best-effort only (:meth:`try_send`): its one user,
    :class:`~repro.runtime.cluster.BusAdapter`, must survive outages, so
    nothing here raises on an unknown or unreachable recipient.
    """

    def __init__(self) -> None:
        self._handlers: dict[str, Callable[[Message], None]] = {}
        self._queue: deque[Message] = deque()
        self._unreachable: set[str] = set()
        self.delivered: dict[MessageType, int] = {t: 0 for t in MessageType}
        self.dropped = 0

    def register(self, name: str, handler: Callable[[Message], None]) -> None:
        """Attach a node's message handler under its unique name."""
        if name in self._handlers:
            raise CommunicationError(f"node name {name!r} already registered")
        self._handlers[name] = handler

    def try_send(self, message: Message) -> bool:
        """Best-effort delivery: queue the message unless it cannot arrive.

        A message to an unknown or currently unreachable recipient is
        counted as dropped and ``False`` is returned — the paper's graceful
        degradation, where a node outage means pending flexibilities simply
        time out.  A recipient that turns unreachable *after* queueing is
        still dropped at dispatch time.
        """
        if (
            message.recipient not in self._handlers
            or message.recipient in self._unreachable
        ):
            self.dropped += 1
            return False
        self._queue.append(message)
        return True

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def set_unreachable(self, name: str, unreachable: bool = True) -> None:
        """Mark a node as (un)reachable; messages to it are dropped."""
        if name not in self._handlers:
            raise CommunicationError(f"unknown node {name!r}")
        if unreachable:
            self._unreachable.add(name)
        else:
            self._unreachable.discard(name)

    # ------------------------------------------------------------------
    def dispatch_all(self) -> int:
        """Deliver every queued message (including ones queued by handlers).

        Returns the number of messages delivered.
        """
        count = 0
        while self._queue:
            message = self._queue.popleft()
            if message.recipient in self._unreachable:
                self.dropped += 1
                continue
            self._handlers[message.recipient](message)
            self.delivered[message.type] += 1
            count += 1
        return count

    def total_delivered(self) -> int:
        """All-time delivered message count."""
        return sum(self.delivered.values())
