"""Request deadlines, propagated into the storage retry loop.

The serving layer (:mod:`repro.serve`) gives every request a budget.
A budget is useless if a single unlucky page transfer can burn the
whole :data:`~repro.storage.buffer_pool.RETRY_LIMIT` backoff schedule
after the request has already missed its deadline — the queue behind
it stalls for nothing.  This module is the thin contract between the
two layers: the server opens a :func:`deadline_scope` around request
execution, and :class:`~repro.storage.buffer_pool.BufferPool` consults
:func:`current_deadline` between retry attempts, aborting early with a
:class:`~repro.errors.TransientIOError` once the budget is spent.

The deadline is carried in a :class:`contextvars.ContextVar` rather
than threaded through every call signature, because the distance
between the two parties is the entire engine: query execution descends
through trees, searchers, and the buffer pool without any of those
layers needing to know a deadline exists.  ``ContextVar`` values do
not leak across threads — a scope must be opened *in the thread that
executes the request* (the server's worker does exactly that), and
code that never opens a scope sees ``None`` and behaves exactly as
before this module existed.

Deadlines are measured on :func:`time.monotonic`.  They bound *real
elapsed time* — a user-facing latency promise — and are therefore
deliberately outside :mod:`repro.storage.clock`'s makespan clock used
for *reported figures*; a deadline that
ignored sleep/backoff time would not bound anything a client can
observe.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Iterator, Optional

from ..errors import InvalidParameterError

__all__ = ["Deadline", "current_deadline", "deadline_scope"]


class Deadline:
    """An absolute expiry instant on the monotonic clock."""

    __slots__ = ("expires_at",)

    def __init__(self, budget_seconds: float) -> None:
        if budget_seconds < 0:
            raise InvalidParameterError(
                f"deadline budget must be non-negative, got {budget_seconds}"
            )
        self.expires_at = time.monotonic() + budget_seconds

    @classmethod
    def at(cls, expires_at: float) -> "Deadline":
        """Wrap an absolute ``time.monotonic`` instant."""
        deadline = cls(0.0)
        deadline.expires_at = expires_at
        return deadline

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(remaining={self.remaining():.4f}s)"


_CURRENT: ContextVar[Optional[Deadline]] = ContextVar(
    "repro_storage_deadline", default=None
)


def current_deadline() -> Optional[Deadline]:
    """The deadline governing the current context, or ``None``."""
    return _CURRENT.get()


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` for the duration of the ``with`` block.

    ``None`` is accepted and installs "no deadline", which lets callers
    pass an optional budget straight through without branching.  Scopes
    nest; the inner scope wins until it exits.
    """
    token: Token[Optional[Deadline]] = _CURRENT.set(deadline)
    try:
        yield deadline
    finally:
        _CURRENT.reset(token)
