"""Span tracing installed from the benchmark's side, for traced runs only.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces chosen attributes — bound methods on the
service, index and matcher instances, or public module functions — with
thin wrappers, and puts every original back on :meth:`Tracer.restore`.

* A **span** wrapper records ``(name, start, end, parent)`` per call,
  where ``parent`` is the span open at call time; a layer's self time is
  its duration minus its direct children's.  Calls that raise are
  counted as failed under their span name.
* A **count** wrapper only increments a counter (for hot, tiny calls
  such as routing hashes, where a span would cost more than the call).

Spans stay in memory and are aggregated once, after the traced phase.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_ABSENT = object()


class Tracer:
    """In-memory span recorder plus the attribute patches feeding it."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.amounts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #

    def _span_wrapper(self, name: str, fn, amount=None):
        spans, stack, opened = self.spans, self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            opened[name] += 1
            if amount is not None:
                for key, value in amount(args).items():
                    self.amounts[key] += value
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                record[2] = time.perf_counter()
                opened[name] -= 1
                stack.pop()

        return traced

    def _count_wrapper(self, name: str, fn):
        counts, opened = self.counts, self._open

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            if opened["er.fit"]:
                counts[name + "@er.fit"] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner: object, attr: str, name: str, *,
              count_only: bool = False, amount=None) -> None:
        """Wrap ``owner.attr`` in a span (or counter) named ``name``.

        ``amount(args) -> {key: value}`` adds per-call quantities (pairs
        scored, pairs fitted) to :attr:`amounts`.
        """
        original = vars(owner).get(attr, _ABSENT)
        current = getattr(owner, attr)
        wrapper = (
            self._count_wrapper(name, current) if count_only
            else self._span_wrapper(name, current, amount)
        )
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #

    def summary(self) -> "tuple[dict, dict, Counter]":
        """``(inclusive seconds, self seconds, calls)`` per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            inclusive[name] += end - start
            self_time[name] += end - start - child[i]
            calls[name] += 1
        return inclusive, self_time, calls
