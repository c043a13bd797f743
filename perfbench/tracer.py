"""In-memory span recorder that wraps a program's entry points from outside.

The benchmark never edits the program: it replaces module and class
attributes with timing wrappers for the duration of a traced run and
puts the originals back afterwards.  A name is wrapped where it is
looked up -- ``from x import f`` copies ``f`` into the importing
module, so each consumer module is patched separately.  A name that
does not exist (any more) is skipped and its metrics read zero, so a
refactor that removes an entry point does not break the benchmark.

Each thread keeps its own span stack, because service worker threads
run the counting kernel while client threads wait in the router.  A
span's parent is the innermost open span of the same thread.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and merged first, so
    overlapping children are not subtracted twice.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.sid], key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.sid] = span.duration - covered
    return result


class Tracer:
    """Records spans and counters from wrapped callables.

    Recording is off until :attr:`phase` is set to a label; while it
    is ``None`` the wrappers call straight through.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 0
        self._patches: list[tuple[object, str, object | None]] = []
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.phase: str | None = None

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> tuple:
        stack = self._stack()
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, name, self.phase or "", parent, self._clock()

    def end(self, token: tuple) -> None:
        finished = self._clock()
        sid, name, phase, parent, start = token
        self._stack().pop()
        span = Span(sid, name, start, finished, parent,
                    threading.get_ident(), phase)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1,
              phase: str | None = None) -> None:
        key = (phase if phase is not None else self.phase or "", name)
        with self._lock:
            self.counters[key] += amount

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, counts=None,
             observe=None, span: bool = True) -> bool:
        """Replace ``owner.attr`` with a recording wrapper.

        ``counts(args, kwargs, result)`` returns ``{suffix: amount}``
        increments for counters named ``f"{name}.{suffix}"``;
        ``observe(args, kwargs, result)`` sees every result.  Every call
        counts ``f"{name}.calls"`` and every exception
        ``f"{name}.raised"``.  Returns ``False`` (and wraps nothing)
        when the attribute does not exist.
        """
        original = getattr(owner, attr, None)
        if original is None or not callable(original):
            return False
        own = attr in vars(owner)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.phase is None:
                return original(*args, **kwargs)
            phase = tracer.phase
            token = tracer.begin(name) if span else None
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.count(f"{name}.raised", phase=phase)
                raise
            finally:
                if token is not None:
                    tracer.end(token)
            tracer.count(f"{name}.calls", phase=phase)
            if counts is not None:
                for suffix, amount in counts(args, kwargs, result).items():
                    tracer.count(f"{name}.{suffix}", amount, phase=phase)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original if own else None))
        return True

    def unwrap_all(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------

    def counter(self, name: str, phases: tuple[str, ...]) -> float:
        return sum(self.counters.get((phase, name), 0) for phase in phases)

    def select(self, name: str, phases: tuple[str, ...]) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.phase in phases]

    def total_s(self, name: str, phases: tuple[str, ...]) -> float:
        return sum(s.duration for s in self.select(name, phases))

    def self_s_by_name(self, phases: tuple[str, ...]) -> Counter:
        """Summed self time of every span name recorded in ``phases``."""
        own = self_times(self.spans)
        totals: Counter = Counter()
        for span in self.spans:
            if span.phase in phases:
                totals[span.name] += own[span.sid]
        return totals
