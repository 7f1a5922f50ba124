"""Span recorder for the traced benchmark run.

Spans are recorded around calls into the program's public functions
and methods, from the benchmark's own code: the program under ``src/``
is not edited.  :func:`wrap` replaces one attribute of a class or module
with a timing wrapper; every call then records one span (name, start,
end, parent span, request id) into flat in-memory arrays, and folds its
duration into per-name aggregates (calls, busy seconds, self seconds).

Self time is a span's duration minus the time its direct child spans
cover.  Since calls nest strictly on one thread, the sum of self times
over all spans equals the wall time covered by the outermost spans.

Forked children (process-pool workers, fleet shards) inherit the
wrappers.  A child only records when the recorder has a spool
directory: each time its outermost span closes it appends its
aggregates to ``<spool>/child-<pid>.jsonl`` and starts afresh, and the
parent folds those files in with :meth:`Recorder.merge_spool`.  Child
spans themselves are aggregated, not written out.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

NameSpec = Union[str, Callable[[tuple], str]]


class Recorder:
    """In-memory spans plus per-name aggregates for one process."""

    def __init__(self, spool: Optional[Path] = None):
        self.pid = self.owner = os.getpid()
        self.enabled = True
        self.spool = spool
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._next = 0
        self.span = array("q")
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        #: name -> [calls, busy seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: free-form counters (bytes written, ...)
        self.counters: Dict[str, float] = {}
        #: open spans: [span id, child seconds, request id]
        self._stack: List[list] = []

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self.names)
            self._ids[name] = ident
            self.names.append(name)
        return ident

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _after_fork(self) -> None:
        """First call in a forked child: drop the parent's records."""
        self.pid = os.getpid()
        self.enabled = self.spool is not None
        self._reset()

    def _reset(self) -> None:
        for column in (self.span, self.name, self.parent, self.request,
                       self.start, self.end):
            del column[:]
        self.totals = {}
        self.counters = {}
        self._stack = []

    def _close(self, frame: list, name: str, started: float,
               ended: float, parent: int) -> None:
        duration = ended - started
        stack = self._stack
        if stack:
            stack[-1][1] += duration
        self.span.append(frame[0])
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.request.append(frame[2])
        self.start.append(started)
        self.end.append(ended)
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - frame[1]
        if not stack and self.pid != self.owner:
            self._flush_child()

    def _flush_child(self) -> None:
        record = {"totals": self.totals, "counters": self.counters}
        path = Path(self.spool) / f"child-{self.pid}.jsonl"
        with open(path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
        self._reset()

    # -- reading ----------------------------------------------------------

    def merge_spool(self) -> None:
        """Fold (and delete) the aggregates forked children spooled."""
        if self.spool is None:
            return
        for path in sorted(Path(self.spool).glob("child-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                for name, (calls, busy, own) in record["totals"].items():
                    total = self.totals.setdefault(name, [0, 0.0, 0.0])
                    total[0] += calls
                    total[1] += busy
                    total[2] += own
                for name, amount in record["counters"].items():
                    self.count(name, amount)
            path.unlink()

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0, 0.0, 0.0))[0])

    def busy(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[1])

    def own(self, name: str) -> float:
        return float(self.totals.get(name, (0, 0.0, 0.0))[2])

    def self_total(self) -> float:
        """Sum of self time over every span (= outermost coverage)."""
        return float(sum(total[2] for total in self.totals.values()))

    def clear(self) -> None:
        self._reset()

    def write(self, path: Path) -> None:
        """Write the recorded spans as one ``.npz`` of columns.

        ``name`` indexes ``names``; ``parent`` is a ``span`` id or -1;
        ``start``/``end`` are ``time.perf_counter`` seconds.
        """
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names, dtype=str),
                span=np.frombuffer(self.span, dtype=np.int64),
                name=np.frombuffer(self.name, dtype=np.int32),
                parent=np.frombuffer(self.parent, dtype=np.int64),
                request=np.frombuffer(self.request, dtype=np.int64),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
            )


_PATCHES: List[tuple] = []
_MISSING = object()


def wrap(owner, attr: str, recorder: Recorder, name: NameSpec, *,
         request: Optional[Callable[[tuple], int]] = None,
         after: Optional[Callable[[tuple, object], None]] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``name`` is a span name or a function of the call's positional
    arguments; ``request`` derives the request id from them (children
    inherit their parent's); ``after`` sees the arguments and the
    result, for counting bytes and the like.
    """
    original = getattr(owner, attr)
    saved = vars(owner).get(attr, _MISSING)
    clock = time.perf_counter
    fixed = name if isinstance(name, str) else None

    def wrapper(*args, **kwargs):
        rec = recorder
        if rec.pid != os.getpid():
            rec._after_fork()
        if not rec.enabled:
            return original(*args, **kwargs)
        stack = rec._stack
        if request is not None:
            req = request(args)
        else:
            req = stack[-1][2] if stack else -1
        parent = stack[-1][0] if stack else -1
        frame = [rec._next, 0.0, req]
        rec._next += 1
        stack.append(frame)
        started = clock()
        try:
            result = original(*args, **kwargs)
        finally:
            ended = clock()
            stack.pop()
            rec._close(frame, fixed or name(args), started, ended, parent)
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = original
    setattr(owner, attr, wrapper)
    _PATCHES.append((owner, attr, saved))


def unwrap_all() -> None:
    """Restore every attribute :func:`wrap` replaced, newest first."""
    while _PATCHES:
        owner, attr, saved = _PATCHES.pop()
        if saved is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, saved)
