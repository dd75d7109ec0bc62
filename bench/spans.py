"""In-memory spans around the calls the replay makes into each layer.

A span is ``name, start, end, parent, round``; the recorder keeps them in a
list and writes nothing until :meth:`Recorder.write_chrome_trace`.  A span's
*self* time is its duration minus the part its children cover, so the self
times of all spans add up to the root span's duration exactly.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec, index):
        self.rec = rec
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec.spans[self.index]["end"] = perf_counter()
        rec._stack.pop()
        return False


class Recorder:
    """Records nested spans of one serial replay."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def span(self, name: str, round_id: int = -1):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(
            {"name": name, "start": perf_counter(), "end": None,
             "parent": parent, "round": round_id}
        )
        self._stack.append(index)
        return _Span(self, index)

    # ---- analysis ---------------------------------------------------- #

    def durations(self) -> list:
        return [s["end"] - s["start"] for s in self.spans]

    def self_times(self) -> list:
        """Per-span duration minus the time its direct children cover."""
        durations = self.durations()
        out = list(durations)
        for s, dur in zip(self.spans, durations):
            if s["parent"] is not None:
                out[s["parent"]] -= dur
        return out

    def total_by_name(self) -> dict:
        """``{name: (calls, inclusive seconds)}``."""
        calls = defaultdict(int)
        secs = defaultdict(float)
        for s, dur in zip(self.spans, self.durations()):
            calls[s["name"]] += 1
            secs[s["name"]] += dur
        return {name: (calls[name], secs[name]) for name in secs}

    def self_by_name(self) -> dict:
        secs = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            secs[s["name"]] += own
        return dict(secs)

    def seconds(self, name: str) -> float:
        return self.total_by_name().get(name, (0, 0.0))[1]

    # ---- export ------------------------------------------------------ #

    def chrome_trace(self, metadata: dict) -> dict:
        """Trace-event JSON (``chrome://tracing`` / Perfetto): one complete
        ("X") event per span, microseconds from the first span's start."""
        t0 = self.spans[0]["start"] if self.spans else 0.0
        events = []
        for s, own in zip(self.spans, self.self_times()):
            events.append(
                {
                    "name": s["name"],
                    "cat": s["name"].split(".")[0],
                    "ph": "X",
                    "ts": (s["start"] - t0) * 1e6,
                    "dur": (s["end"] - s["start"]) * 1e6,
                    "pid": 0,
                    "tid": 0,
                    "args": {
                        "round": s["round"],
                        "parent": s["parent"],
                        "self_us": own * 1e6,
                    },
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": metadata,
        }

    def write_chrome_trace(self, path, metadata: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullRecorder:
    """Same interface, records nothing: the replay run against it is the
    baseline that ``harness.trace_overhead_frac`` compares with."""

    _SPAN = _NullSpan()

    def span(self, name: str, round_id: int = -1):
        return self._SPAN
