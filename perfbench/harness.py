"""Shared pieces of the benchmark: locating the package under test,
spans around calls into it, per-operation records and the statistics
every workload reports.

A workload is a closed loop driven by one client in one process.  It
hands :func:`summarize` a list of :class:`Op` records, one per timed
operation; the end-to-end metrics are computed from those records the
same way on every workload.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def use_source_tree():
    """Import ``catdistort`` from the checkout's ``src`` directory, and
    refuse to run without it (an installed copy would measure other code)."""
    pkg = ROOT / "src" / "catdistort"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: package source not found at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import catdistort

    if Path(catdistort.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported {catdistort.__file__}, not {pkg}")
    return catdistort


def rng_for(workload: str, seed: int, *parts) -> random.Random:
    """Deterministic stream for one workload, seed and purpose (string
    seeds hash with SHA-512, independent of PYTHONHASHSEED)."""
    return random.Random(":".join(map(str, (workload, seed) + parts)))


def repeat_setup(build, repeats: int):
    """``build()`` ``repeats`` times, each result let go before the next
    build starts: the last result and the time of each build.  ``setup_s``
    is the median of those times, so an odd count of at least three lets
    it reject one slow set-up."""
    out, times = None, []
    for _ in range(repeats):
        out = None
        t0 = time.perf_counter()
        out = build()
        times.append(time.perf_counter() - t0)
    return out, times


def passes(seconds: float):
    """Pass indices 0, 1, ... until ``seconds`` have gone by; at least one."""
    t0 = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - t0 < seconds:
        yield p
        p += 1


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- spans ----------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer, self.rec = tracer, rec

    def __enter__(self):
        t = self.tracer
        self.rec["parent"] = t._open[-1] if t._open else None
        self.rec["id"] = len(t.spans)
        t.spans.append(self.rec)
        t._open.append(self.rec["id"])
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False


class _NoSpan:
    def __enter__(self):
        return {}

    def __exit__(self, *exc):
        return False


_NO_SPAN = _NoSpan()


class Tracer:
    """Records a span (name, group, start, end, parent, counts) around
    each call into the package when enabled; records nothing otherwise.
    Spans stay in memory until :meth:`write`."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, group: str | None = None, **counts):
        if not self.enabled:
            return _NO_SPAN
        return _Span(self, {"name": name, "group": group, **counts})

    def call(self, name: str, group: str | None, fn, *args, counts=None):
        """``fn(*args)`` and its duration in seconds.  ``counts(out)``
        gives the counts recorded on the span."""
        if not self.enabled:
            t0 = time.perf_counter()
            out = fn(*args)
            return out, time.perf_counter() - t0
        with self.span(name, group) as rec:
            out = fn(*args)
        if counts is not None:
            rec.update(counts(out))
        return out, rec["end"] - rec["start"]

    def durations(self, name: str, group: str | None = None) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (group is None or s["group"] == group)]

    def counts(self, name: str, group: str | None, key: str) -> list:
        return [s[key] for s in self.spans
                if s["name"] == name and s["group"] == group and key in s]

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": self.spans, "self_seconds": self.self_times(), **extra}
        path.write_text(json.dumps(doc, indent=1) + "\n")


# -- operations and end-to-end statistics --------------------------------------


@dataclass
class Op:
    """One timed operation.  ``letters`` counts the letters of the words
    it returns (or, for checks that return a report, the presentation
    letters it reads); ``elements`` the group elements it enumerates,
    returns or checks.  ``ok`` is the verdict of its independent check;
    ``error`` is set when the call raised."""

    kind: str
    group: str
    seconds: float
    letters: int
    elements: int
    pass_index: int
    ok: bool = True
    error: str | None = None


def tail(ops: list[Op]) -> tuple[str, float]:
    """``query_tail_ms`` in seconds, and what it is.  Where every pass
    holds at least forty operations (word-problem), it is the highest
    percentile of the run's latencies with at least ten samples beyond
    it.  Where a pass holds fewer, no percentile is a tail; and since the
    number of passes in a run follows the machine's speed, a rule chosen
    by the run's sample count would switch between runs.  There it is the
    slowest operation of each pass, median over the passes."""
    by_pass: dict[int, list[float]] = {}
    for o in ops:
        by_pass.setdefault(o.pass_index, []).append(o.seconds)
    if min(map(len, by_pass.values())) >= 40:
        xs = sorted(o.seconds for o in ops)
        n = len(xs)
        return f"p{100.0 * (n - 10) / n:.2f} of {n} samples", xs[n - 11]
    return (f"the median over {len(by_pass)} passes of each pass's slowest operation",
            statistics.median(max(xs) for xs in by_pass.values()))


def summarize(ops: list[Op], setup_times: list[float], import_s: float) -> dict:
    """End-to-end metrics from the run's operations (failed ones excluded
    from the timings) and set-up times."""
    good = [o for o in ops if o.error is None]
    busy = sum(o.seconds for o in good)
    lat = [o.seconds for o in good]
    passes: dict[int, float] = {}
    for o in good:
        passes[o.pass_index] = passes.get(o.pass_index, 0.0) + o.seconds
    _, tail_s = tail(good)
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "verify_s": (statistics.median(passes.values()), "s"),
        "queries_per_s": (len(good) / busy, "1/s"),
        "query_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "query_tail_ms": (1e3 * tail_s, "ms"),
        "letters_per_s": (sum(o.letters for o in good) / busy, "1/s"),
        "elements_per_s": (sum(o.elements for o in good) / busy, "1/s"),
    }


def attempt(tracer: Tracer, ops: list[Op], kind: str, name: str, group: str,
            pass_index: int, fn, *args, check, size, counts=None):
    """Time one call into the package, check its output and record an
    :class:`Op`.  ``size(out)`` gives (letters, elements).  A call that
    raises is recorded as failed and yields None."""
    try:
        out, dt = tracer.call(name, group, fn, *args, counts=counts)
    except Exception as e:  # the run goes on and reports the failure
        ops.append(Op(kind, group, 0.0, 0, 0, pass_index, ok=False,
                      error=f"{type(e).__name__}: {e}"))
        return None
    letters, elements = size(out)
    ops.append(Op(kind, group, dt, letters, elements, pass_index,
                  ok=bool(check(out))))
    return out


def p50_ms(xs: list[float]) -> float:
    return 1e3 * statistics.median(xs) if xs else 0.0
