"""A thread-safe labeled metrics registry.

The repo grew five disconnected stats surfaces (rolling service metrics,
execution profiles, plan-cache / compaction / persistence stats dicts); this
module gives them one export path.  Three metric kinds are supported, closely
following the Prometheus data model:

* :class:`Counter` — a monotonically increasing value (``inc``);
* :class:`Gauge` — a value that can go up and down (``set`` / ``inc``), or a
  *callback* gauge read lazily at scrape time;
* :class:`Histogram` — observations bucketed into **fixed log-scale buckets**
  (cumulative bucket counts, sum, and count — the paper's runtime tables
  span five orders of magnitude, so linear buckets would be useless).

Families are created through :class:`MetricsRegistry` (``counter`` /
``gauge`` / ``histogram``) and carry an optional tuple of label names; the
``labels(...)`` method resolves one child per label-value combination.
Existing ad-hoc stats dicts are absorbed without rewriting their increment
sites: :meth:`MetricsRegistry.register_collector` takes a callable returning
a flat-or-nested dict and exposes every numeric leaf as a gauge at scrape
time (the Prometheus "custom collector" pattern).

Exports: :meth:`MetricsRegistry.expose_prometheus` renders the text
exposition format (``# HELP`` / ``# TYPE`` / samples), and
:meth:`MetricsRegistry.as_dict` produces a JSON-serialisable dump of the
same data.

Everything is guarded by one registry lock; increments on already-resolved
children take only that child's family lock, so the hot path never contends
with scrapes resolving collectors.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_buckets",
    "LATENCY_BUCKETS",
    "QERROR_BUCKETS",
]

_VALID_KINDS = ("counter", "gauge", "histogram")


def log_buckets(start: float = 1e-6, factor: float = 4.0, count: int = 14) -> Tuple[float, ...]:
    """``count`` fixed log-scale bucket upper bounds: ``start * factor**i``.

    The defaults cover one microsecond to roughly 67 seconds in x4 steps,
    which spans everything from a single intersection to a full-table
    experiment run without per-query bucket tuning.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError("log_buckets requires start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


#: Default latency buckets (seconds): 1µs .. ~67s in x4 steps.
LATENCY_BUCKETS = log_buckets(1e-6, 4.0, 14)

#: Default q-error buckets: 1 .. 2048 in x2 steps (q-error is always >= 1).
QERROR_BUCKETS = log_buckets(1.0, 2.0, 12)


#: Characters legal in a metric name past the first (0.0.4 spec); anything
#: else in a collector-derived key is folded to ``_``.
_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_VALID_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _sanitize_name(name: str) -> str:
    """Force an arbitrary string into the exposition format's metric-name
    charset (``[a-zA-Z_:][a-zA-Z0-9_:]*``).  Collector keys come from stats
    dicts whose keys can hold dots, dashes, spaces, slashes, or leading
    digits — none of which a strict scraper will accept."""
    out = _INVALID_NAME_CHARS.sub("_", str(name))
    if not out or not _VALID_NAME.match(out):
        out = "_" + out
    return out


def _escape_help(text: str) -> str:
    """HELP text escaping per the 0.0.4 spec: backslash and newline only
    (double quotes are legal in HELP, unlike in label values)."""
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    parts = []
    for name, value in zip(labelnames, labelvalues):
        escaped = str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
        parts.append(f'{name}="{escaped}"')
    return "{" + ",".join(parts) + "}"


class Counter:
    """One child of a counter family: a monotonically increasing float."""

    __slots__ = ("_family", "_key", "value")

    def __init__(self, family: "_Family", key: Tuple[str, ...]) -> None:
        self._family = family
        self._key = key
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase; use a gauge")
        with self._family._lock:
            self.value += amount


class Gauge:
    """One child of a gauge family: a settable value."""

    __slots__ = ("_family", "_key", "value")

    def __init__(self, family: "_Family", key: Tuple[str, ...]) -> None:
        self._family = family
        self._key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._family._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """One child of a histogram family: fixed-bucket observation counts.

    ``buckets`` are upper bounds (an implicit ``+Inf`` bucket is always
    appended); counts are *per-bucket* internally and exposed cumulatively,
    matching Prometheus semantics.  Standalone use (outside a registry) is
    supported — the WAL and compaction manager keep private histograms that
    a database's registry later surfaces through a collector.
    """

    __slots__ = ("_lock", "buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS, _family=None, _key=()) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self.counts[idx] += 1
            self.sum += value
            self.count += 1

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, object]:
        """Cumulative bucket counts plus sum/count, as a plain dict."""
        with self._lock:
            counts = list(self.counts)
            total, n = self.sum, self.count
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.buckets + (math.inf,), counts):
            running += c
            cumulative.append((bound, running))
        return {"buckets": cumulative, "sum": total, "count": n}

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket counts (upper-bound biased);
        0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        snap = self.snapshot()
        total = snap["count"]
        if not total:
            return 0.0
        rank = max(1, math.ceil(q * total))
        for bound, cumulative in snap["buckets"]:
            if cumulative >= rank:
                return bound if bound != math.inf else self.buckets[-1]
        return self.buckets[-1]  # pragma: no cover - defensive


class _Family:
    """A named metric with a fixed kind and label names, holding children."""

    _child_types = {"counter": Counter, "gauge": Gauge}

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.bucket_bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *labelvalues: object) -> object:
        """Resolve the child for one label-value combination (created on
        first use).  Families without labels resolve their single child."""
        key = tuple(str(v) for v in labelvalues)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label value(s) "
                f"{self.labelnames}, got {len(key)}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self.bucket_bounds)
                else:
                    child = self._child_types[self.kind](self, key)
                self._children[key] = child
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """The unified registry: metric families plus lazy collectors."""

    def __init__(self, namespace: str = "graphflow") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}
        # name prefix -> callable returning a (possibly nested) stats dict.
        self._collectors: List[Tuple[str, Callable[[], Mapping]]] = []

    # ------------------------------------------------------------------ #
    # family creation (idempotent per name)
    # ------------------------------------------------------------------ #
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        if kind not in _VALID_KINDS:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown metric kind {kind!r}")
        if not _VALID_NAME.match(name):
            raise ValueError(
                f"invalid metric name {name!r}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
            )
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help, tuple(labelnames), buckets)
                self._families[name] = family
            elif family.kind != kind or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}"
                )
            return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        """A counter family; call ``.labels(...)`` (or with no labels, the
        family's single child is resolved via ``.labels()``)."""
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        return self._family(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ):
        return self._family(name, "histogram", help, labelnames, buckets=buckets)

    # ------------------------------------------------------------------ #
    # collectors: absorb existing ad-hoc stats dicts at scrape time
    # ------------------------------------------------------------------ #
    def register_collector(self, prefix: str, fn: Callable[[], Mapping]) -> None:
        """Expose every numeric leaf of ``fn()``'s dict as a gauge named
        ``<namespace>_<prefix>_<flattened_key>``.

        Booleans become 0/1; strings and Nones are skipped.  The callable
        runs at scrape time only, so registering a collector adds nothing to
        any hot path.  Registering the same prefix again replaces the old
        collector (services re-attach on restart).
        """
        with self._lock:
            self._collectors = [(p, f) for p, f in self._collectors if p != prefix]
            self._collectors.append((prefix, fn))

    def unregister_collector(self, prefix: str) -> None:
        with self._lock:
            self._collectors = [(p, f) for p, f in self._collectors if p != prefix]

    @staticmethod
    def _flatten(prefix: str, mapping: Mapping, out: Dict[str, float]) -> None:
        for key, value in mapping.items():
            name = f"{prefix}_{key}" if prefix else str(key)
            name = _sanitize_name(name)
            if isinstance(value, Mapping):
                MetricsRegistry._flatten(name, value, out)
            elif isinstance(value, bool):
                out[name] = 1.0 if value else 0.0
            elif isinstance(value, (int, float)) and math.isfinite(value):
                out[name] = float(value)
            # strings / None / non-finite: not representable as a gauge

    def collect(self) -> Dict[str, Mapping]:
        """Run every registered collector once: ``{source: its stats dict}``.

        This is the one enumeration of the stats sources: the Prometheus
        gauges flatten it, and ``GraphflowDB.stats()``, ``QueryService.stats()``
        and ``/stats`` return it, so a source registered by anyone shows up
        in all of them.
        """
        with self._lock:
            collectors = list(self._collectors)
        out: Dict[str, Mapping] = {}
        for prefix, fn in collectors:
            try:
                stats = fn()
            except Exception:
                # A failing stats source (e.g. a closed store) must never
                # break the scrape of every other metric.
                continue
            if isinstance(stats, Mapping):
                out[prefix] = stats
        return out

    def _collected(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for prefix, stats in self.collect().items():
            self._flatten(prefix, stats, out)
        return out

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    def _qualified(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def expose_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            qualified = self._qualified(name)
            if family.help:
                lines.append(f"# HELP {qualified} {_escape_help(family.help)}")
            lines.append(f"# TYPE {qualified} {family.kind}")
            for key, child in family.children():
                labels = _format_labels(family.labelnames, key)
                if isinstance(child, Histogram):
                    snap = child.snapshot()
                    for bound, cumulative in snap["buckets"]:
                        le = _format_labels(
                            tuple(family.labelnames) + ("le",),
                            tuple(key) + (_format_value(bound),),
                        )
                        lines.append(f"{qualified}_bucket{le} {cumulative}")
                    lines.append(f"{qualified}_sum{labels} {_format_value(snap['sum'])}")
                    lines.append(f"{qualified}_count{labels} {snap['count']}")
                else:
                    lines.append(f"{qualified}{labels} {_format_value(child.value)}")
        for name, value in sorted(self._collected().items()):
            qualified = self._qualified(name)
            lines.append(f"# TYPE {qualified} gauge")
            lines.append(f"{qualified} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable dump: every family's children plus collected
        gauges, under the same qualified names as the exposition output."""
        out: Dict[str, object] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            entry: Dict[str, object] = {"kind": family.kind, "help": family.help}
            samples = []
            for key, child in family.children():
                labels = dict(zip(family.labelnames, key))
                if isinstance(child, Histogram):
                    snap = child.snapshot()
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": [
                                [_format_value(b), c] for b, c in snap["buckets"]
                            ],
                            "sum": snap["sum"],
                            "count": snap["count"],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            entry["samples"] = samples
            out[self._qualified(name)] = entry
        for name, value in sorted(self._collected().items()):
            out[self._qualified(name)] = {"kind": "gauge", "value": value}
        return out
