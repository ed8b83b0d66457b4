"""Typed metrics with labels — the registry every BENU layer reports into.

The paper's whole evaluation is built on internal counters (DB query
volume, cache hit rates, instruction counts, per-worker makespans), so the
reproduction makes them first-class: a :class:`MetricsRegistry` holds
typed :class:`Counter`/:class:`Gauge`/:class:`Histogram` metrics keyed by
name, each optionally labeled (worker id, plan phase, instruction type).
The stats structs of the storage, kernel, graph and plan layers stay
plain dataclasses; the execution backends mirror them into a registry
through one field-to-metric table (``repro.engine.backends.base``), so
every quantity of Figs. 7-10 and Tables IV-VI is available through one
machine-readable interface (``as_dict``).

The registry deliberately depends on nothing else in :mod:`repro` — any
layer may import it without cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramValue",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "DEFAULT_BYTES_BUCKETS",
]


class MetricError(ValueError):
    """Raised on metric misuse: kind clash, label mismatch, bad value."""


#: Bucket upper bounds for duration histograms (seconds); +inf is implicit.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0,
)

#: Bucket upper bounds for payload-size histograms (bytes); +inf implicit.
DEFAULT_BYTES_BUCKETS: Tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576,
)

LabelKey = Tuple[str, ...]


class _Metric:
    """Shared behaviour: name, kind, label validation, sample iteration."""

    kind = "abstract"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()):
        self.name = name
        self.help = help
        #: Label *names*, sorted so creation-site dict ordering cannot matter.
        self.label_names: LabelKey = tuple(sorted(labels))
        self._values: Dict[LabelKey, object] = {}

    # ------------------------------------------------------------------
    def _key(self, labels: Dict[str, object]) -> LabelKey:
        if tuple(sorted(labels)) != self.label_names:
            raise MetricError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[k]) for k in self.label_names)

    def key(self, **labels: object) -> LabelKey:
        """The sample key of one label set, validated once.

        Per-call validation (a sort and a ``str`` per label) is most of
        an ``inc``; a hot path resolves its few label sets up front and
        counts through :meth:`Counter.inc_key`.
        """
        return self._key(labels)

    def labels_of(self, key: LabelKey) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    def samples(self) -> Iterator[Tuple[Dict[str, str], object]]:
        """Yield ``(labels, value)`` pairs, insertion-ordered.

        Iterates an atomic snapshot of the label sets, so a live
        ``stats``/``metrics`` reader never races a writer thread adding
        a new label set mid-iteration.
        """
        for key, value in list(self._values.items()):
            yield self.labels_of(key), self._sample_value(value)

    def _sample_value(self, raw: object) -> object:
        return raw

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "samples": [
                {"labels": labels, "value": self._json_value(value)}
                for labels, value in self.samples()
            ],
        }

    def _json_value(self, value: object) -> object:
        return value


class Counter(_Metric):
    """A monotonically increasing count.

    >>> c = Counter("db_queries", labels=("worker",))
    >>> c.inc(3, worker=0); c.inc(worker=0); c.inc(worker=1)
    >>> c.value(worker=0), c.value(worker=1), c.total()
    (4, 1, 5)
    """

    kind = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def inc_key(self, key: LabelKey, amount: float = 1) -> None:
        """:meth:`inc` for a label set already resolved by :meth:`key`."""
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())


class Gauge(_Metric):
    """A point-in-time value that may go up or down.

    >>> g = Gauge("cache_hit_ratio")
    >>> g.set(0.75); g.value()
    0.75
    """

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._values[self._key(labels)] = value

    def add(self, delta: float, **labels: object) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + delta

    def value(self, **labels: object) -> float:
        return self._values.get(self._key(labels), 0)


@dataclass
class HistogramValue:
    """Aggregated observations of one histogram label set."""

    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    #: Per-bucket (non-cumulative) observation counts; the last entry
    #: counts observations above every finite bound.
    bucket_counts: List[int] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self, bounds: Sequence[float]) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": [
                {"le": le, "n": n}
                for le, n in zip(list(bounds) + ["inf"], self.bucket_counts)
            ],
        }


class Histogram(_Metric):
    """A distribution of observed values over fixed buckets.

    >>> h = Histogram("task_seconds", buckets=(0.1, 1.0))
    >>> for v in (0.05, 0.5, 5.0): h.observe(v)
    >>> hv = h.value()
    >>> (hv.count, hv.sum, hv.bucket_counts)
    (3, 5.55, [1, 1, 1])
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ):
        super().__init__(name, help, labels)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricError(f"histogram {self.name!r} needs >= 1 bucket")

    def _sample(self, labels: Dict[str, object]) -> HistogramValue:
        """The label set's aggregate, created empty on first use."""
        key = self._key(labels)
        hv = self._values.get(key)
        if hv is None:
            hv = HistogramValue(bucket_counts=[0] * (len(self.buckets) + 1))
            self._values[key] = hv
        return hv

    def observe(self, value: float, **labels: object) -> None:
        hv = self._sample(labels)
        hv.count += 1
        hv.sum += value
        hv.min = min(hv.min, value)
        hv.max = max(hv.max, value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                hv.bucket_counts[i] += 1
                break
        else:
            hv.bucket_counts[-1] += 1

    def observe_many(self, values: Sequence[float], **labels: object) -> None:
        """Observe every value of ``values`` under one label set.

        The state afterwards is exactly what ``observe`` once per value
        would leave (the sum accumulates in the same order), for one key
        resolution and a ``bisect`` per value.

        >>> h = Histogram("task_seconds", buckets=(0.1, 1.0))
        >>> h.observe_many([0.05, 0.5, 5.0])
        >>> h.value().bucket_counts
        [1, 1, 1]
        """
        if not values:
            return
        hv = self._sample(labels)
        buckets, counts = self.buckets, hv.bucket_counts
        total = hv.sum
        for value in values:
            total += value
            counts[bisect_left(buckets, value)] += 1
        hv.count += len(values)
        hv.sum = total
        hv.min = min(hv.min, min(values))
        hv.max = max(hv.max, max(values))

    def value(self, **labels: object) -> HistogramValue:
        hv = self._values.get(self._key(labels))
        if hv is None:
            return HistogramValue(bucket_counts=[0] * (len(self.buckets) + 1))
        return hv

    def _json_value(self, value: HistogramValue) -> object:
        return value.as_dict(self.buckets)


class MetricsRegistry:
    """Get-or-create store of named metrics.

    Re-requesting a name returns the existing metric; requesting it with a
    different kind or label set is an error (one name, one meaning).

    >>> reg = MetricsRegistry()
    >>> reg.counter("queries").inc(2)
    >>> reg.counter("queries").value()
    2
    >>> reg.gauge("queries")
    Traceback (most recent call last):
        ...
    repro.telemetry.registry.MetricError: metric 'queries' already registered as counter, not gauge
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, labels, **kwargs) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != cls.kind:
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            if existing.label_names != tuple(sorted(labels)):
                raise MetricError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.label_names}, not {tuple(sorted(labels))}"
                )
            return existing
        metric = cls(name, help, labels, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[_Metric]:
        """The metric registered under ``name``, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return list(self._metrics)

    def metrics(self) -> List[_Metric]:
        return list(self._metrics.values())

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all label sets; 0 if never registered."""
        metric = self._metrics.get(name)
        if metric is None:
            return 0
        if not isinstance(metric, Counter):
            raise MetricError(f"metric {name!r} is a {metric.kind}, not a counter")
        return metric.total()

    def as_dict(self) -> dict:
        """A JSON-able snapshot of every metric (the export format).

        Snapshots the metric table first: a resident service exports
        while queries are still registering metrics.
        """
        return {
            name: metric.as_dict()
            for name, metric in list(self._metrics.items())
        }

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics


def merge_registry_dicts(by_source: dict, label: str = "shard") -> dict:
    """Merge several :meth:`MetricsRegistry.as_dict` exports into one.

    ``by_source`` maps a source key (e.g. shard index) to one export.
    Every sample keeps its provenance: its label set gains
    ``{label: str(key)}``, Prometheus-style, so counters *sum* across
    sources by totalling label sets — nothing is conflated — while
    gauges and histograms stay attributed to the node they describe.

    >>> a = {"m": {"kind": "counter", "help": "h", "labels": [],
    ...            "samples": [{"labels": {}, "value": 2}]}}
    >>> b = {"m": {"kind": "counter", "help": "h", "labels": [],
    ...            "samples": [{"labels": {}, "value": 3}]}}
    >>> merged = merge_registry_dicts({0: a, 1: b})
    >>> sum(s["value"] for s in merged["m"]["samples"])
    5
    """
    merged: dict = {}
    for key, export in by_source.items():
        tag = str(key)
        for name, metric in export.items():
            slot = merged.get(name)
            if slot is None:
                slot = {
                    "kind": metric.get("kind"),
                    "help": metric.get("help"),
                    "labels": list(metric.get("labels", ())) + [label],
                    "samples": [],
                }
                merged[name] = slot
            for sample in metric.get("samples", ()):
                labels = dict(sample.get("labels", {}))
                labels[label] = tag
                slot["samples"].append(
                    {"labels": labels, "value": sample.get("value")}
                )
    return merged
