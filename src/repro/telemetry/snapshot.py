"""Frozen, picklable views of a metrics registry.

A :class:`TelemetrySnapshot` is the currency telemetry moves in: the
live :class:`~repro.telemetry.registry.MetricsRegistry` stays inside
one cluster (or one executor), while snapshots cross process
boundaries on :class:`~repro.cluster.cluster.RunResult`, land in the
on-disk result cache, and feed the exporters.  Snapshots hold only
tuples of primitives, so equality, hashing, pickling and JSON
conversion are all trivial and deterministic.

Merging semantics (``TelemetrySnapshot.merge``) follow metric type:
counters and histograms are *additive* across snapshots, and a gauge
conflict resolves to the *largest* sample (ordered by value, then sum,
count and buckets).  Every per-key fold is commutative and
associative, so merging K snapshots is a pure function of the multiset
of samples — the result is independent of argument order and of how
the merge is parenthesized.  The fleet layer leans on exactly this:
per-shard snapshots reduce to the same fleet snapshot no matter which
shard reports first.  Callers merging snapshots from different runs
should still disambiguate them with
:meth:`TelemetrySnapshot.with_labels` (e.g. ``run=<spec digest>``), or
same-named gauges silently shadow each other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional, Tuple

from ..errors import TelemetryError

__all__ = ["LabelPairs", "MetricSample", "TelemetrySnapshot"]

#: Frozen label set: sorted ``(key, value)`` string pairs.
LabelPairs = Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class MetricSample:
    """One instrument's frozen state at snapshot time.

    Attributes
    ----------
    name:
        Dotted metric name (e.g. ``"ctrl.rounds"``, ``"host.cache.hits"``).
        The ``host.`` prefix is reserved for executor-level metrics that
        may legitimately derive from wall time; everything else is a
        pure function of the simulation.
    type:
        ``"counter"``, ``"gauge"`` or ``"histogram"``.
    labels:
        Sorted ``(key, value)`` pairs.
    value:
        Counter/gauge value (0.0 for histograms).
    sum / count:
        Histogram aggregate observation sum and count.
    buckets:
        Histogram ``(upper_bound, count)`` pairs, *non-cumulative*, in
        ascending bound order, ending with the ``+inf`` overflow bucket.
    """

    name: str
    type: str
    labels: LabelPairs = ()
    value: float = 0.0
    sum: float = 0.0
    count: int = 0
    buckets: Tuple[Tuple[float, int], ...] = ()

    @property
    def key(self) -> Tuple[str, LabelPairs]:
        """Identity of the instrument this sample came from."""
        return (self.name, self.labels)

    def label_dict(self) -> Dict[str, str]:
        """Labels as a plain dict (for JSON payloads)."""
        return dict(self.labels)


def _merge_pair(a: MetricSample, b: MetricSample) -> MetricSample:
    """Fold ``b`` into ``a`` (same key; type mismatch is an error)."""
    if a.type != b.type:
        raise TelemetryError(
            f"cannot merge metric {a.name!r}: type {a.type!r} vs {b.type!r}"
        )
    if a.type == "counter":
        return replace(a, value=a.value + b.value)
    if a.type == "gauge":
        # Largest sample wins — max is commutative and associative, so
        # a K-way merge never depends on snapshot arrival order (the
        # old last-writer-wins rule did, which made multi-shard reduces
        # racy).  Ties across every field are identical samples anyway.
        a_rank = (a.value, a.sum, a.count, a.buckets)
        b_rank = (b.value, b.sum, b.count, b.buckets)
        return a if a_rank >= b_rank else b
    bounds_a = tuple(bound for bound, _ in a.buckets)
    bounds_b = tuple(bound for bound, _ in b.buckets)
    if bounds_a != bounds_b:
        raise TelemetryError(
            f"cannot merge histogram {a.name!r}: bucket bounds differ "
            f"({bounds_a} vs {bounds_b})"
        )
    return replace(
        a,
        sum=a.sum + b.sum,
        count=a.count + b.count,
        buckets=tuple(
            (bound, ca + cb)
            for (bound, ca), (_, cb) in zip(a.buckets, b.buckets)
        ),
    )


@dataclass(frozen=True)
class TelemetrySnapshot:
    """An immutable bag of :class:`MetricSample` records.

    Samples are kept sorted by ``(name, labels)`` so two snapshots of
    identical registry state compare (and serialize) identically.
    """

    samples: Tuple[MetricSample, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.samples, key=lambda s: s.key))
        object.__setattr__(self, "samples", ordered)

    def __iter__(self) -> Iterator[MetricSample]:
        return iter(self.samples)

    def __len__(self) -> int:
        return len(self.samples)

    # -- lookups ---------------------------------------------------------

    def get(self, name: str, **labels: object) -> Optional[MetricSample]:
        """The sample with exactly ``name`` and ``labels``, or None."""
        key = (name, tuple(sorted((str(k), str(v)) for k, v in labels.items())))
        for sample in self.samples:
            if sample.key == key:
                return sample
        return None

    def value(self, name: str, **labels: object) -> float:
        """Counter/gauge value at ``(name, labels)`` (0.0 when absent)."""
        sample = self.get(name, **labels)
        return sample.value if sample is not None else 0.0

    def total(self, name: str) -> float:
        """Sum of ``value`` across every label set of ``name``."""
        return sum(s.value for s in self.samples if s.name == name)

    # -- transformations -------------------------------------------------

    def filter(self, prefix: str) -> "TelemetrySnapshot":
        """Samples whose name starts with ``prefix``."""
        return TelemetrySnapshot(
            samples=tuple(s for s in self.samples if s.name.startswith(prefix))
        )

    def without(self, prefix: str) -> "TelemetrySnapshot":
        """Samples whose name does *not* start with ``prefix``."""
        return TelemetrySnapshot(
            samples=tuple(
                s for s in self.samples if not s.name.startswith(prefix)
            )
        )

    def with_labels(self, **extra: object) -> "TelemetrySnapshot":
        """A copy with ``extra`` labels added to every sample.

        Existing labels with the same key are overwritten — the caller
        is asserting a new identity axis (e.g. ``run=<digest>``).
        """
        frozen = {str(k): str(v) for k, v in extra.items()}

        def relabel(labels: LabelPairs) -> LabelPairs:
            merged: Dict[str, str] = dict(labels)
            merged.update(frozen)
            return tuple(sorted(merged.items()))

        return TelemetrySnapshot(
            samples=tuple(
                replace(s, labels=relabel(s.labels)) for s in self.samples
            )
        )

    def to_jsonable(self) -> list:
        """One plain dict per sample (fleet payloads, the result store)."""
        return [
            {
                "name": s.name,
                "type": s.type,
                "labels": s.label_dict(),
                "value": s.value,
                "sum": s.sum,
                "count": s.count,
                "buckets": [list(b) for b in s.buckets],
            }
            for s in self.samples
        ]

    @classmethod
    def from_jsonable(cls, rows) -> "TelemetrySnapshot":
        """Invert :meth:`to_jsonable`; raises on malformed rows."""
        return cls(
            samples=tuple(
                MetricSample(**{
                    **row,
                    "labels": tuple(sorted(row["labels"].items())),
                    "buckets": tuple(map(tuple, row["buckets"])),
                })
                for row in rows
            )
        )

    @classmethod
    def merge(cls, *snapshots: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Fold many snapshots into one (see module docstring).

        Every sample from every snapshot is sorted into one canonical
        order — instrument key first, then full sample content — before
        the per-key fold, so the accumulation order (and hence every
        floating-point rounding) is a pure function of the multiset of
        samples, never of the argument order.  Shard reduces rely on
        this: K worker snapshots merge to bitwise the same result no
        matter which worker reported first.
        """
        ordered = sorted(
            (sample for snap in snapshots for sample in snap.samples),
            key=lambda s: (
                s.name, s.labels, s.type, s.value, s.sum, s.count, s.buckets,
            ),
        )
        folded: Dict[Tuple[str, LabelPairs], MetricSample] = {}
        for sample in ordered:
            existing = folded.get(sample.key)
            folded[sample.key] = (
                sample if existing is None else _merge_pair(existing, sample)
            )
        return cls(samples=tuple(folded.values()))
