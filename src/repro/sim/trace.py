"""Time-series trace recording.

Controllers and experiments need dense time series (temperature, PWM
duty, frequency, power) sampled over hundreds of thousands of steps.
:class:`Trace` is an append-only ``(time, value)`` series backed by
amortized-growth numpy buffers — appends are O(1) and the final arrays
are contiguous, so analysis code can vectorize over them directly (see
the scientific-python guidance on preferring array operations to Python
loops).
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Trace", "TraceSet"]

_INITIAL_CAPACITY = 256


class Trace:
    """Append-only time series of scalar samples.

    Parameters
    ----------
    name:
        Identifier used in trace sets and rendered tables.
    """

    __slots__ = ("name", "_t", "_v", "_n", "_last_t")

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("trace name must be non-empty")
        self.name = name
        self._t = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._v = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._n = 0
        # Kept as a plain Python float so the per-append monotonicity
        # check never round-trips through a numpy scalar.
        self._last_t = float("-inf")

    def __len__(self) -> int:
        return self._n

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t``.

        Times are expected to be non-decreasing; this is asserted cheaply
        against the previous sample.
        """
        n = self._n
        if t < self._last_t:
            raise ConfigurationError(
                f"trace {self.name!r}: time went backwards "
                f"({t} < {self._last_t})"
            )
        if n == self._t.shape[0]:
            self._grow()
        self._t[n] = t
        self._v[n] = value
        self._n = n + 1
        self._last_t = float(t)

    def extend(self, t_block: "np.ndarray", v_block: "np.ndarray") -> None:
        """Append a whole block of samples in one call.

        Equivalent to ``append``-ing each pair in order — including the
        monotonicity contract — but with one bounds check and two
        vectorized copies instead of per-sample numpy scalar writes.
        This is the API the fastpath recording layer uses to flush its
        sample buffers.
        """
        t_arr = np.asarray(t_block, dtype=np.float64)
        v_arr = np.asarray(v_block, dtype=np.float64)
        if t_arr.ndim != 1 or v_arr.ndim != 1 or t_arr.shape != v_arr.shape:
            raise ConfigurationError(
                f"trace {self.name!r}: extend needs two 1-d blocks of "
                f"equal length, got shapes {t_arr.shape} and {v_arr.shape}"
            )
        k = int(t_arr.shape[0])
        if k == 0:
            return
        first = float(t_arr[0])
        if first < self._last_t:
            raise ConfigurationError(
                f"trace {self.name!r}: time went backwards "
                f"({first} < {self._last_t})"
            )
        if k > 1:
            steps = np.diff(t_arr)
            if np.any(steps < 0.0):
                at = int(np.argmax(steps < 0.0))
                raise ConfigurationError(
                    f"trace {self.name!r}: time went backwards "
                    f"({float(t_arr[at + 1])} < {float(t_arr[at])})"
                )
        n = self._n
        self._reserve(n + k)
        self._t[n : n + k] = t_arr
        self._v[n : n + k] = v_arr
        self._n = n + k
        self._last_t = float(t_arr[-1])

    def __getstate__(self) -> Tuple[str, np.ndarray, np.ndarray]:
        """Pickle only the live prefix of the buffers.

        The amortized-growth buffers can be up to 2x over-allocated;
        trimming (and copying, so no writable view escapes) keeps the
        serialized form — the runtime layer's process-boundary payload
        — as small as the data itself.
        """
        return (self.name, self._t[: self._n].copy(), self._v[: self._n].copy())

    def __setstate__(self, state: Tuple[str, np.ndarray, np.ndarray]) -> None:
        name, t, v = state
        self.name = name
        self._t = np.ascontiguousarray(t, dtype=np.float64)
        self._v = np.ascontiguousarray(v, dtype=np.float64)
        self._n = int(self._t.shape[0])
        self._last_t = float(self._t[-1]) if self._n else float("-inf")

    def _grow(self) -> None:
        self._reserve(max(self._t.shape[0] * 2, _INITIAL_CAPACITY))

    def _reserve(self, min_capacity: int) -> None:
        """Ensure the buffers can hold at least ``min_capacity`` samples."""
        cap = self._t.shape[0]
        if cap >= min_capacity:
            return
        new_cap = max(cap, _INITIAL_CAPACITY)
        while new_cap < min_capacity:
            new_cap *= 2
        t = np.empty(new_cap, dtype=np.float64)
        v = np.empty(new_cap, dtype=np.float64)
        t[: self._n] = self._t[: self._n]
        v[: self._n] = self._v[: self._n]
        self._t, self._v = t, v

    @property
    def times(self) -> np.ndarray:
        """Sample times (seconds) as a read-only numpy view."""
        view = self._t[: self._n]
        view.flags.writeable = False
        return view

    @property
    def values(self) -> np.ndarray:
        """Sample values as a read-only numpy view."""
        view = self._v[: self._n]
        view.flags.writeable = False
        return view

    # -- summary statistics -------------------------------------------------

    def mean(self) -> float:
        """Arithmetic mean of all samples (nan when empty)."""
        return float(np.mean(self.values)) if self._n else float("nan")

    def max(self) -> float:
        """Maximum sample (nan when empty)."""
        return float(np.max(self.values)) if self._n else float("nan")

    def min(self) -> float:
        """Minimum sample (nan when empty)."""
        return float(np.min(self.values)) if self._n else float("nan")

    def integrate(self) -> float:
        """Trapezoidal integral of value over time.

        For a power trace in watts this yields energy in joules.
        Returns 0 for traces with fewer than two samples.
        """
        if self._n < 2:
            return 0.0
        return float(np.trapezoid(self.values, self.times))

    def window(self, t0: float, t1: float) -> "Trace":
        """Sub-trace restricted to samples with ``t0 <= t <= t1``."""
        if t1 < t0:
            raise ConfigurationError(f"window bounds reversed: [{t0}, {t1}]")
        mask = (self.times >= t0) & (self.times <= t1)
        sub = Trace(self.name)
        for t, v in zip(self.times[mask], self.values[mask]):
            sub.append(float(t), float(v))
        return sub

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return zip(self.times.tolist(), self.values.tolist())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, n={self._n})"


class TraceSet:
    """A named collection of :class:`Trace` objects.

    Provides dict-like access and auto-creation, so recording code can
    simply write ``traces.record('temp', t, value)``.
    """

    def __init__(self) -> None:
        self._traces: Dict[str, Trace] = {}

    def trace(self, name: str) -> Trace:
        """Get (or create empty) the trace called ``name``.

        Lets recording code resolve the trace handle once instead of
        paying the name lookup per sample — the fastpath recording
        layer wires its block writers through this.
        """
        trace = self._traces.get(name)
        if trace is None:
            trace = Trace(name)
            self._traces[name] = trace
        return trace

    def record(self, name: str, t: float, value: float) -> None:
        """Append to the trace called ``name``, creating it on first use."""
        self.trace(name).append(t, value)

    def __getitem__(self, name: str) -> Trace:
        try:
            return self._traces[name]
        except KeyError:
            raise KeyError(
                f"no trace named {name!r}; available: {sorted(self._traces)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._traces

    def __iter__(self) -> Iterator[str]:
        return iter(self._traces)

    def __len__(self) -> int:
        return len(self._traces)

    def names(self) -> list[str]:
        """Sorted list of trace names."""
        return sorted(self._traces)
