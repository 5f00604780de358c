"""RPR010 fixture — allocation laundered through a reachable helper.

``step`` is ``@hotpath`` and allocation-free, so RPR009 is silent; the
allocation lives in ``build_labels``, which ``step`` calls.  RPR010
must follow the call edge and flag the helper's list comprehension.
``refresh_cache`` allocates too but is ``@coldpath`` — the sanctioned
propagation stop — and must NOT be flagged.
"""

from repro.sim.marker import coldpath, hotpath

__all__ = ["build_labels", "refresh_cache", "step"]


@hotpath
def step(state, t, dt):
    """Tick function: clean in isolation, dirty transitively."""
    acc = 0.0
    for name in state.names:
        acc += state.read(name)
    build_labels(state)
    refresh_cache(state)
    return acc


def build_labels(state):
    """Called from the hot loop every tick: its allocation is flagged."""
    state.labels = [name.upper() for name in state.names]


@coldpath
def refresh_cache(state):
    """Runs rarely by contract (@coldpath): may allocate, not flagged."""
    state.cache = {name: 0.0 for name in state.names}
