"""RPR009 fixture — per-tick allocation inside ``@hotpath`` functions.

Every construct below is legal Python that RPR001–RPR008 accept; the
hotpath-allocation rule must flag each one because the enclosing
functions are ``@hotpath``-marked tick code.  The undecorated
``compile_step`` helper allocates freely and must NOT be flagged.
"""

from repro.sim.marker import hotpath

__all__ = ["compile_step", "step_all", "step_one"]


@hotpath
def step_one(state, t, dt):
    """A tick function that allocates six different ways: all banned."""
    labels = ["die", "sink"]
    readings = {name: state.read(name) for name in labels}
    state.log(f"tick at {t}")
    state.note(str(t))
    extras = {"t": t, "dt": dt}
    state.push(lambda: readings)
    return extras


@hotpath
def step_all(nodes, t, dt):
    """Comprehensions and generator expressions are banned too."""
    seen = {n.name for n in nodes}
    return sum(n.step(t, dt) for n in nodes), seen


def compile_step(nodes):
    """Compile-time code: builds whatever it likes (not flagged)."""
    table = {n.name: n.step for n in nodes}
    order = list(table)
    return [table[name] for name in order]
