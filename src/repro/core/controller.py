"""The unified thermal controller (paper §3.2).

One :class:`UnifiedThermalController` ties the pieces together for one
technique on one node:

.. code-block:: text

    sensor samples ──▶ TwoLevelWindow ──(Δt_l1, Δt_l2)──▶ ModeSelector
                                                             │ slot
                              ThermalControlArray[slot] ◀────┘
                                       │ mode
                                       ▼
                                  ModeActuator

State between rounds is the current *slot index* (not the mode value):
because the array may hold duplicated values, index motion inside a
pinned region is remembered — the controller "knows" how deep into the
aggressive region it has pushed even when consecutive slots map to the
same physical mode.

An emergency override is layered on top (as every production thermal
stack has one): any single sample at/above the policy's ``t_max`` slams
the slot to the most effective end immediately, without waiting for a
window round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim.events import EventLog
from ..telemetry.provenance import ProvenanceRecorder
from ..telemetry.registry import MetricsRegistry
from .actuator import ModeActuator
from .control_array import ThermalControlArray
from .mode_select import ModeSelector
from .policy import Policy
from .window import TwoLevelWindow, WindowUpdate

__all__ = ["ControllerState", "UnifiedThermalController"]


@dataclass
class ControllerState:
    """Mutable bookkeeping of one controller instance.

    Attributes
    ----------
    slot:
        Current 0-based slot in the control array.
    mode_changes:
        Number of times a new physical mode was actuated.
    emergencies:
        Number of emergency overrides taken.
    last_update:
        The most recent window update (None before the first round).
    """

    slot: int = 0
    mode_changes: int = 0
    emergencies: int = 0
    last_update: Optional[WindowUpdate] = None


class UnifiedThermalController:
    """History-based, context-aware controller for one technique.

    Parameters
    ----------
    actuator:
        The wrapped technique.
    policy:
        User policy (``P_p`` and the safe band).
    array_size:
        Slot count N of the control array (default: the shared
        100-slot geometry).
    l1_size / l2_size:
        Window geometry (paper: 4 and 5).
    l2_when_l1_silent:
        §3.2.2's ordering rule; ``False`` disables the level-two
        fallback (ablation).
    events:
        Optional event log; mode changes emit
        ``ctrl.mode`` and emergencies ``ctrl.emergency``.
    name:
        Event source name.
    telemetry:
        Optional :class:`~repro.telemetry.registry.MetricsRegistry`;
        when enabled, every completed window round is published as a
        ``telemetry.decision.*`` provenance record (deltas, triggering
        level, slot/mode motion, the Eq.-(1) pin boundary).
    """

    def __init__(
        self,
        actuator: ModeActuator,
        policy: Policy,
        array_size: Optional[int] = None,
        l1_size: int = 4,
        l2_size: int = 5,
        l2_when_l1_silent: bool = True,
        events: Optional[EventLog] = None,
        name: str = "unified-ctrl",
        telemetry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.actuator = actuator
        self.policy = policy
        self.array = ThermalControlArray(
            actuator.modes, policy, size=array_size
        )
        self.window = TwoLevelWindow(l1_size=l1_size, l2_size=l2_size)
        self.selector = ModeSelector(
            self.array, l2_when_l1_silent=l2_when_l1_silent
        )
        self.events = events
        self.name = name
        self.state = ControllerState(
            slot=self.array.slot_for_mode(actuator.current_mode())
        )
        self.provenance = ProvenanceRecorder(
            events, telemetry, name, actuator.technique
        )

    # -- the control loop --------------------------------------------------

    def push_sample(self, t: float, temperature: float) -> Optional[WindowUpdate]:
        """Feed one sensor sample; acts when a window round completes.

        Returns the :class:`~repro.core.window.WindowUpdate` on rounds,
        ``None`` otherwise.
        """
        if temperature >= self.policy.t_max:
            self._emergency(t, temperature)

        update = self.window.push(t, temperature)
        if update is None:
            return None
        self.state.last_update = update
        slot_before = self.state.slot
        mode_before = self.array[slot_before]
        selection = self.selector.select(
            self.state.slot, update.delta_l1, update.delta_l2
        )
        if selection.slot != self.state.slot:
            self._move_to(selection.slot, t, source=selection.source)
        self.provenance.control_round(
            t,
            delta_l1=update.delta_l1,
            delta_l2=update.delta_l2,
            via=selection.source,
            slot=slot_before,
            target_slot=self.state.slot,
            mode=mode_before,
            target_mode=self.array[self.state.slot],
            n_p=self.array.n_p,
            array_size=len(self.array),
        )
        return update

    def _move_to(self, slot: int, t: float, source: str) -> None:
        """Adopt ``slot``; actuate if the physical mode changed."""
        old_mode = self.array[self.state.slot]
        new_mode = self.array[slot]
        self.state.slot = slot
        if new_mode != old_mode:
            self.actuator.apply(new_mode, t)
            self.state.mode_changes += 1
            if self.events is not None:
                self.events.emit(
                    t,
                    f"ctrl.mode.{self.actuator.technique}",
                    self.name,
                    slot=slot,
                    mode=new_mode,
                    via=source,
                )

    def _emergency(self, t: float, temperature: float) -> None:
        """Slam to the most effective mode on a t_max excursion."""
        top = len(self.array) - 1
        if self.state.slot != top:
            self.state.emergencies += 1
            if self.events is not None:
                self.events.emit(
                    t,
                    f"ctrl.emergency.{self.actuator.technique}",
                    self.name,
                    temperature=temperature,
                )
            self._move_to(top, t, source="emergency")
            self.provenance.emergency(t, temperature, target_slot=top)

    # -- introspection ------------------------------------------------------

    @property
    def current_mode(self):
        """The mode value at the current slot."""
        return self.array[self.state.slot]
