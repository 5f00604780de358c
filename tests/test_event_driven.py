"""Actuator state pushed on change, checked against the oracle bodies.

The node tick does per-tick work only where state can change between
ticks: the motor hears the fan chip's PWM1 byte only when it changed,
the core consumes DVFS stall only while some is pending, the chip runs
its automatic curve only in auto mode (REMOTE1 is encoded when read),
and a job counts its unfinished ranks instead of scanning them.
``tests/reference_engine.py`` does each of these every tick; here the
two are driven side by side through the events that change the state:
host writes between ticks, mode flips, P-state switches and ranks that
finish at different times.
"""

from __future__ import annotations

import pytest

from repro.cluster.node import Node
from repro.config import NodeConfig
from repro.cpu.core import CpuCore
from repro.cpu.dvfs import Dvfs, GangedDvfs
from repro.cpu.pstate import ATHLON64_4000
from repro.fan.adt7467 import (
    ADT7467,
    CONFIG_AUTO_REMOTE1,
    CONFIG_MANUAL,
    REG_PWM1_CONFIG,
    REG_PWM1_DUTY,
    REG_REMOTE1_TEMP,
    Adt7467Config,
)
from repro.workloads.base import (
    CommSegment,
    ComputeSegment,
    IdleSegment,
    Job,
    RankProgram,
)
from tests.reference_engine import (
    reference_chip_update,
    reference_core_step,
    reference_node_step,
)

NAN = float("nan")
INF = float("inf")
DT = 0.05


# ------------------------------------------------------------------ job end


def _rank(name: str, seconds: float) -> RankProgram:
    """A rank that computes for about ``seconds`` at 2.4 GHz, then idles."""
    return RankProgram(
        [ComputeSegment(seconds * 2.4e9), IdleSegment(0.12)], name=name
    )


def _job_states(job: Job, cores) -> list:
    """Tick every core until the job ends; ``(finished, all(...))`` after
    every tick."""
    states = [(job.finished, all(r.finished for r in job.ranks))]
    for tick in range(1, 200):
        for core in cores:
            core.step(tick * DT, DT)
        states.append((job.finished, all(r.finished for r in job.ranks)))
        if states[-1][1]:
            break
    return states


def test_job_finished_equals_all_ranks_every_tick() -> None:
    """A rank finished before the job was built, a zero-segment rank,
    ranks ending on different ticks, one rank listed twice and one
    shared with a second job: the count agrees with ``all`` every tick."""
    done = RankProgram([], name="done")
    done.advance(DT, 2.4e9)
    assert done.finished
    empty = RankProgram([], name="empty")
    short, long, twice = _rank("short", 0.2), _rank("long", 0.6), _rank("twice", 0.4)
    job = Job([done, empty, short, long, twice, twice], name="mixed")
    other = Job([long], name="other")
    cores = []
    for rank in (done, empty, short, long, twice):
        core = CpuCore(Dvfs(ATHLON64_4000), name=rank.name)
        core.bind_rank(rank)
        cores.append(core)
    states = _job_states(job, cores)
    assert all(got == want for got, want in states)
    assert [want for _, want in states].count(False) > 5  # it ran a while
    assert states[-1] == (True, True)
    assert other.finished


def test_job_of_finished_ranks_is_finished_at_construction() -> None:
    ranks = [RankProgram([], name=f"r{i}") for i in range(3)]
    for rank in ranks:
        rank.advance(DT, 2.4e9)
    assert Job(ranks).finished
    assert not Job([RankProgram([CommSegment(0.1)])]).finished


# ---------------------------------------------------------- fan chip, motor


def _fan_state(node: Node) -> tuple:
    motor, chip = node.fan_motor, node.fan_chip
    return (
        repr(motor._duty),
        repr(motor._rpm),
        repr(node.package.die_temperature),
        chip.read_register(REG_PWM1_DUTY),
        chip.read_register(REG_REMOTE1_TEMP),
    )


#: Host writes applied between ticks: tick -> [(register, byte)].
HOST_WRITES = {
    3: [(REG_PWM1_CONFIG, CONFIG_MANUAL)],
    5: [(REG_PWM1_DUTY, 200)],
    6: [(REG_PWM1_DUTY, 200)],  # the same byte again: nothing to push
    9: [(REG_PWM1_DUTY, 13)],
    12: [(REG_PWM1_CONFIG, CONFIG_AUTO_REMOTE1)],
    15: [(REG_PWM1_CONFIG, CONFIG_MANUAL), (REG_PWM1_DUTY, 255)],
    16: [(REG_PWM1_DUTY, 0)],
    18: [(REG_PWM1_CONFIG, CONFIG_AUTO_REMOTE1)],
}


@pytest.mark.parametrize("auto", (True, False))
def test_host_pwm_writes_and_mode_flips_reach_the_motor_next_tick(auto) -> None:
    """A bus write of PWM1 between ticks and auto -> manual -> auto
    flips of PWM1_CONFIG reach the motor on the next tick with the
    oracle's bits (the oracle pushes the duty every tick)."""
    config = NodeConfig(fan_chip=Adt7467Config(auto=auto))
    new, ref = nodes = [Node("n0", config=config) for _ in range(2)]
    step = new.compiled_step()  # hoisted once, as the engine does
    pushes = []
    for tick in range(1, 22):
        for register, byte in HOST_WRITES.get(tick, ()):
            for node in nodes:
                node.bus.write_byte_data(node.fan_chip.address, register, byte)
        # heat the die so the auto curve moves the duty byte
        for node in nodes:
            node.package._net.set_temperature(node.package._die, 30.0 + 3.0 * tick)
        before = new.fan_motor._duty
        t = tick * DT
        step(t, DT)
        reference_node_step(ref, t, DT)
        assert _fan_state(new) == _fan_state(ref), tick
        pushes.append(new.fan_motor._duty != before)
    assert sum(pushes) >= 4  # the duty moved on several ticks


def test_manual_remote1_read_is_the_oracle_byte_after_each_reading() -> None:
    """In manual mode the chip stores the reading and REMOTE1 encodes
    the last one when read: after each of a run of readings (finite,
    NaN, infinite, out of range) it is the byte the oracle pokes."""
    config = Adt7467Config(auto=False)
    new, ref = ADT7467(config), ADT7467(config)
    for remote in (50.0, NAN, INF, 500.0, -INF, -300.0, 37.5, 38.5, -0.5):
        new.update(remote)
        reference_chip_update(ref, remote)
        assert new.read_register(REG_REMOTE1_TEMP) == ref.read_register(
            REG_REMOTE1_TEMP
        ), remote
        assert new.commanded_duty == ref.commanded_duty


# ------------------------------------------------------------ DVFS and core


@pytest.mark.parametrize("ganged", (False, True))
def test_stall_consumed_only_while_pending_matches_oracle(ganged) -> None:
    """Switches that leave more stall than one tick, and ticks with none
    pending: the core's state has the oracle's bits every tick."""

    def make() -> CpuCore:
        if ganged:
            dvfs = GangedDvfs(
                ATHLON64_4000, followers=[Dvfs(ATHLON64_4000)],
                transition_latency=0.12,
            )
        else:
            dvfs = Dvfs(ATHLON64_4000, transition_latency=0.12)
        core = CpuCore(dvfs, "c")
        core.bind_rank(_rank("r", 2.0))
        return core

    new, ref = make(), make()
    switches = {2: 3, 3: 1, 9: 4, 10: 4, 17: 0}
    for tick in range(1, 25):
        t = tick * DT
        if tick in switches:
            new.dvfs.set_index(switches[tick], t)
            ref.dvfs.set_index(switches[tick], t)
        new.step(t, DT)
        reference_core_step(ref, t, DT)
        assert repr(
            (new._utilization, new._busy_seconds, new._retired_cycles,
             new.dvfs._stall_remaining)
        ) == repr(
            (ref._utilization, ref._busy_seconds, ref._retired_cycles,
             ref.dvfs._stall_remaining)
        ), tick


def test_set_index_and_step_down_need_the_time() -> None:
    dvfs = Dvfs(ATHLON64_4000)
    with pytest.raises(TypeError):
        dvfs.set_index(1)
    with pytest.raises(TypeError):
        dvfs.step_down()
    ganged = GangedDvfs(ATHLON64_4000, followers=[Dvfs(ATHLON64_4000)])
    with pytest.raises(TypeError):
        ganged.set_index(1)
    assert dvfs.index == 0 and ganged.index == 0
