"""P-state tables: ordering, validation, the Athlon64 ladder."""

import pytest

from repro.cpu.pstate import ATHLON64_4000, PState, PStateTable
from repro.errors import ConfigurationError
from repro.units import ghz


class TestPState:
    def test_frequency_ghz(self):
        assert PState(ghz(2.4), 1.5).frequency_ghz == pytest.approx(2.4)

    def test_str(self):
        assert str(PState(ghz(2.4), 1.5)) == "2.4GHz@1.50V"

    def test_rejects_non_positive_frequency(self):
        with pytest.raises(ConfigurationError):
            PState(0.0, 1.5)

    def test_rejects_implausible_voltage(self):
        with pytest.raises(ConfigurationError):
            PState(ghz(2.4), 3.0)

    def test_ordering(self):
        slow = PState(ghz(1.0), 1.1)
        fast = PState(ghz(2.4), 1.5)
        assert slow < fast


class TestPStateTable:
    def test_sorted_fastest_first(self):
        table = PStateTable(
            [PState(ghz(1.0), 1.1), PState(ghz(2.4), 1.5), PState(ghz(1.8), 1.35)]
        )
        assert table.frequencies_ghz() == pytest.approx([2.4, 1.8, 1.0])

    def test_fastest_slowest(self):
        assert ATHLON64_4000[0].frequency_ghz == pytest.approx(2.4)
        assert ATHLON64_4000[-1].frequency_ghz == pytest.approx(1.0)

    def test_needs_two_pstates(self):
        with pytest.raises(ConfigurationError):
            PStateTable([PState(ghz(2.4), 1.5)])

    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(ConfigurationError):
            PStateTable([PState(ghz(2.4), 1.5), PState(ghz(2.4), 1.4)])

    def test_voltage_must_not_increase_downward(self):
        with pytest.raises(ConfigurationError):
            PStateTable([PState(ghz(2.4), 1.3), PState(ghz(1.0), 1.5)])

    def test_index_of_frequency(self):
        assert ATHLON64_4000.index_of_frequency(ghz(2.2)) == 1
        assert ATHLON64_4000.index_of_frequency(ghz(1.0)) == 4

    def test_index_of_frequency_tolerance(self):
        assert ATHLON64_4000.index_of_frequency(2.2e9 + 1e5) == 1

    def test_index_of_unknown_frequency(self):
        with pytest.raises(ConfigurationError):
            ATHLON64_4000.index_of_frequency(ghz(3.0))

    def test_iteration_and_len(self):
        assert len(ATHLON64_4000) == 5
        assert [p.frequency_ghz for p in ATHLON64_4000] == pytest.approx(
            [2.4, 2.2, 2.0, 1.8, 1.0]
        )


class TestAthlonLadder:
    """The paper's §4.1 platform: 2.4/2.2/2.0/1.8/1.0 GHz."""

    def test_exactly_the_paper_frequencies(self):
        assert ATHLON64_4000.frequencies_ghz() == pytest.approx(
            [2.4, 2.2, 2.0, 1.8, 1.0]
        )

    def test_voltages_non_increasing(self):
        volts = [p.voltage for p in ATHLON64_4000]
        assert all(a >= b for a, b in zip(volts, volts[1:]))

    def test_indexing(self):
        assert ATHLON64_4000[0].frequency_ghz == pytest.approx(2.4)
        assert ATHLON64_4000[4].voltage == pytest.approx(1.10)
