"""The process-wide instrument slots: metrics recorder, flight recorder, faults.

Each module exports the bound methods of one ``InstrumentSlot`` under its
own names; one parametrized test pins the get/set/use contract they share.
"""

from __future__ import annotations

import pytest

from repro.runtime import faults
from repro.telemetry import flight, recorder

SLOTS = {
    "recorder": (
        recorder.get_recorder,
        recorder.set_recorder,
        recorder.use_recorder,
        recorder.NULL_RECORDER,
        lambda path: recorder.MetricsRecorder(),
    ),
    "flight": (
        flight.get_flight_recorder,
        flight.set_flight_recorder,
        flight.use_flight_recorder,
        flight.NULL_FLIGHT_RECORDER,
        lambda path: flight.FlightRecorder(path / "run"),
    ),
    "faults": (
        faults.get_fault_plane,
        faults.set_fault_plane,
        faults.use_fault_plane,
        faults.NULL_FAULT_PLANE,
        lambda path: faults.FaultPlane(faults.FaultPlan()),
    ),
}


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_slot_installs_and_restores(name, tmp_path):
    get, set_, use, null, make = SLOTS[name]
    outer, inner = make(tmp_path / "outer"), make(tmp_path / "inner")
    assert get() is null and not null.enabled

    with use(outer) as active:
        assert active is outer and get() is outer and outer.enabled
        with use(inner):
            assert get() is inner
        assert get() is outer
    assert get() is null

    with pytest.raises(RuntimeError):
        with use(outer):
            raise RuntimeError("boom")
    assert get() is null

    assert set_(outer) is null
    try:
        assert get() is outer
        assert set_(inner) is outer
    finally:
        assert set_(null) is inner
    assert get() is null
