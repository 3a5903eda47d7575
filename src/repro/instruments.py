"""One process-wide instrument slot: install, read and scope an instrument.

The metrics recorder (:mod:`repro.telemetry.recorder`), the flight recorder
(:mod:`repro.telemetry.flight`) and the fault plane
(:mod:`repro.runtime.faults`) are each a process-wide instrument with a
no-op default.  Each module owns one :class:`InstrumentSlot` and exports its
bound methods under its own names (``get_recorder = _SLOT.get``, ...), so
call sites read the active instrument without knowing about the slot.

This module imports nothing from :mod:`repro`, so any layer can use it
without an import cycle.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

T = TypeVar("T")


class InstrumentSlot(Generic[T]):
    """Holds the active instrument; starts out holding ``null``."""

    __slots__ = ("_current", "_lock")

    def __init__(self, null: T) -> None:
        self._current = null
        self._lock = threading.Lock()

    def get(self) -> T:
        """The active instrument."""
        return self._current

    def set(self, instrument: T) -> T:
        """Install ``instrument`` process-wide; returns the previous one."""
        with self._lock:
            previous = self._current
            self._current = instrument
        return previous

    def use(self, instrument: T) -> _Scope[T]:
        """``with slot.use(instrument): ...`` — install, restore on exit."""
        return _Scope(self, instrument)


class _Scope(Generic[T]):
    """Context manager installing an instrument and restoring the previous one."""

    __slots__ = ("_slot", "_instrument", "_previous")

    def __init__(self, slot: InstrumentSlot[T], instrument: T) -> None:
        self._slot = slot
        self._instrument = instrument

    def __enter__(self) -> T:
        self._previous = self._slot.set(self._instrument)
        return self._instrument

    def __exit__(self, *exc_info: object) -> None:
        self._slot.set(self._previous)
        return None
