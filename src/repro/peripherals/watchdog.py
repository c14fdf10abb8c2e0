"""Watchdog timer model.

The watchdog is included for completeness of the MCU substrate: firmware
for MSP430-class parts conventionally stops it first thing
(``MOV #0x5A80, &WDTCTL``), and several of the example programs do the
same.  When running (not held) it counts CPU cycles and requests a
device reset on expiry: :class:`~repro.device.mcu.Device` checks
:attr:`Watchdog.expired` each tick and performs a warm (PUC-style)
reset when it fires.  Firmware that keeps the watchdog running services
it by writing the conventional counter-clear bit
(``MOV #0x5A08, &WDTCTL``), which reloads the countdown.
"""

from __future__ import annotations

from repro.peripherals.base import Peripheral
from repro.peripherals.registers import PeripheralRegisters, WatchdogBits


#: Power-on interval in cycles before the watchdog fires.
DEFAULT_INTERVAL = 32768


class Watchdog(Peripheral):
    """A down-counting watchdog that requests reset on expiry."""

    def __init__(self, memory, name="watchdog", interval=DEFAULT_INTERVAL):
        super().__init__(memory, name)
        self.interval = interval
        self._remaining = interval
        self._expired = False
        self._held_cache = False
        self._watch_registers(PeripheralRegisters.WDTCTL, PeripheralRegisters.WDTCTL + 1)

    def reset(self):
        self._store_word(PeripheralRegisters.WDTCTL, 0)
        self._remaining = self.interval
        self._expired = False
        self._held_cache = False

    @property
    def held(self):
        """``True`` when firmware has stopped the watchdog."""
        control = self._read_word(PeripheralRegisters.WDTCTL)
        return bool(control & WatchdogBits.HOLD)

    @property
    def expired(self):
        """``True`` once the watchdog has fired (device should reset)."""
        return self._expired

    def kick(self):
        """Reload the counter (firmware writes the clear bit on hardware)."""
        self._remaining = self.interval

    def idle_horizon(self):
        if self._regs_dirty:
            return 0
        if self._held_cache or self._expired:
            # Held or already expired: the countdown is frozen, so
            # elapsed cycles are irrelevant until WDTCTL is written.
            return None
        # Running: every tick but the one that reaches zero only counts.
        return max(self._remaining - 1, 0)

    def advance_idle(self, cycles):
        if not (self._held_cache or self._expired):
            self._remaining -= cycles

    def tick(self, elapsed_cycles):
        if self._regs_dirty:
            self._regs_dirty = False
            control = self._read_word(PeripheralRegisters.WDTCTL)
            self._held_cache = bool(control & WatchdogBits.HOLD)
            if control & WatchdogBits.CLEAR:
                # WDTCNTCL reloads the countdown and reads back as 0
                # (it is a command bit, not state, on the real part).
                self.kick()
                self._store_word(
                    PeripheralRegisters.WDTCTL,
                    control & ~WatchdogBits.CLEAR,
                )
                # Our own self-clearing store re-fired the register
                # watch; nothing external changed, so drop the flag
                # rather than pay a redundant re-evaluation next tick.
                self._regs_dirty = False
        if self._held_cache or self._expired:
            return
        self._remaining -= elapsed_cycles
        if self._remaining <= 0:
            self._expired = True
