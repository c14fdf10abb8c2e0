"""Timer A model: an up-counting 16-bit timer with one compare channel.

This is the asynchronous event source of the paper's syringe-pump
example (Section 3): the firmware programs the compare register with the
dosage duration, enables the compare interrupt, enters low-power mode
and is woken by the timer ISR, which stops the injection.
"""

from __future__ import annotations

from repro.peripherals.base import Peripheral
from repro.peripherals.registers import InterruptVectors, PeripheralRegisters, TimerBits


#: Idle horizon of a running timer with no compare value (TACCR0 = 0):
#: one full period of the 16-bit counter.
FREE_RUNNING_HORIZON = 0x10000


class TimerA(Peripheral):
    """Up-mode timer with a single capture/compare channel (CCR0)."""

    ivt_index = InterruptVectors.TIMER_A0

    def __init__(self, memory, name="timer_a"):
        super().__init__(memory, name)
        self._pending = False
        self._enabled_cache = False
        self._regs_pending = False
        self._watch_registers(PeripheralRegisters.TACTL, PeripheralRegisters.TACCTL0,
                              PeripheralRegisters.TAR, PeripheralRegisters.TACCR0)

    def reset(self):
        self._store_word(PeripheralRegisters.TACTL, 0)
        self._store_word(PeripheralRegisters.TACCTL0, 0)
        self._store_word(PeripheralRegisters.TAR, 0)
        self._store_word(PeripheralRegisters.TACCR0, 0)
        self._pending = False
        self._enabled_cache = False
        self._regs_pending = False

    # ------------------------------------------------------------ state

    @property
    def enabled(self):
        """``True`` when the timer is counting."""
        return bool(self._read_word(PeripheralRegisters.TACTL) & TimerBits.ENABLE)

    @property
    def counter(self):
        """Current counter (TAR) value."""
        return self._read_word(PeripheralRegisters.TAR)

    @property
    def compare(self):
        """Current compare (TACCR0) value."""
        return self._read_word(PeripheralRegisters.TACCR0)

    @property
    def interrupt_enabled(self):
        """``True`` when the CCR0 compare interrupt is enabled."""
        return bool(self._read_word(PeripheralRegisters.TACCTL0) & TimerBits.CCIE)

    # ------------------------------------------------------------ peripheral

    def idle_horizon(self):
        if self._regs_dirty:
            return 0
        if not self._enabled_cache:
            # A disabled timer neither counts nor raises interrupts; its
            # state can only change through a register write.
            return None
        compare = self._read_word(PeripheralRegisters.TACCR0)
        if not compare:
            # No compare value: the counter only ever wraps, so every
            # tick just counts; report one full counter period.
            return FREE_RUNNING_HORIZON
        return max(compare - self._read_word(PeripheralRegisters.TAR) - 1, 0)

    def advance_idle(self, cycles):
        if cycles and self._enabled_cache:
            counter = self._read_word(PeripheralRegisters.TAR) + cycles
            self._store_word(PeripheralRegisters.TAR, counter & 0xFFFF)
            # Our own store re-fired the register watch; fold it in.
            self._regs_dirty = False

    def tick(self, elapsed_cycles):
        if self._regs_dirty:
            control = self._read_word(PeripheralRegisters.TACTL)
            if control & TimerBits.CLEAR:
                self._store_word(PeripheralRegisters.TAR, 0)
                self._clear_bits_word(PeripheralRegisters.TACTL, TimerBits.CLEAR)
            self._enabled_cache = bool(control & TimerBits.ENABLE)
            self._recompute_regs_pending()
            self._regs_dirty = False
        if not self._enabled_cache:
            return
        counter = self._read_word(PeripheralRegisters.TAR)
        compare = self._read_word(PeripheralRegisters.TACCR0)
        counter += elapsed_cycles
        if compare and counter >= compare:
            # Up mode: wrap to zero and raise the compare flag.
            counter %= compare
            self._set_bits_word(PeripheralRegisters.TACCTL0, TimerBits.CCIFG)
            if self.interrupt_enabled:
                self._pending = True
            self._recompute_regs_pending()
        self._store_word(PeripheralRegisters.TAR, counter & 0xFFFF)
        # The stores above are the timer's own (counter, CLEAR bit,
        # CCIFG) and are already folded into the cached state; only a
        # write from outside should make the next tick re-read TACTL.
        self._regs_dirty = False

    def _recompute_regs_pending(self):
        # Firmware may set CCIFG directly (or it may still be set from a
        # previous expiry that was never serviced); CCIE lives in the
        # same register.
        flags = self._read_word(PeripheralRegisters.TACCTL0)
        self._regs_pending = bool(flags & TimerBits.CCIFG) and bool(
            flags & TimerBits.CCIE
        )

    def interrupt_pending(self):
        if self._pending:
            return True
        if self._regs_dirty:
            # Writes since the last tick are folded in before answering;
            # the dirty flag stays set for the next tick.
            self._recompute_regs_pending()
        return self._regs_pending

    def acknowledge_interrupt(self):
        """CCR0 interrupts are auto-cleared when serviced (as on MSP430)."""
        self._pending = False
        self._clear_bits_word(PeripheralRegisters.TACCTL0, TimerBits.CCIFG)
