"""Common peripheral behaviour.

A peripheral owns a handful of memory-mapped registers.  Register reads
by the CPU simply read memory; the peripheral keeps the backing bytes up
to date from :meth:`tick`, which the device calls once per simulated
step with the number of CPU cycles that elapsed.

Peripheral-internal register updates use the memory's load-time store so
they do not appear as CPU or DMA bus traffic to the security monitors
(on the real device they happen inside the peripheral, not on the
monitored data bus).

Tick fast path
--------------

Whenever the device ticks peripherals at all (outside the stretches
described under *Idle horizons*), :meth:`tick` and
:meth:`interrupt_pending` run once per simulated step for every
peripheral, so re-reading the memory-mapped registers each time
dominates the cost of an otherwise idle peripheral.  Subclasses
call :meth:`_watch_registers` to register a dirty flag with the memory's
write-listener hook: any mutation of the watched address range (CPU or
DMA bus write *or* load-time store) sets ``_regs_dirty``, and the tick
can return immediately while the flag is clear and the peripheral has no
internal work pending.  The flag starts dirty so the first tick always
evaluates the registers.  A tick that stores into its own registers
(Timer A's counter, the watchdog's self-clearing bit) folds those stores
in and leaves the flag clear: only writes from outside re-dirty it.

Idle horizons
-------------

:meth:`idle_horizon` tells the device how long the peripheral can go
without a real tick:

* ``None`` -- idle indefinitely: until a watched register is written or
  an external stimulus arrives (both raise flags the device listens
  to), a tick would neither change any state nor depend on the elapsed
  cycles.  While every peripheral says ``None`` and no interrupt is
  pending, the device stops ticking peripherals altogether.
* ``0`` -- the next tick does real work (a dirty register, a transfer
  in flight, a compare or expiry due on the next cycle).
* ``n`` -- the next *n* one-cycle ticks only count (a timer counter
  climbing towards its compare, a watchdog counting down); none of them
  sets a flag, raises an interrupt or expires.  :meth:`advance_idle`
  applies up to *n* such ticks at once.

The device's sleep stretches (see :meth:`repro.device.mcu.Device.run`)
run ``k`` low-power steps without ticking anything, bounded by the
smallest horizon, then call ``advance_idle(k)`` on every peripheral.
"""

from __future__ import annotations

from typing import Optional


class Peripheral:
    """Base class for all peripherals."""

    #: IVT index this peripheral raises, or ``None`` if it never interrupts.
    ivt_index: Optional[int] = None

    def __init__(self, memory, name):
        self.memory = memory
        self.name = name
        #: Set whenever a watched register is written; see module docstring.
        self._regs_dirty = True
        #: Optional callback for stimuli that do not touch memory (e.g.
        #: UART bytes arriving on the wire).  The owning device installs
        #: it so its quiescence-based fast loop wakes up.
        self.external_wake = None

    def _watch_registers(self, *addresses):
        """Mark this peripheral dirty on writes to any watched address.

        The watch is a single ``[min, max]`` span, so unrelated writes
        that happen to fall between two registers cause a harmless
        spurious re-evaluation, never a missed one.
        """
        lo = min(addresses)
        hi = max(addresses)

        def on_write(address, length, lo=lo, hi=hi, peripheral=self):
            if address <= hi and address + length > lo:
                peripheral._regs_dirty = True

        self.memory.add_write_listener(on_write)

    # ------------------------------------------------------------ register io

    def _read_byte(self, address):
        return self.memory.peek_byte(address)

    def _read_word(self, address):
        return self.memory.peek_word(address)

    def _store_byte(self, address, value):
        self.memory.load_bytes(address, bytes([value & 0xFF]))

    def _store_word(self, address, value):
        self.memory.load_word(address, value & 0xFFFF)

    def _set_bits_byte(self, address, bits):
        self._store_byte(address, self._read_byte(address) | bits)

    def _clear_bits_byte(self, address, bits):
        self._store_byte(address, self._read_byte(address) & ~bits & 0xFF)

    def _set_bits_word(self, address, bits):
        self._store_word(address, self._read_word(address) | bits)

    def _clear_bits_word(self, address, bits):
        self._store_word(address, self._read_word(address) & ~bits & 0xFFFF)

    # ------------------------------------------------------------ interface

    def reset(self):
        """Reset the peripheral's registers to their power-on values."""

    def tick(self, elapsed_cycles):
        """Advance the peripheral by *elapsed_cycles* CPU cycles."""

    def idle_horizon(self):
        """How many one-cycle ticks may be skipped; see the module docstring.

        Returns ``None`` (idle indefinitely), ``0`` (the next tick must
        run) or ``n`` (the next *n* one-cycle ticks only count, and
        :meth:`advance_idle` can apply them).  The conservative default
        is ``0``: always tick.
        """
        return 0

    def advance_idle(self, cycles):
        """Apply *cycles* one-cycle ticks at once.

        Only called with ``cycles`` no larger than a non-``None``
        :meth:`idle_horizon`, or on a peripheral whose horizon is
        ``None`` -- where ticks are unobservable, so the default does
        nothing.  A subclass returning a positive horizon overrides it.
        """

    def interrupt_pending(self):
        """Return ``True`` if the peripheral is requesting an interrupt."""
        return False

    def acknowledge_interrupt(self):
        """Called by the interrupt controller when the CPU services the IRQ."""

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.name)
