"""General-purpose I/O port model.

The paper's running example (Fig. 4) uses two ports: an input port
(PORT1) whose asynchronous signal -- e.g. a button press -- triggers an
ISR, and an output port (PORT5) that the ISR writes.  The model exposes
:meth:`GpioPort.assert_input` for the external world (testbench,
scenario scripts) and records every value the firmware drives onto the
output register so examples and tests can assert on actuation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.peripherals.base import Peripheral


class GpioPort(Peripheral):
    """One 8-bit GPIO port with per-pin interrupt capability."""

    def __init__(self, memory, name, in_address, out_address, dir_address,
                 ifg_address, ie_address, ivt_index=None):
        super().__init__(memory, name)
        self.in_address = in_address
        self.out_address = out_address
        self.dir_address = dir_address
        self.ifg_address = ifg_address
        self.ie_address = ie_address
        self.ivt_index = ivt_index
        #: History of (cycle, value) pairs written to the output register.
        self.output_history: List[Tuple[int, int]] = []
        self._elapsed = 0
        self._last_output: Optional[int] = None
        self._pending = False
        #: Optional zero-argument callable returning the current total
        #: CPU cycle count.  When installed (by the device), the port
        #: timestamps output changes from it instead of accumulating the
        #: per-tick elapsed cycles, so ticks may be skipped while the
        #: registers are clean.
        self.cycle_source = None
        self._watch_registers(in_address, out_address, dir_address,
                              ifg_address, ie_address)

    def reset(self):
        for address in (self.in_address, self.out_address, self.dir_address,
                        self.ifg_address, self.ie_address):
            self._store_byte(address, 0)
        self.output_history = []
        self._elapsed = 0
        self._last_output = None
        self._pending = False

    # ------------------------------------------------------------ external

    def assert_input(self, pin_mask, level=True):
        """Drive external pins: set/clear bits of the input register.

        Raising an input pin also latches the corresponding interrupt
        flag, which requests an interrupt if that pin's interrupt-enable
        bit is set (the firmware enables it via ``P1IE``).
        """
        if level:
            self._set_bits_byte(self.in_address, pin_mask & 0xFF)
            self._set_bits_byte(self.ifg_address, pin_mask & 0xFF)
        else:
            self._clear_bits_byte(self.in_address, pin_mask & 0xFF)

    def press_button(self, pin_mask=0x01):
        """Convenience wrapper: pulse *pin_mask* high (a button press)."""
        self.assert_input(pin_mask, level=True)

    # ------------------------------------------------------------ state

    def output_value(self):
        """Return the current value of the output register."""
        return self._read_byte(self.out_address)

    def input_value(self):
        """Return the current value of the input register."""
        return self._read_byte(self.in_address)

    def interrupt_enabled_pins(self):
        """Return the IE register value."""
        return self._read_byte(self.ie_address)

    # ------------------------------------------------------------ peripheral

    def idle_horizon(self):
        # With a cycle source installed the elapsed-cycle argument is
        # not needed either, so a clean-register tick is a no-op.
        if self._regs_dirty or self.cycle_source is None:
            return 0
        return None

    def tick(self, elapsed_cycles):
        if self.cycle_source is None:
            self._elapsed += elapsed_cycles
        if not self._regs_dirty:
            return
        self._regs_dirty = False
        if self.cycle_source is not None:
            # Equals the sum of every elapsed_cycles delivered so far
            # (ticks run before the CPU executes), including any ticks
            # skipped while the port was quiescent.
            self._elapsed = self.cycle_source()
        value = self._read_byte(self.out_address)
        if value != self._last_output:
            self.output_history.append((self._elapsed, value))
            self._last_output = value
        self._recompute_pending()

    def _recompute_pending(self):
        if self.ivt_index is None:
            self._pending = False
            return
        flags = self._read_byte(self.ifg_address)
        enabled = self._read_byte(self.ie_address)
        self._pending = bool(flags & enabled)

    def interrupt_pending(self):
        # Registers written since the last tick (e.g. a direct
        # assert_input in a test) are folded in before answering; the
        # dirty flag is left set so the next tick still sees them.
        if self._regs_dirty:
            self._recompute_pending()
        return self._pending

    def acknowledge_interrupt(self):
        """Clear the highest set interrupt flag when the CPU services it.

        The real PORT1 interrupt flag is cleared by the ISR; clearing it
        at acknowledge time keeps the example ISRs minimal without
        changing anything the security monitors observe (the register is
        outside every protected region).
        """
        flags = self._read_byte(self.ifg_address) & self._read_byte(self.ie_address)
        if flags:
            lowest = flags & (-flags)
            self._clear_bits_byte(self.ifg_address, lowest)
