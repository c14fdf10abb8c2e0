"""UART model: a byte-oriented serial port with an RX interrupt.

The UART plays two roles in the reproduction:

* it is the channel over which the verifier's attestation request
  (challenge) and the prover's report travel in the protocol examples,
* its RX interrupt is the "network command" asynchronous event of the
  paper's Section 3 (the remote *abort* command a patient or physician
  can send while the syringe pump is dosing).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.peripherals.base import Peripheral
from repro.peripherals.registers import InterruptVectors, PeripheralRegisters


#: URCTL bit: receive interrupt enable.
RX_INTERRUPT_ENABLE = 0x01
#: URXIFG register value when a byte is waiting.
RX_FLAG = 0x01


class Uart(Peripheral):
    """A simple memory-mapped UART."""

    ivt_index = InterruptVectors.UART_RX

    def __init__(self, memory, name="uart"):
        super().__init__(memory, name)
        self._rx_queue: Deque[int] = deque()
        #: Every byte the firmware transmitted, in order.
        self.tx_log: List[int] = []
        self._last_tx_seen = 0
        self._pending = False
        self._watch_registers(PeripheralRegisters.UCTL, PeripheralRegisters.URCTL,
                              PeripheralRegisters.URXBUF, PeripheralRegisters.UTXBUF,
                              PeripheralRegisters.URXIFG, PeripheralRegisters.UTXIFG)

    def reset(self):
        self._store_byte(PeripheralRegisters.UCTL, 0)
        self._store_byte(PeripheralRegisters.URCTL, 0)
        self._store_byte(PeripheralRegisters.URXBUF, 0)
        self._store_byte(PeripheralRegisters.UTXBUF, 0)
        self._store_byte(PeripheralRegisters.URXIFG, 0)
        self._store_byte(PeripheralRegisters.UTXIFG, 0)
        self._rx_queue.clear()
        self.tx_log = []
        self._last_tx_seen = 0
        self._pending = False

    # ------------------------------------------------------------ external

    def receive_byte(self, value):
        """Queue one byte as if it arrived on the wire."""
        self._rx_queue.append(value & 0xFF)
        if self.external_wake is not None:
            self.external_wake()

    def receive_bytes(self, data):
        """Queue an entire byte string."""
        for value in data:
            self.receive_byte(value)

    def transmitted_bytes(self):
        """Return everything the firmware has written to the TX buffer."""
        return bytes(self.tx_log)

    # ------------------------------------------------------------ peripheral

    def idle_horizon(self):
        if self._regs_dirty or self._rx_queue:
            return 0
        return None

    def tick(self, elapsed_cycles):
        if not self._regs_dirty and not self._rx_queue:
            return
        self._regs_dirty = False
        # Latch a queued RX byte into the buffer when the previous one
        # has been consumed (RX flag cleared by firmware or acknowledge).
        rx_flag = self._read_byte(PeripheralRegisters.URXIFG)
        if not rx_flag and self._rx_queue:
            value = self._rx_queue.popleft()
            self._store_byte(PeripheralRegisters.URXBUF, value)
            self._store_byte(PeripheralRegisters.URXIFG, RX_FLAG)
        # Capture TX writes: firmware writing UTXBUF sets UTXIFG itself?
        # Simpler contract: any change of UTXBUF is a transmission.
        tx_value = self._read_byte(PeripheralRegisters.UTXBUF)
        tx_strobe = self._read_byte(PeripheralRegisters.UTXIFG)
        if tx_strobe:
            self.tx_log.append(tx_value)
            self._store_byte(PeripheralRegisters.UTXIFG, 0)
        self._recompute_pending()

    def _recompute_pending(self):
        enabled = self._read_byte(PeripheralRegisters.URCTL) & RX_INTERRUPT_ENABLE
        flag = self._read_byte(PeripheralRegisters.URXIFG) & RX_FLAG
        self._pending = bool(enabled and flag)

    def interrupt_pending(self):
        if self._regs_dirty:
            self._recompute_pending()
        return self._pending

    def acknowledge_interrupt(self):
        """The RX flag is cleared when the buffer is read; the ISR does that.

        Clearing here as well keeps single-instruction demo ISRs from
        re-triggering forever.
        """
        self._store_byte(PeripheralRegisters.URXIFG, 0)
