"""DMA controller model.

Direct memory access matters to the security architecture because it
can modify memory *without* the CPU executing a single instruction: the
VRASED/APEX/ASAP monitors therefore watch the DMA address lines in
addition to the CPU's (paper LTL 4 names ``DMA_en`` and ``DMA_addr``
explicitly).  The reproduction's attack scenarios program this engine to
attempt writes to the IVT, the executable region and the output region
during a proof of execution.

The controller copies ``DMA0SZ`` words from ``DMA0SA`` to ``DMA0DA``
when the channel is enabled and a request is raised (software request
bit or :meth:`trigger`).  One word moves per simulated step, so a long
transfer overlaps ER execution the way a real cycle-stealing DMA would.
"""

from __future__ import annotations

from typing import List

from repro.cpu.signals import MemoryRead, MemoryWrite
from repro.peripherals.base import Peripheral
from repro.peripherals.registers import DmaBits, InterruptVectors, PeripheralRegisters


class DmaController(Peripheral):
    """A single-channel, word-granular DMA engine."""

    ivt_index = InterruptVectors.DMA

    def __init__(self, memory, name="dma"):
        super().__init__(memory, name)
        self._active = False
        self._remaining = 0
        self._source = 0
        self._destination = 0
        self._pending_interrupt = False
        self._step_reads: List[MemoryRead] = []
        self._step_writes: List[MemoryWrite] = []
        self._watch_registers(PeripheralRegisters.DMA0CTL,
                              PeripheralRegisters.DMA0SZ + 1)

    def reset(self):
        for register in (
            PeripheralRegisters.DMA0CTL,
            PeripheralRegisters.DMA0SA,
            PeripheralRegisters.DMA0DA,
            PeripheralRegisters.DMA0SZ,
        ):
            self._store_word(register, 0)
        self._active = False
        self._remaining = 0
        self._pending_interrupt = False
        self._step_reads = []
        self._step_writes = []

    # ------------------------------------------------------------ control

    def configure(self, source, destination, size_words):
        """Program the channel registers directly (host-side convenience)."""
        self._store_word(PeripheralRegisters.DMA0SA, source)
        self._store_word(PeripheralRegisters.DMA0DA, destination)
        self._store_word(PeripheralRegisters.DMA0SZ, size_words)

    def trigger(self):
        """Raise a transfer request (equivalent to setting the REQ bit)."""
        self._set_bits_word(PeripheralRegisters.DMA0CTL, DmaBits.EN | DmaBits.REQ)

    @property
    def active(self):
        """``True`` while a transfer is in progress."""
        return self._active

    @property
    def words_remaining(self):
        """Words left in the current transfer."""
        return self._remaining

    # ------------------------------------------------------------ peripheral

    def idle_horizon(self):
        if (self._regs_dirty or self._active
                or self._step_reads or self._step_writes):
            return 0
        return None

    def tick(self, elapsed_cycles):
        # The per-step activity lists were handed over to the signal
        # bundle; rebind (rather than clear) so the old ones survive.
        if self._step_reads:
            self._step_reads = []
        if self._step_writes:
            self._step_writes = []
        if not self._active:
            if not self._regs_dirty:
                return
            self._regs_dirty = False
            control = self._read_word(PeripheralRegisters.DMA0CTL)
            if (control & DmaBits.EN) and (control & DmaBits.REQ):
                self._source = self._read_word(PeripheralRegisters.DMA0SA)
                self._destination = self._read_word(PeripheralRegisters.DMA0DA)
                self._remaining = self._read_word(PeripheralRegisters.DMA0SZ)
                self._active = self._remaining > 0
                self._clear_bits_word(PeripheralRegisters.DMA0CTL, DmaBits.REQ)

        if not self._active:
            return

        # Move one word per step.
        value = self.memory.peek_word(self._source)
        self.memory.load_word(self._destination, value)
        self._step_reads.append(MemoryRead(self._source & 0xFFFE, value, 2))
        self._step_writes.append(MemoryWrite(self._destination & 0xFFFE, value, 2))
        self._source = (self._source + 2) & 0xFFFF
        self._destination = (self._destination + 2) & 0xFFFF
        self._remaining -= 1
        if self._remaining <= 0:
            self._active = False
            self._set_bits_word(PeripheralRegisters.DMA0CTL, DmaBits.IFG)
            self._pending_interrupt = True

    def collect_activity(self):
        """Return ``(reads, writes)`` performed during the last tick.

        The lists are handed over without copying: :meth:`tick` rebinds
        fresh lists at the start of the next tick, so callers may keep
        them (e.g. inside a signal bundle).
        """
        return self._step_reads, self._step_writes

    def interrupt_pending(self):
        return self._pending_interrupt

    def acknowledge_interrupt(self):
        self._pending_interrupt = False
        self._clear_bits_word(PeripheralRegisters.DMA0CTL, DmaBits.IFG)
