"""The composed MCU device.

:class:`Device` is the behavioral equivalent of the openMSP430 SoC used
by the paper's prototype: CPU core, 64 KiB memory with the IVT in its
last 32 bytes, GPIO/timer/UART/DMA/watchdog peripherals, an interrupt
controller, and a set of attached *hardware monitors* (the VRASED, APEX
and ASAP modules) that observe every step's signal bundle exactly the
way the Verilog modules observe the MCU buses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cpu.core import CPU, CPUError
from repro.cpu.decode_cache import DecodeCache
from repro.cpu.engine import InterpreterEngine
from repro.cpu.signals import MemoryWrite, SignalBundle
from repro.device.trace import TraceRecorder
from repro.memory.ivt import InterruptVectorTable
from repro.memory.layout import MemoryLayout
from repro.memory.memory import Memory
from repro.peripherals.dma import DmaController
from repro.peripherals.gpio import GpioPort
from repro.peripherals.interrupt_controller import InterruptController
from repro.peripherals.registers import InterruptVectors, PeripheralRegisters
from repro.peripherals.timer import TimerA
from repro.peripherals.uart import Uart
from repro.peripherals.watchdog import Watchdog


@dataclass
class DeviceConfig:
    """Construction parameters for a :class:`Device`.

    ``stack_top`` is where the reset sequence points SP (top of data
    memory by default); ``trace_enabled`` controls whether every step is
    recorded (benches measuring raw simulation speed can turn it off).

    ``decode_cache_enabled`` (default on) attaches a
    :class:`~repro.cpu.decode_cache.DecodeCache` to the CPU so hot loops
    skip re-decoding; every memory mutation (CPU, DMA and load-time
    programming) invalidates overlapping entries, so self-modifying code
    -- including the attack gallery's ER/IVT rewrites -- always executes
    fresh bytes.  ``trace_limit`` bounds the trace recorder to the last
    *N* entries (ring-buffer style) so crashed or soak runs cannot grow
    memory without limit; ``None`` keeps the full trace.
    """

    layout: MemoryLayout = field(default_factory=MemoryLayout.default)
    stack_top: Optional[int] = None
    trace_enabled: bool = True
    decode_cache_enabled: bool = True
    trace_limit: Optional[int] = None

    def resolved_stack_top(self):
        """Return the effective initial stack pointer."""
        if self.stack_top is not None:
            return self.stack_top
        # Stack grows down from the top of data memory (word aligned).
        return (self.layout.data.end + 1) & 0xFFFE


@dataclass
class ScheduledEvent:
    """An external event scheduled to fire at a given step number.

    ``fired`` is latched for the benefit of whoever kept the handle
    returned by :meth:`Device.schedule`; the device itself drops fired
    events from its pending list so long attack schedules do not pay
    O(events) on every step of the run.
    """

    step: int
    action: Callable[["Device"], None]
    label: str = ""
    fired: bool = False


class Device:
    """A complete simulated MCU."""

    def __init__(self, config: Optional[DeviceConfig] = None):
        self.config = config or DeviceConfig()
        self.layout = self.config.layout
        self.memory = Memory()
        self.ivt = InterruptVectorTable(self.memory)
        self.decode_cache = DecodeCache() if self.config.decode_cache_enabled else None
        if self.decode_cache is not None:
            # Every mutation path (CPU/DMA bus writes, load-time
            # programming, reflashing) reports through this hook, so
            # cached decodes can never go stale.
            self.memory.add_write_listener(self.decode_cache.invalidate_range)
        self.cpu = CPU(self.memory, self.ivt, decode_cache=self.decode_cache)

        self.interrupt_controller = InterruptController()
        self.gpio1 = GpioPort(
            self.memory, "port1",
            PeripheralRegisters.P1IN, PeripheralRegisters.P1OUT,
            PeripheralRegisters.P1DIR, PeripheralRegisters.P1IFG,
            PeripheralRegisters.P1IE, ivt_index=InterruptVectors.PORT1,
        )
        self.gpio5 = GpioPort(
            self.memory, "port5",
            PeripheralRegisters.P5IN, PeripheralRegisters.P5OUT,
            PeripheralRegisters.P5DIR, PeripheralRegisters.P5IFG,
            PeripheralRegisters.P5IE, ivt_index=InterruptVectors.PORT5,
        )
        self.timer = TimerA(self.memory)
        self.uart = Uart(self.memory)
        self.dma = DmaController(self.memory)
        self.watchdog = Watchdog(self.memory)
        self.peripherals = [
            self.gpio1, self.gpio5, self.timer, self.uart, self.dma, self.watchdog,
        ]
        for peripheral in self.peripherals:
            self.interrupt_controller.attach(peripheral)

        # --- quiescence-based fast loop wiring -------------------------
        # While every peripheral is quiescent and no interrupt is
        # pending, the step loop skips the per-step peripheral ticks and
        # interrupt arbitration entirely.  Anything that could change
        # that -- a write into the peripheral register page, a scheduled
        # event, an externally received UART byte, an injected interrupt
        # request, or a serviced one -- raises ``_periph_dirty`` again.
        self._periph_dirty = True
        peripheral_page_end = 0x01FF

        def wake(address=None, length=None, _self=self, _end=peripheral_page_end):
            if address is None or address <= _end:
                _self._periph_dirty = True

        self.memory.add_write_listener(wake)
        self.interrupt_controller.on_change = wake
        for peripheral in self.peripherals:
            peripheral.external_wake = wake
        cpu = self.cpu
        self.gpio1.cycle_source = lambda: cpu.cycle_count
        self.gpio5.cycle_source = lambda: cpu.cycle_count

        self.monitors: List[object] = []
        #: Monitors exporting ``signal_values()``; maintained by
        #: attach/detach so the step loop can skip the per-step signal
        #: dict entirely when nothing would populate it.
        self._signal_exporters: List[object] = []
        self.trace = TraceRecorder(
            enabled=self.config.trace_enabled,
            max_entries=self.config.trace_limit,
        )
        self._events: List[ScheduledEvent] = []
        self._last_step_cycles = 0
        self.step_number = 0
        #: Number of warm (PUC-style) resets triggered by watchdog expiry.
        self.watchdog_resets = 0
        #: Set when the CPU hit an illegal instruction (e.g. it was tricked
        #: into jumping through an unprogrammed interrupt vector).  A real
        #: MCU would behave unpredictably; the simulation latches the crash
        #: and stops making progress instead of raising out of the run loop.
        self.crashed = False
        self.crash_reason = ""
        #: The step loop (see :mod:`repro.cpu.engine`).
        self.engine = InterpreterEngine(self)

    # ------------------------------------------------------------ setup

    def _latch_crash(self, error):
        """Latch a :class:`CPUError` as the device's crash."""
        self.crashed = True
        self.crash_reason = str(error)

    def attach_monitor(self, monitor):
        """Attach a hardware monitor (an object with ``observe(bundle)``)."""
        self.monitors.append(monitor)
        if hasattr(monitor, "signal_values"):
            self._signal_exporters.append(monitor)
        return monitor

    def detach_monitor(self, monitor):
        """Remove a previously attached monitor."""
        self.monitors.remove(monitor)
        if monitor in self._signal_exporters:
            self._signal_exporters.remove(monitor)

    def load_image(self, image):
        """Flash an :class:`~repro.isa.assembler.AssembledImage` into memory."""
        image.write_to(self.memory)

    def reset(self):
        """Reset peripherals, interrupt controller, CPU and monitors."""
        for peripheral in self.peripherals:
            peripheral.reset()
        # Injected (including sticky) interrupt requests and serviced
        # counts must not survive a reset, or a scenario reset would
        # immediately re-service a stale spoofed IRQ.
        self.interrupt_controller.reset()
        self.cpu.reset(stack_top=self.config.resolved_stack_top())
        for monitor in self.monitors:
            if hasattr(monitor, "reset"):
                monitor.reset()
        self.trace.clear()
        self._events = []
        self._last_step_cycles = 0
        self.step_number = 0
        self.watchdog_resets = 0
        self.crashed = False
        self.crash_reason = ""
        self._periph_dirty = True

    def schedule(self, step, action, label=""):
        """Schedule *action(device)* to run just before step number *step*.

        ``_events`` is kept sorted by step (stable for equal steps), so
        the step loop only ever has to look at the list head and fired
        events can be pruned from the front.
        """
        event = ScheduledEvent(step=step, action=action, label=label)
        events = self._events
        index = len(events)
        while index > 0 and events[index - 1].step > step:
            index -= 1
        events.insert(index, event)
        return event

    def schedule_button_press(self, step, port=None, pin_mask=0x01):
        """Schedule a GPIO button press (default: port 1, pin 0)."""
        target = port or self.gpio1
        return self.schedule(
            step, lambda device: target.press_button(pin_mask), label="button-press"
        )

    def schedule_uart_rx(self, step, data):
        """Schedule the arrival of UART bytes."""
        return self.schedule(
            step, lambda device: device.uart.receive_bytes(data), label="uart-rx"
        )

    # ------------------------------------------------------------ stepping

    def step(self):
        """Advance the whole device by one step; return the signal bundle."""
        self.step_number += 1
        if self.crashed:
            return self._crash_bundle()
        events = self._events
        if events and events[0].step <= self.step_number:
            self._fire_events()

        if self._periph_dirty:
            elapsed = self._last_step_cycles
            for peripheral in self.peripherals:
                peripheral.tick(elapsed)
            if self.watchdog.expired:
                # An un-serviced watchdog requests a reset; this step's
                # instruction then executes from the reset vector (and
                # an unprogrammed vector crashes the device, exactly as
                # a cold reset into zeroed memory would).
                self._watchdog_reset()
            pending = self.interrupt_controller.highest_pending()
            if pending is None and all(
                peripheral.quiescent() for peripheral in self.peripherals
            ):
                # Nothing can change until a wake signal fires; stop
                # ticking (see the wiring in __init__).
                self._periph_dirty = False
        else:
            pending = None
        try:
            result = self.engine.step(pending)
        except CPUError as error:
            self._latch_crash(error)
            return self._crash_bundle()
        bundle = result.bundle
        self._last_step_cycles = bundle.cycles_consumed

        dma = self.dma
        if dma._step_reads or dma._step_writes:
            bundle.dma_en = True
            bundle.dma_reads = dma._step_reads
            bundle.dma_writes = dma._step_writes

        if result.serviced_interrupt is not None:
            self.interrupt_controller.acknowledge(result.serviced_interrupt)
            self._periph_dirty = True

        trace = self.trace
        if self._signal_exporters:
            monitor_signals: Dict[str, int] = {}
            for monitor in self.monitors:
                monitor.observe(bundle)
                if hasattr(monitor, "signal_values"):
                    monitor_signals.update(monitor.signal_values())
            trace.record(bundle, monitor_signals)
        else:
            # Fast path: no monitor exports signals, so skip the
            # per-step dict churn (and the hasattr probes) entirely.
            for monitor in self.monitors:
                monitor.observe(bundle)
            trace.record(bundle)
        return bundle

    def _watchdog_reset(self):
        """Warm (PUC-style) reset on watchdog expiry.

        CPU, peripherals and the interrupt controller restart; memory,
        the recorded trace, the step counter and the event schedule all
        survive -- a PUC does not clear RAM or rewrite flash, and the
        scenario keeps observing the same run.  Attached monitors are
        left untouched as well: a reset forced mid-proof must not
        launder the violation history that caused (or preceded) it.
        """
        for peripheral in self.peripherals:
            peripheral.reset()
        self.interrupt_controller.reset()
        self.cpu.reset(stack_top=self.config.resolved_stack_top())
        self.watchdog_resets += 1
        self._periph_dirty = True

    def _fire_events(self):
        events = self._events
        while events and events[0].step <= self.step_number:
            event = events.pop(0)
            event.fired = True
            event.action(self)
            # Events run arbitrary actions; conservatively leave the
            # quiescent fast loop so their effects are picked up.
            self._periph_dirty = True

    def _crash_bundle(self):
        """Synthetic bundle emitted once the device has crashed."""
        bundle = SignalBundle(
            cycle=self.cpu.step_count,
            pc=self.cpu.pc,
            next_pc=self.cpu.pc,
            instruction="(crashed: %s)" % self.crash_reason,
            cycles_consumed=1,
        )
        self.trace.record(bundle, {})
        return bundle

    # ------------------------------------------------------------ running

    def run(self, max_steps=10000, stop_condition=None):
        """Run until *stop_condition(bundle, device)* is true or *max_steps*.

        Returns the number of steps executed.
        """
        executed = 0
        step = self.step
        for _ in range(max_steps):
            bundle = step()
            executed += 1
            if self.crashed:
                break
            if stop_condition is not None and stop_condition(bundle, self):
                break
        return executed

    def run_until_pc(self, address, max_steps=10000):
        """Run until the program counter reaches *address*.

        Returns ``True`` if the address was reached within *max_steps*.
        A crash before reaching the target returns ``False`` (unless the
        crash happened at the target address itself): the early ``break``
        of the run loop must not masquerade as success.
        """
        target = address & 0xFFFF
        found = False

        def reached(bundle, _device):
            nonlocal found
            if bundle.next_pc == target or bundle.pc == target:
                found = True
            return found

        self.run(max_steps=max_steps, stop_condition=reached)
        if self.crashed:
            return found or self.cpu.pc == target
        return found

    def run_steps(self, count):
        """Run exactly *count* steps (through the batched inner loop)."""
        self.run_batch(count)

    def run_batch(self, count):
        """Run exactly *count* steps with the per-step checks hoisted.

        Behaviourally identical to calling :meth:`step` *count* times --
        the differential tests pin byte-identical traces -- but the
        crash flag, the event schedule and the peripheral-tick decision
        are checked once per quiescent stretch instead of once per step:
        while no event is due, the peripherals are provably idle and the
        device has not crashed, the chunk is handed to the execution
        engine (:mod:`repro.cpu.engine`), which goes straight from fetch
        to trace.  ``benchmarks/test_bench_sim_throughput.py`` records
        the speedup over the per-step :meth:`run` loop.
        """
        remaining = count
        while remaining > 0:
            if self.crashed or self._periph_dirty:
                self.step()
                remaining -= 1
                continue
            chunk = remaining
            events = self._events
            if events:
                # The next event fires during the step that takes
                # step_number to >= its step; stay strictly before it.
                margin = events[0].step - self.step_number - 1
                if margin <= 0:
                    self.step()
                    remaining -= 1
                    continue
                if margin < chunk:
                    chunk = margin
            remaining -= self.engine.quiescent_chunk(chunk)
        return count

    # ------------------------------------------------------------ helpers

    @property
    def total_cycles(self):
        """Total CPU cycles simulated so far."""
        return self.cpu.cycle_count

    def word_at(self, address):
        """Convenience: read a word without generating bus traffic."""
        return self.memory.peek_word(address)

    def write_word_as_cpu(self, address, value):
        """Perform a software (CPU-initiated) word write at the current PC.

        The write goes to memory *and* is reported to the attached
        monitors as a one-step signal bundle whose ``Wen``/``Daddr``
        reflect the access, so hardware rules such as ASAP's [AP1] see it
        exactly as they would see a ``MOV`` executed by malware.  Used by
        attack scenarios and tests to model ad-hoc software writes
        without assembling a payload.
        """
        self.memory.write_word(address, value)
        bundle = SignalBundle(
            cycle=self.cpu.step_count,
            pc=self.cpu.pc,
            next_pc=self.cpu.pc,
            instruction="(software write to 0x%04X)" % (address & 0xFFFF),
            writes=[MemoryWrite(address & 0xFFFE, value & 0xFFFF, 2)],
            cycles_consumed=1,
        )
        monitor_signals = {}
        for monitor in self.monitors:
            monitor.observe(bundle)
            if hasattr(monitor, "signal_values"):
                monitor_signals.update(monitor.signal_values())
        self.trace.record(bundle, monitor_signals)
        return bundle
