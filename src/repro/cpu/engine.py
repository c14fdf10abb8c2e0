"""The execution engine: the decode-cached interpreter loop.

:class:`InterpreterEngine` runs a device's fetch--decode--execute
loop: single observed steps delegate to the
:class:`~repro.cpu.core.CPU`, and the batched chunk loops run the
quiescent stretches ``Device.run_batch`` hands over.

Every step -- observed (monitors attached or tracing on) or silent --
goes through the CPU's decode-cached fetch, so traces, monitor
observations, registers, memory, cycle/step accounting and crash
behaviour are exactly those of per-step :meth:`Device.step` calls.
"""

from __future__ import annotations

import weakref

from repro.cpu.core import CPU, CPUError
from repro.obs.metrics import register_global_collector


class InterpreterEngine:
    """The decode-cached interpreter loop driving one device."""

    name = "interp"

    #: Live instances, for process-wide telemetry snapshots: the
    #: ``engine.*`` registry collector counts these at snapshot time,
    #: so the step loop itself never touches a registry.
    _live = weakref.WeakSet()

    def __init__(self, device):
        self.device = device
        self.cpu: CPU = device.cpu
        InterpreterEngine._live.add(self)

    # ------------------------------------------------------------ stepping

    def step(self, pending_interrupt=None):
        """One observed step; returns a :class:`~repro.cpu.core.StepResult`."""
        return self.cpu.step(pending_interrupt)

    def quiescent_chunk(self, chunk):
        """Up to *chunk* observed steps inside a quiescent stretch.

        Preconditions (established by ``Device.run_batch``): the device
        has not crashed, no scheduled event is due within *chunk* steps,
        and the peripherals are quiescent with no interrupt pending.
        Returns the number of steps executed.
        """
        device = self.device
        monitors = device.monitors
        if not monitors and not device.trace.enabled:
            return self.silent_chunk(chunk)
        cpu_step_quiet = self.cpu.step_quiet
        exporters = device._signal_exporters
        record = device.trace.record
        dma = device.dma
        executed = 0
        while executed < chunk:
            if device._periph_dirty:
                break
            device.step_number += 1
            try:
                bundle = cpu_step_quiet()
            except CPUError as error:
                device._latch_crash(error)
                device._crash_bundle()
                executed += 1
                break
            device._last_step_cycles = bundle.cycles_consumed
            if dma._step_reads or dma._step_writes:
                bundle.dma_en = True
                bundle.dma_reads = dma._step_reads
                bundle.dma_writes = dma._step_writes
            if exporters:
                monitor_signals = {}
                for monitor in monitors:
                    monitor.observe(bundle)
                for monitor in exporters:
                    monitor_signals.update(monitor.signal_values())
                record(bundle, monitor_signals)
            else:
                for monitor in monitors:
                    monitor.observe(bundle)
                record(bundle)
            executed += 1
        return executed

    def silent_chunk(self, chunk):
        """Up to *chunk* observer-free steps (no monitors, no tracing)."""
        device = self.device
        cpu_step_silent = self.cpu.step_silent
        executed = 0
        cycles_total = 0
        last_cycles = device._last_step_cycles
        try:
            while executed < chunk and not device._periph_dirty:
                device.step_number += 1
                last_cycles = cpu_step_silent()
                cycles_total += last_cycles
                executed += 1
        except CPUError as error:
            device._latch_crash(error)
            device._last_step_cycles = last_cycles
            device.trace.count_cycles(cycles_total)
            device._crash_bundle()
            return executed + 1
        device._last_step_cycles = last_cycles
        device.trace.count_cycles(cycles_total)
        return executed


def engine_name():
    """The name of the engine every device runs (recorded by benchmarks)."""
    return InterpreterEngine.name


@register_global_collector
def _collect_engine_metrics(registry):
    """Publish the live engine count as ``engine.interp.instances``.

    Snapshot-on-read: counted over the live engines at snapshot time, so
    the step loop itself never touches the registry.
    """
    instances = len(InterpreterEngine._live)
    if instances:
        registry.gauge("engine.%s.instances" % InterpreterEngine.name).set(
            instances)
