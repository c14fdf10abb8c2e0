"""Simulation throughput: steps/sec with the decode cache on vs. off.

The ROADMAP's north star is a simulator that runs "as fast as the
hardware allows"; every scenario sweep multiplies the cost of the step
loop.  This bench records the throughput trajectory of the interpreter
across the four corners of the fast-path matrix:

* decoded-instruction cache on / off (``DeviceConfig.decode_cache_enabled``),
* per-step trace recording on / off (``DeviceConfig.trace_enabled``),

measured on the paper's firmware images (the Fig. 4 blinker and the
Section 3 syringe pump).  The companion differential test
(``tests/integration/test_decode_cache_differential.py``) proves that
every configuration produces byte-for-byte identical traces and monitor
observations; this file only measures speed.

Run with ``pytest benchmarks/test_bench_sim_throughput.py --benchmark-only -s``
to see the table alongside the timing statistics.
"""

from __future__ import annotations

import time

from repro.device.mcu import Device, DeviceConfig
from repro.firmware.blinker import blinker_firmware
from repro.firmware.syringe_pump import PumpParameters, busy_wait_pump_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.isa.assembler import Assembler
from repro.peripherals.registers import PeripheralRegisters

#: Steps per measurement pass.  Long enough that the per-pass overhead
#: (building the bench, warming the cache) is negligible.
MEASURE_STEPS = 30000
#: Measurement passes per configuration; the best one is reported so a
#: scheduling hiccup cannot fail the ratio assertion.
REPEATS = 4
#: Required speedup of the decode cache (trace off, like for like).
REQUIRED_SPEEDUP = 3.0


def _fresh_device(firmware, decode_cache, trace):
    """A monitor-less device running *firmware* from reset."""
    bench = PoxTestbench(firmware, TestbenchConfig(
        decode_cache_enabled=decode_cache, trace_enabled=trace,
    ))
    device = bench.device
    # The monitor pipeline is identical in every configuration (the
    # differential test proves it); detach it so the measurement sees
    # the raw step loop.
    device.detach_monitor(bench.monitor)
    return device


def _steps_per_second(firmware, decode_cache, trace):
    best = 0.0
    for _ in range(REPEATS):
        device = _fresh_device(firmware, decode_cache, trace)
        device.run_steps(1000)  # settle: boot code, cold decode cache
        started = time.perf_counter()
        device.run_steps(MEASURE_STEPS)
        elapsed = time.perf_counter() - started
        best = max(best, MEASURE_STEPS / elapsed)
    return best


def _matrix(firmware):
    """Measure all four cache/trace corners for *firmware*."""
    return {
        (cache, trace): _steps_per_second(firmware, cache, trace)
        for cache in (True, False)
        for trace in (True, False)
    }


def _rows(name, matrix):
    rows = []
    for cache in (False, True):
        for trace in (False, True):
            rows.append({
                "firmware": name,
                "decode cache": "on" if cache else "off",
                "trace": "on" if trace else "off",
                "steps/sec": "%.0f" % matrix[(cache, trace)],
            })
    return rows


def _assert_speedup(benchmark, table_printer, firmware, title):
    """Measure the matrix, print it, assert the cache speedup.

    The matrix itself is measured with ``perf_counter`` (the four cells
    must be like-for-like); one pass of the fast configuration is also
    run under the ``benchmark`` fixture so the test is collected by
    ``pytest benchmarks/ --benchmark-only`` and leaves a trajectory
    sample.
    """
    matrix = _matrix(firmware)
    table_printer(title, _rows(title, matrix))
    speedup = matrix[(True, False)] / matrix[(False, False)]
    print("decode-cache speedup (trace off): %.2fx" % speedup)
    benchmark.pedantic(
        lambda: _fresh_device(firmware, True, False).run_steps(2000),
        rounds=1,
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_decode_cache_speedup_blinker(benchmark, table_printer):
    """The cache gives >= 3x steps/sec on the Fig. 4 blinker firmware."""
    _assert_speedup(benchmark, table_printer,
                    blinker_firmware(authorized=True),
                    "Simulation throughput (blinker)")


def test_decode_cache_speedup_syringe_pump(benchmark, table_printer):
    """The cache gives >= 3x steps/sec on the syringe-pump firmware."""
    _assert_speedup(benchmark, table_printer,
                    busy_wait_pump_firmware(PumpParameters(dosage_cycles=200)),
                    "Simulation throughput (busy-wait pump)")


def test_trace_recording_is_not_the_bottleneck(benchmark, table_printer):
    """With the cache on, tracing costs less than the decode loop did."""
    firmware = blinker_firmware(authorized=True)
    traced = _steps_per_second(firmware, True, True)
    untraced = _steps_per_second(firmware, False, False)
    table_printer("Tracing overhead vs. decode overhead", [
        {"configuration": "cache on, trace on", "steps/sec": "%.0f" % traced},
        {"configuration": "cache off, trace off", "steps/sec": "%.0f" % untraced},
    ])
    benchmark.pedantic(
        lambda: _fresh_device(firmware, True, True).run_steps(2000),
        rounds=1,
    )
    # Even paying for full trace recording, the cached interpreter beats
    # the uncached one running with tracing disabled.
    assert traced > untraced


def test_run_batch_beats_per_step_loop(benchmark, table_printer):
    """The batched loop outruns the per-step ``run`` loop (PR 1 shape).

    ``run_batch`` hoists the crash/event/tick checks out of quiescent
    stretches and, with no observers attached, skips per-step signal
    bundles entirely; the differential tests
    (``tests/unit/test_run_batch.py``) pin byte-identical behaviour.
    """
    firmware = blinker_firmware(authorized=True)

    def best_rate(run_function):
        best = 0.0
        for _ in range(REPEATS):
            device = _fresh_device(firmware, decode_cache=True, trace=False)
            device.run_steps(1000)  # settle: boot code, cold decode cache
            started = time.perf_counter()
            run_function(device)
            elapsed = time.perf_counter() - started
            best = max(best, MEASURE_STEPS / elapsed)
        return best

    per_step = best_rate(lambda device: device.run(max_steps=MEASURE_STEPS))
    batched = best_rate(lambda device: device.run_batch(MEASURE_STEPS))
    table_printer("Batched vs. per-step loop (blinker, cache on, trace off)", [
        {"loop": "per-step Device.run", "steps/sec": "%.0f" % per_step},
        {"loop": "batched Device.run_batch", "steps/sec": "%.0f" % batched,
         "speedup": "%.2fx" % (batched / per_step)},
    ])
    benchmark.pedantic(
        lambda: _fresh_device(firmware, True, False).run_batch(2000),
        rounds=1,
    )
    assert batched >= 1.2 * per_step


def _quiet_device(firmware):
    """A monitor-less, trace-less device running *firmware*."""
    bench = PoxTestbench(firmware, TestbenchConfig(trace_enabled=False))
    device = bench.device
    device.detach_monitor(bench.monitor)
    return device


_STOP_WATCHDOG = "MOV #0x5A80, &0x%04X\n" % PeripheralRegisters.WDTCTL

#: Memory-heavy copy/accumulate loop: autoincrement + indexed operands
#: and memory-destination writeback on every iteration.
MEMLOOP_SOURCE = _STOP_WATCHDOG + """
outer:
    MOV #0x0200, R5
    MOV #0x0300, R6
    MOV #16, R7
copy:
    MOV @R5+, R8
    ADD R8, R9
    MOV R8, 0(R6)
    ADD #2, R6
    DEC R7
    JNE copy
    JMP outer
"""

#: Attestation-shaped inner loop: streams a region through a running
#: digest state (rotate/swap/xor/decimal-add mix, PUSH/POP spill) --
#: Format II and DADD on the silent path.
ATTEST_SOURCE = _STOP_WATCHDOG + """
    MOV #0x03FE, R1
    MOV #0x1234, R7
outer:
    MOV #0x0200, R5
    MOV #0x0240, R10
chunk:
    MOV @R5+, R6
    ADD R6, R7
    RRA R7
    SWPB R6
    XOR R6, R7
    PUSH R7
    DADD R6, R11
    POP R11
    CMP R10, R5
    JNE chunk
    JMP outer
"""


def _asm_device(source):
    """A trace-less raw device running bare assembly from 0xE000."""
    device = Device(DeviceConfig(trace_enabled=False))
    image = Assembler().assemble(".section .text\n" + source,
                                 section_addresses={".text": 0xE000})
    image.write_to(device.memory)
    device.ivt.set_reset_vector(0xE000)
    device.reset()
    return device


def _rate_of(make_device):
    """Best steps/sec over ``REPEATS`` batched runs, plus the last
    device's decode-cache statistics."""
    best = 0.0
    device = None
    for _ in range(REPEATS):
        device = make_device()
        device.run_batch(1000)  # settle: boot code, decode cache
        started = time.perf_counter()
        device.run_batch(MEASURE_STEPS)
        elapsed = time.perf_counter() - started
        best = max(best, MEASURE_STEPS / elapsed)
    assert not device.crashed, device.crash_reason
    return best, device.decode_cache.stats()


#: The labeled workload matrix behind the ``BENCH_sim.json`` rows that
#: ``compare_bench.py --profile sim`` gates (normalized to
#: ``interp-idle``, so the gate tracks the memory-workload overhead
#: ratios, not absolute runner speed).
_WORKLOADS = (
    ("idle", lambda: _quiet_device(blinker_firmware(authorized=True))),
    ("memloop", lambda: _asm_device(MEMLOOP_SOURCE)),
    ("attest", lambda: _asm_device(ATTEST_SOURCE)),
)


def test_engine_workload_rates(benchmark, table_printer, bench_json):
    """Record the interpreter's rate on each labeled workload row.

    Same batched loop, trace off, no monitors: this test only measures
    speed and records the labeled ``BENCH_sim.json`` rows (idle loop,
    memory-heavy loop, attestation inner loop) that
    ``benchmarks/compare_bench.py`` guards in CI.
    """
    json_rows = []
    table_rows = []
    for workload, make in _WORKLOADS:
        label = "interp-%s" % workload
        rate, cache_stats = _rate_of(make)
        json_rows.append({
            "label": label,
            "workload": workload,
            "steps_per_sec": rate,
            "decode_cache": cache_stats,
        })
        table_rows.append({"row": label, "steps/sec": "%.0f" % rate})
    table_printer("Execution loop (batched, trace off)", table_rows)

    bench_json("BENCH_sim.json", {
        "benchmark": "execution_engine_throughput",
        "unit": "steps/sec",
        "measure_steps": MEASURE_STEPS,
        "rows": json_rows,
    })

    benchmark.pedantic(
        lambda: _quiet_device(blinker_firmware(authorized=True)
                              ).run_batch(2000),
        rounds=1,
    )


def test_throughput_trajectory(benchmark):
    """Record the fast-path configuration in the bench trajectory."""
    firmware = blinker_firmware(authorized=True)

    def run():
        device = _fresh_device(firmware, decode_cache=True, trace=False)
        device.run_steps(MEASURE_STEPS)
        return device.step_number

    steps = benchmark(run)
    assert steps >= MEASURE_STEPS
