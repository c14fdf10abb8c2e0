"""Differential tests: the decode cache must be observably invisible.

Every firmware image is run twice -- decode cache enabled and disabled
-- through the full proof-of-execution exchange, with asynchronous
events (button presses, UART bytes, DMA) firing mid-run.  The recorded
traces, including every monitor-exported signal, must match entry for
entry, and the protocol outcome must be identical.  This is the
guarantee the hardware monitors rely on: a cache hit produces the same
signal bundle, byte for byte, as a cold decode.  The same holds on the
observer-free batched path, including a hot loop that rewrites its own
body.
"""

import pytest

from repro.device.mcu import Device, DeviceConfig
from repro.firmware.attacks import attack_suite
from repro.firmware.blinker import blinker_firmware
from repro.firmware.sensor_logger import sensor_logger_firmware
from repro.firmware.syringe_pump import (
    PumpParameters,
    busy_wait_pump_firmware,
    syringe_pump_firmware,
)
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.isa.assembler import Assembler
from repro.peripherals.registers import PeripheralRegisters


def _entry_tuple(entry):
    return (
        entry.step,
        entry.cycle,
        entry.pc,
        entry.next_pc,
        entry.irq,
        entry.irq_source,
        entry.instruction,
        tuple(sorted(entry.monitor_signals.items())),
    )


def _run(firmware, architecture, decode_cache, setup=None):
    bench = PoxTestbench(firmware, TestbenchConfig(
        architecture=architecture, decode_cache_enabled=decode_cache,
    ))
    result = bench.run_pox(setup=setup)
    return bench, result


def _assert_identical(firmware, architecture="asap", setup=None):
    bench_on, result_on = _run(firmware, architecture, True, setup)
    bench_off, result_off = _run(firmware, architecture, False, setup)

    assert result_on.accepted == result_off.accepted
    assert result_on.reason == result_off.reason
    assert bench_on.exec_flag == bench_off.exec_flag
    assert (bench_on.device.interrupt_controller.serviced
            == bench_off.device.interrupt_controller.serviced)
    assert bench_on.output_bytes() == bench_off.output_bytes()

    entries_on = [_entry_tuple(entry) for entry in bench_on.device.trace]
    entries_off = [_entry_tuple(entry) for entry in bench_off.device.trace]
    assert entries_on == entries_off


FIRMWARE_IMAGES = [
    pytest.param(lambda: blinker_firmware(authorized=True), id="blinker-authorized"),
    pytest.param(lambda: blinker_firmware(authorized=False), id="blinker-unauthorized"),
    pytest.param(lambda: syringe_pump_firmware(PumpParameters(dosage_cycles=120)),
                 id="syringe-pump"),
    pytest.param(lambda: busy_wait_pump_firmware(PumpParameters(dosage_cycles=120)),
                 id="busy-wait-pump"),
    pytest.param(lambda: sensor_logger_firmware(), id="sensor-logger"),
]


class TestTraceIdentity:
    @pytest.mark.parametrize("firmware_factory", FIRMWARE_IMAGES)
    def test_asap_pox_traces_identical(self, firmware_factory):
        _assert_identical(
            firmware_factory(), "asap",
            setup=lambda device: device.schedule_button_press(6),
        )

    def test_apex_pox_traces_identical(self):
        _assert_identical(blinker_firmware(authorized=True), "apex")

    def test_traces_identical_with_dma_running(self):
        def setup(device):
            device.dma.configure(source=0x0200, destination=0x0300, size_words=8)
            device.schedule(5, lambda d: d.dma.trigger(), label="dma")

        _assert_identical(blinker_firmware(authorized=True), "asap", setup=setup)

    def test_traces_identical_with_uart_traffic(self):
        def setup(device):
            device.schedule_uart_rx(4, b"\x55\xAA")

        _assert_identical(blinker_firmware(authorized=True), "asap", setup=setup)


class TestAttackGalleryUnaffected:
    def test_every_attack_scenario_still_detected(self):
        """The gallery rewrites code and the IVT; with the (default-on)
        decode cache every scenario must still end the same way."""
        for scenario in attack_suite():
            outcome = scenario.run()
            assert outcome.detected, scenario.name


def _assemble(source):
    return Assembler().assemble(".section .text\n" + source,
                                section_addresses={".text": 0xE000})


def _encode_single(source):
    """The encoded word of a one-instruction snippet (read back through
    a scratch device, so the test never hardcodes an encoding)."""
    device = Device(DeviceConfig(trace_enabled=False))
    _assemble(source).write_to(device.memory)
    return device.memory.peek_word(0xE000)


# The loop body starts as "INC R6" (count by one) and is rewritten
# in-place to "ADD #2, R6" (count by two) after the first pass -- the
# rewrite targets a word the hot loop has already fetched many times.
# R8 counts loop iterations: 40 on the first pass, 20 on each of the
# three rewritten passes, and only if the fresh bytes execute.
SELF_MODIFYING_SOURCE = (
    "MOV #0x5A80, &0x%04X\n" % PeripheralRegisters.WDTCTL + """
CLR R7
CLR R8
outer:
CLR R6
loop:
INC R6
INC R8
CMP #40, R6
JL loop
MOV #0x%04X, &loop
INC R7
CMP #4, R7
JL outer
done:
JMP done
""")


class TestSelfModifyingHotLoop:
    def test_rewritten_loop_word_executes_fresh_bytes(self):
        add2_word = _encode_single("ADD #2, R6")
        assert add2_word != _encode_single("INC R6")
        image = _assemble(SELF_MODIFYING_SOURCE % add2_word)
        states = {}
        devices = {}
        for decode_cache in (True, False):
            # Trace off, no monitors: the observer-free batched path.
            device = Device(DeviceConfig(trace_enabled=False,
                                         decode_cache_enabled=decode_cache))
            image.write_to(device.memory)
            device.ivt.set_reset_vector(0xE000)
            device.reset()
            # Two chunks, so the second re-enters the cached loop.
            device.run_batch(137)
            device.run_batch(863)
            states[decode_cache] = {
                "registers": list(device.cpu.registers),
                "step_count": device.cpu.step_count,
                "cycle_count": device.cpu.cycle_count,
                "step_number": device.step_number,
                "crashed": device.crashed,
                "memory": device.memory.dump(0, 0x10000),
            }
            devices[decode_cache] = device
        assert states[True] == states[False]
        assert not states[True]["crashed"]
        assert devices[True].decode_cache.invalidations > 0
        registers = states[True]["registers"]
        assert registers[7] == 4
        assert registers[8] == 40 + 3 * 20
