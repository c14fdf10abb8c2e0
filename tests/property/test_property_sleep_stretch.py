"""Differential property suite for low-power sleep stretches.

``Device.run`` and ``Device.run_batch`` run the sleep steps of a CPU in
low-power mode as stretches: no per-step peripheral ticks or interrupt
arbitration, the peripherals catching up through ``advance_idle`` when
the stretch ends.  The oracle is a plain loop of ``Device.step()``
calls.  Hypothesis drives the interrupt-driven syringe pump through
everything that can end (or must prevent) a stretch:

* the dosage, including compare 0 (a free-running Timer A);
* CCIE cleared mid-dose, so the compare flag is set but no interrupt
  comes and the CPU sleeps on;
* a trusted abort press, an untrusted PORT5 interrupt and an injected
  interrupt request;
* the watchdog held, or running with an interval that expires inside a
  would-be stretch;
* a UART byte or a DMA transfer arriving during sleep;
* ``max_steps`` and a ``stop_condition`` that end mid-stretch.

Every observable is compared: trace entries (with the monitors'
exported signals), registers, memory, cycle/step counters, Timer A's
counter, the watchdog countdown and resets, serviced interrupts, the
monitor's violations and the IVT guard.
"""

from hypothesis import given, settings, strategies as st

from repro.device.mcu import Device, DeviceConfig
from repro.firmware.syringe_pump import PumpParameters, syringe_pump_firmware
from repro.firmware.testbench import PoxTestbench, TestbenchConfig
from repro.isa.assembler import Assembler
from repro.isa.registers import StatusFlag
from repro.peripherals.registers import (
    InterruptVectors,
    PeripheralRegisters,
    WatchdogBits,
)

#: Events are scheduled this many steps (at most) after ER starts; a
#: dose of 200 cycles puts the CPU to sleep from about step 10 on.
EVENT_WINDOW = 400

EVENT_KINDS = ("abort", "untrusted", "inject", "ccie-off", "uart", "dma")

scenarios = st.fixed_dictionaries({
    "dosage": st.sampled_from([0, 1, 2, 17, 60, 200, 333]),
    "events": st.lists(
        st.tuples(st.sampled_from(EVENT_KINDS),
                  st.integers(min_value=1, max_value=EVENT_WINDOW)),
        max_size=3,
    ),
    # None keeps the watchdog held; an interval lets it run and expire.
    "watchdog": st.one_of(st.none(), st.integers(min_value=5, max_value=600)),
    "uart_irq": st.booleans(),
    "steps": st.integers(min_value=1, max_value=900),
    "stop_at": st.one_of(st.none(), st.integers(min_value=1, max_value=900)),
})


def _event_action(kind):
    if kind == "abort":
        return lambda device: device.gpio1.press_button(0x01)
    if kind == "untrusted":
        return lambda device: device.gpio5.press_button(0x01)
    if kind == "inject":
        return lambda device: device.interrupt_controller.inject(
            InterruptVectors.PORT5)
    if kind == "ccie-off":
        return lambda device: device.memory.load_word(
            PeripheralRegisters.TACCTL0, 0)
    if kind == "uart":
        return lambda device: device.uart.receive_bytes(b"\x5a")

    def dma(device):
        device.dma.configure(source=0x0300, destination=0x0700, size_words=3)
        device.dma.trigger()
    return dma


def prepared(scenario):
    """A pump bench about to enter ER, with the scenario's events queued."""
    bench = PoxTestbench(
        syringe_pump_firmware(PumpParameters(dosage_cycles=scenario["dosage"])),
        TestbenchConfig(enable_uart_rx_interrupts=scenario["uart_irq"]),
    )
    device = bench.device
    device.memory.load_bytes(PeripheralRegisters.P5IE, b"\x01")
    interval = scenario["watchdog"]
    if interval is None:
        device.memory.load_word(PeripheralRegisters.WDTCTL,
                                WatchdogBits.PASSWORD | WatchdogBits.HOLD)
    else:
        device.watchdog.interval = interval
        device.watchdog.kick()
    # Enter ER the way PoxProtocol.call_executable does.
    cpu = device.cpu
    cpu.sp = (cpu.sp - 2) & 0xFFFF
    device.memory.load_word(cpu.sp, cpu.pc)
    cpu.pc = bench.pox_config.executable.er_min
    for kind, step in scenario["events"]:
        device.schedule(device.step_number + step, _event_action(kind), kind)
    return bench


def stop_condition(scenario):
    """Stop at a chosen step number, or when the monitor sees ER complete."""
    stop_at = scenario["stop_at"]

    def stop(_bundle, device):
        if stop_at is not None and device.step_number >= stop_at:
            return True
        return device.monitors[0].execution_completed
    return stop


def snapshot(bench):
    device = bench.device
    guard = bench.monitor.ivt_guard
    return {
        "trace": list(device.trace),
        "trace_cycles": device.trace.total_cycles,
        "registers": list(device.cpu.registers),
        "memory": device.memory.dump(0, 0x10000),
        "cycle_count": device.cpu.cycle_count,
        "step_count": device.cpu.step_count,
        "step_number": device.step_number,
        "tar": device.timer.counter,
        "watchdog_remaining": device.watchdog._remaining,
        "watchdog_resets": device.watchdog_resets,
        "serviced": dict(device.interrupt_controller.serviced),
        "violations": list(bench.monitor.violations),
        "exec": bench.monitor.exec_flag,
        "guard": (guard.state, list(guard.events)),
        "crashed": device.crashed,
        "uart_tx": device.uart.transmitted_bytes(),
        "pump_output": list(device.gpio5.output_history),
    }


def oracle_run(scenario):
    """``Device.run`` semantics from single ``Device.step`` calls."""
    bench = prepared(scenario)
    device = bench.device
    stop = stop_condition(scenario)
    executed = 0
    for _ in range(scenario["steps"]):
        bundle = device.step()
        executed += 1
        if device.crashed or stop(bundle, device):
            break
    return bench, executed


@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_run_matches_single_steps(scenario):
    reference, expected_steps = oracle_run(scenario)
    candidate = prepared(scenario)
    executed = candidate.device.run(max_steps=scenario["steps"],
                                    stop_condition=stop_condition(scenario))
    assert executed == expected_steps
    assert snapshot(candidate) == snapshot(reference)


@settings(max_examples=60, deadline=None)
@given(scenarios)
def test_run_batch_matches_single_steps(scenario):
    reference = prepared(scenario)
    for _ in range(scenario["steps"]):
        reference.device.step()
    candidate = prepared(scenario)
    candidate.device.run_batch(scenario["steps"])
    assert snapshot(candidate) == snapshot(reference)


def test_benign_dose_runs_mostly_in_stretches():
    """The suite is not vacuous: a plain dose sleeps inside stretches."""
    def finished(_bundle, device):
        return bench.monitor.execution_completed

    scenario = {"dosage": 200, "events": [], "watchdog": None,
                "uart_irq": False, "steps": 600, "stop_at": None}
    bench = prepared(scenario)
    device = bench.device
    executed = device.run(max_steps=600, stop_condition=finished)
    assert bench.monitor.execution_completed and executed < 600
    assert device.sleep_stretch_steps > 0.8 * executed

    reference = prepared(scenario)
    for _ in range(executed):
        reference.device.step()
    assert snapshot(bench) == snapshot(reference)


def test_pox_exchanges_match_single_steps():
    """Whole exchanges through ``call_executable``'s stop condition."""
    def exchanges(single_step):
        bench = PoxTestbench(syringe_pump_firmware(
            PumpParameters(dosage_cycles=150)))
        device = bench.device
        if single_step:
            def run(max_steps=10000, stop_condition=None):
                executed = 0
                for _ in range(max_steps):
                    bundle = device.step()
                    executed += 1
                    if device.crashed or stop_condition(bundle, device):
                        break
                return executed
            device.run = run
        counts = []
        for step in (None, 40, 90, None):
            if step is not None:
                device.schedule_button_press(device.step_number + step)
            bench.protocol.install_challenge(bytes(32))
            counts.append(bench.protocol.call_executable())
        return bench, counts

    reference, expected = exchanges(single_step=True)
    candidate, counts = exchanges(single_step=False)
    assert counts == expected
    assert snapshot(candidate) == snapshot(reference)
    assert candidate.device.sleep_stretch_steps > 0


def test_interrupt_pending_while_asleep_with_gie_clear():
    """A request that waits out a GIE-clear sleep is served once GIE is set.

    The sleep steps around a pending request never become a stretch, so
    the device keeps arbitrating and the request is still offered to
    the CPU when host code sets GIE between two runs.
    """
    def run(single_step):
        device = Device(DeviceConfig())
        image = Assembler().assemble(
            ".section .text\n"
            "    MOV #0x5A80, &0x%04X\n" % PeripheralRegisters.WDTCTL
            + "    BIS #0x0010, SR\n"     # CPUOFF with GIE clear
            "    JMP done\n"
            "isr:\n"
            "    BIC #0x0010, 0(SP)\n"
            "    RETI\n"
            "done:\n"
            "    JMP done\n",
            section_addresses={".text": 0xE000})
        image.write_to(device.memory)
        device.ivt.set_reset_vector(0xE000)
        device.ivt.set_vector(InterruptVectors.PORT5, image.symbol("isr"))
        device.reset()
        device.interrupt_controller.inject(InterruptVectors.PORT5)
        for steps, set_gie in ((50, True), (10, False)):
            if single_step:
                for _ in range(steps):
                    device.step()
            else:
                device.run(max_steps=steps)
            if set_gie:
                device.cpu.set_flag(StatusFlag.GIE, True)
        return device

    reference, candidate = run(single_step=True), run(single_step=False)
    assert reference.interrupt_controller.serviced == {InterruptVectors.PORT5: 1}
    assert candidate.interrupt_controller.serviced == {InterruptVectors.PORT5: 1}
    assert list(candidate.trace) == list(reference.trace)
    assert candidate.cpu.registers == reference.cpu.registers
