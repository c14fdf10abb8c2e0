"""Unit tests for the peripherals and the interrupt controller."""

import pytest

from repro.memory.memory import Memory
from repro.peripherals.dma import DmaController
from repro.peripherals.gpio import GpioPort
from repro.peripherals.interrupt_controller import InterruptController
from repro.peripherals.registers import (
    DmaBits,
    InterruptVectors,
    PeripheralRegisters,
    TimerBits,
    WatchdogBits,
)
from repro.peripherals.timer import TimerA
from repro.peripherals.uart import Uart
from repro.peripherals.watchdog import Watchdog


@pytest.fixture
def port1(memory):
    port = GpioPort(
        memory, "port1",
        PeripheralRegisters.P1IN, PeripheralRegisters.P1OUT,
        PeripheralRegisters.P1DIR, PeripheralRegisters.P1IFG,
        PeripheralRegisters.P1IE, ivt_index=InterruptVectors.PORT1,
    )
    port.reset()
    return port


class TestGpioPort:
    def test_assert_input_sets_in_and_ifg(self, memory, port1):
        port1.assert_input(0x01)
        assert port1.input_value() & 0x01
        assert memory.peek_byte(PeripheralRegisters.P1IFG) & 0x01

    def test_interrupt_requires_enable_bit(self, memory, port1):
        port1.press_button(0x01)
        assert not port1.interrupt_pending()
        memory.load_bytes(PeripheralRegisters.P1IE, bytes([0x01]))
        assert port1.interrupt_pending()

    def test_acknowledge_clears_flag(self, memory, port1):
        memory.load_bytes(PeripheralRegisters.P1IE, bytes([0x01]))
        port1.press_button(0x01)
        port1.acknowledge_interrupt()
        assert not port1.interrupt_pending()

    def test_deassert_input(self, port1):
        port1.assert_input(0x01)
        port1.assert_input(0x01, level=False)
        assert not port1.input_value() & 0x01

    def test_output_history_records_changes(self, memory, port1):
        memory.load_bytes(PeripheralRegisters.P1OUT, bytes([0x10]))
        port1.tick(5)
        memory.load_bytes(PeripheralRegisters.P1OUT, bytes([0x00]))
        port1.tick(5)
        values = [value for _, value in port1.output_history]
        assert values == [0x10, 0x00]


class TestTimerA:
    @pytest.fixture
    def timer(self, memory):
        timer = TimerA(memory)
        timer.reset()
        return timer

    def arm(self, memory, compare=100, interrupt=True):
        memory.load_word(PeripheralRegisters.TACCR0, compare)
        memory.load_word(
            PeripheralRegisters.TACCTL0, TimerBits.CCIE if interrupt else 0
        )
        memory.load_word(PeripheralRegisters.TACTL, TimerBits.ENABLE)

    def test_disabled_timer_does_not_count(self, memory, timer):
        timer.tick(50)
        assert timer.counter == 0

    def test_counts_when_enabled(self, memory, timer):
        self.arm(memory, compare=1000)
        timer.tick(50)
        assert timer.counter == 50

    def test_compare_raises_interrupt(self, memory, timer):
        self.arm(memory, compare=30)
        timer.tick(40)
        assert timer.interrupt_pending()

    def test_compare_without_ccie_does_not_interrupt(self, memory, timer):
        self.arm(memory, compare=30, interrupt=False)
        timer.tick(40)
        assert not timer.interrupt_pending()

    def test_acknowledge_clears_pending(self, memory, timer):
        self.arm(memory, compare=30)
        timer.tick(40)
        timer.acknowledge_interrupt()
        assert not timer.interrupt_pending()

    def test_clear_bit_resets_counter(self, memory, timer):
        self.arm(memory, compare=1000)
        timer.tick(100)
        memory.load_word(
            PeripheralRegisters.TACTL, TimerBits.ENABLE | TimerBits.CLEAR
        )
        timer.tick(1)
        assert timer.counter <= 1

    def test_running_tick_leaves_registers_clean(self, memory, timer):
        # The counter store is the timer's own: it must not make the
        # next tick re-read TACTL and recompute the pending state.
        self.arm(memory, compare=1000)
        for _ in range(3):
            timer.tick(1)
            assert not timer._regs_dirty
        assert timer.counter == 3

    def test_compare_tick_leaves_registers_clean(self, memory, timer):
        self.arm(memory, compare=5)
        timer.tick(5)
        assert not timer._regs_dirty
        assert memory.peek_word(PeripheralRegisters.TACCTL0) & TimerBits.CCIFG

    def test_pending_sees_own_ccifg(self, memory, timer):
        self.arm(memory, compare=30)
        timer.tick(40)
        assert not timer._regs_dirty
        assert timer._regs_pending
        assert timer.interrupt_pending()

    def test_own_ccifg_without_ccie_is_not_pending(self, memory, timer):
        self.arm(memory, compare=30, interrupt=False)
        timer.tick(40)
        assert not timer._regs_pending
        assert not timer.interrupt_pending()
        # Enabling CCIE afterwards exposes the latched flag.
        memory.write_word(PeripheralRegisters.TACCTL0,
                          TimerBits.CCIE | TimerBits.CCIFG)
        assert timer.interrupt_pending()

    def test_cpu_write_to_tar_mid_count_is_honoured(self, memory, timer):
        self.arm(memory, compare=1000)
        for _ in range(10):
            timer.tick(1)
        memory.write_word(PeripheralRegisters.TAR, 500)
        assert timer.idle_horizon() == 0
        timer.tick(1)
        assert timer.counter == 501
        assert timer.idle_horizon() == 1000 - 501 - 1

    def test_cpu_write_to_taccr0_mid_count_is_honoured(self, memory, timer):
        self.arm(memory, compare=1000)
        for _ in range(10):
            timer.tick(1)
        memory.write_word(PeripheralRegisters.TACCR0, 11)
        assert timer.idle_horizon() == 0
        timer.tick(1)
        assert timer.interrupt_pending()
        assert timer.counter == 0

    def test_disabled_timer_is_idle_indefinitely(self, memory, timer):
        assert timer.idle_horizon() == 0  # reset dirtied the registers
        timer.tick(1)
        assert timer.idle_horizon() is None

    @pytest.mark.parametrize("compare, counter, interrupt", [
        (200, 0, True),
        (200, 150, True),
        (200, 198, False),
        (7, 3, True),
        (0, 0, True),
        (0, 0xFFF0, False),   # free-running: wraps at 16 bits
        (100, 99, True),      # compare due on the very next tick
    ])
    def test_advance_idle_equals_single_ticks(self, compare, counter, interrupt):
        def armed():
            memory = Memory()
            timer = TimerA(memory)
            timer.reset()
            self.arm(memory, compare=compare, interrupt=interrupt)
            timer.tick(0)
            memory.load_word(PeripheralRegisters.TAR, counter)
            timer.tick(0)
            return memory, timer

        memory, timer = armed()
        horizon = timer.idle_horizon()
        assert horizon == (0x10000 if not compare
                           else max(compare - counter - 1, 0))
        # Free-running: enough ticks to cross the 16-bit wrap.
        cycles = min(horizon, 0x40)
        timer.advance_idle(cycles)

        ref_memory, reference = armed()
        for _ in range(cycles):
            reference.tick(1)

        assert memory.dump(0x0160, 0x20) == ref_memory.dump(0x0160, 0x20)
        assert timer.interrupt_pending() == reference.interrupt_pending()
        assert not timer.interrupt_pending()
        assert not timer._regs_dirty and not reference._regs_dirty
        if compare and cycles == horizon:
            # The horizon is tight: the next one-cycle tick fires.
            assert timer.idle_horizon() == 0
            timer.tick(1)
            assert memory.peek_word(PeripheralRegisters.TACCTL0) & TimerBits.CCIFG


class TestUart:
    @pytest.fixture
    def uart(self, memory):
        uart = Uart(memory)
        uart.reset()
        return uart

    def test_receive_latches_into_buffer(self, memory, uart):
        uart.receive_byte(0x42)
        uart.tick(1)
        assert memory.peek_byte(PeripheralRegisters.URXBUF) == 0x42
        assert memory.peek_byte(PeripheralRegisters.URXIFG) == 0x01

    def test_rx_interrupt_gated_by_enable(self, memory, uart):
        uart.receive_byte(0x42)
        uart.tick(1)
        assert not uart.interrupt_pending()
        memory.load_bytes(PeripheralRegisters.URCTL, bytes([0x01]))
        assert uart.interrupt_pending()

    def test_second_byte_waits_for_flag_clear(self, memory, uart):
        uart.receive_bytes(b"\x01\x02")
        uart.tick(1)
        uart.tick(1)
        assert memory.peek_byte(PeripheralRegisters.URXBUF) == 0x01
        uart.acknowledge_interrupt()
        uart.tick(1)
        assert memory.peek_byte(PeripheralRegisters.URXBUF) == 0x02

    def test_transmit_log(self, memory, uart):
        memory.load_bytes(PeripheralRegisters.UTXBUF, bytes([0x55]))
        memory.load_bytes(PeripheralRegisters.UTXIFG, bytes([0x01]))
        uart.tick(1)
        assert uart.transmitted_bytes() == b"\x55"


class TestDmaController:
    @pytest.fixture
    def dma(self, memory):
        dma = DmaController(memory)
        dma.reset()
        return dma

    def test_transfer_copies_words(self, memory, dma):
        memory.load_word(0x0300, 0xAAAA)
        memory.load_word(0x0302, 0xBBBB)
        dma.configure(source=0x0300, destination=0x0500, size_words=2)
        dma.trigger()
        dma.tick(1)
        dma.tick(1)
        assert memory.peek_word(0x0500) == 0xAAAA
        assert memory.peek_word(0x0502) == 0xBBBB

    def test_one_word_per_tick(self, memory, dma):
        dma.configure(source=0x0300, destination=0x0500, size_words=3)
        dma.trigger()
        dma.tick(1)
        assert dma.active
        assert dma.words_remaining == 2

    def test_activity_reported_per_tick(self, memory, dma):
        dma.configure(source=0x0300, destination=0x0500, size_words=1)
        dma.trigger()
        dma.tick(1)
        reads, writes = dma.collect_activity()
        assert len(reads) == 1 and len(writes) == 1
        assert writes[0].address == 0x0500
        dma.tick(1)
        reads, writes = dma.collect_activity()
        assert reads == [] and writes == []

    def test_completion_raises_interrupt_flag(self, memory, dma):
        dma.configure(source=0x0300, destination=0x0500, size_words=1)
        dma.trigger()
        dma.tick(1)
        assert dma.interrupt_pending()
        assert memory.peek_word(PeripheralRegisters.DMA0CTL) & DmaBits.IFG
        dma.acknowledge_interrupt()
        assert not dma.interrupt_pending()

    def test_idle_without_request(self, memory, dma):
        dma.configure(source=0x0300, destination=0x0500, size_words=1)
        dma.tick(1)
        assert not dma.active
        assert memory.peek_word(0x0500) == 0


class TestWatchdog:
    def test_expires_when_not_held(self, memory):
        watchdog = Watchdog(memory, interval=100)
        watchdog.reset()
        watchdog.tick(101)
        assert watchdog.expired

    def test_held_watchdog_never_expires(self, memory):
        watchdog = Watchdog(memory, interval=100)
        watchdog.reset()
        memory.load_word(
            PeripheralRegisters.WDTCTL, WatchdogBits.PASSWORD | WatchdogBits.HOLD
        )
        watchdog.tick(1000)
        assert not watchdog.expired

    def test_kick_reloads_counter(self, memory):
        watchdog = Watchdog(memory, interval=100)
        watchdog.reset()
        watchdog.tick(90)
        watchdog.kick()
        watchdog.tick(90)
        assert not watchdog.expired

    def test_clear_bit_write_reloads_counter(self, memory):
        # The conventional firmware service write (`MOV #0x5A08, &WDTCTL`)
        # must reload the countdown; before the fix only a direct
        # ``kick()`` call (which no firmware path issued) did.
        watchdog = Watchdog(memory, interval=100)
        watchdog.reset()
        watchdog.tick(90)
        memory.load_word(
            PeripheralRegisters.WDTCTL,
            WatchdogBits.PASSWORD | WatchdogBits.CLEAR,
        )
        watchdog.tick(90)
        assert not watchdog.expired
        watchdog.tick(20)
        assert watchdog.expired

    def test_clear_bit_reads_back_as_zero(self, memory):
        watchdog = Watchdog(memory, interval=100)
        watchdog.reset()
        memory.load_word(
            PeripheralRegisters.WDTCTL,
            WatchdogBits.PASSWORD | WatchdogBits.CLEAR,
        )
        watchdog.tick(1)
        control = memory.peek_word(PeripheralRegisters.WDTCTL)
        assert not control & WatchdogBits.CLEAR  # WDTCNTCL is a command bit

    def test_hold_and_clear_together(self, memory):
        watchdog = Watchdog(memory, interval=100)
        watchdog.reset()
        watchdog.tick(90)
        memory.load_word(
            PeripheralRegisters.WDTCTL,
            WatchdogBits.PASSWORD | WatchdogBits.HOLD | WatchdogBits.CLEAR,
        )
        watchdog.tick(1000)
        assert not watchdog.expired  # held
        memory.load_word(PeripheralRegisters.WDTCTL, WatchdogBits.PASSWORD)
        watchdog.tick(99)
        assert not watchdog.expired  # the clear reloaded before the hold
        watchdog.tick(2)
        assert watchdog.expired


class TestWatchdogIdleHorizon:
    def running(self, memory, interval=100):
        watchdog = Watchdog(memory, interval=interval)
        watchdog.reset()
        watchdog.tick(0)  # fold in the reset's register store
        return watchdog

    def test_dirty_registers_must_tick(self, memory):
        watchdog = Watchdog(memory, interval=100)
        watchdog.reset()
        assert watchdog.idle_horizon() == 0

    def test_held_is_idle_indefinitely(self, memory):
        watchdog = self.running(memory)
        memory.load_word(
            PeripheralRegisters.WDTCTL, WatchdogBits.PASSWORD | WatchdogBits.HOLD
        )
        watchdog.tick(1)
        assert watchdog.idle_horizon() is None
        remaining = watchdog._remaining
        watchdog.advance_idle(500)
        assert watchdog._remaining == remaining
        assert not watchdog.expired

    @pytest.mark.parametrize("spent", [0, 37, 98])
    def test_advance_idle_equals_single_ticks(self, spent):
        memory, ref_memory = Memory(), Memory()
        watchdog = self.running(memory)
        reference = self.running(ref_memory)
        watchdog.tick(spent)
        reference.tick(spent)
        horizon = watchdog.idle_horizon()
        assert horizon == watchdog._remaining - 1
        watchdog.advance_idle(horizon)
        for _ in range(horizon):
            reference.tick(1)
        assert watchdog._remaining == reference._remaining == 1
        assert not watchdog.expired and not reference.expired
        assert watchdog.idle_horizon() == 0
        watchdog.tick(1)
        assert watchdog.expired

    def test_remaining_one_must_tick(self, memory):
        watchdog = self.running(memory)
        watchdog.tick(99)
        assert watchdog._remaining == 1
        assert watchdog.idle_horizon() == 0


class TestIdleHorizons:
    def test_gpio_without_cycle_source_must_tick(self, port1):
        port1.tick(1)
        assert port1.idle_horizon() == 0

    def test_gpio_with_cycle_source(self, memory, port1):
        port1.cycle_source = lambda: 0
        port1.tick(1)
        assert port1.idle_horizon() is None
        memory.load_bytes(PeripheralRegisters.P1OUT, b"\x01")
        assert port1.idle_horizon() == 0

    def test_uart_rx_queue_must_tick(self, memory):
        uart = Uart(memory)
        uart.reset()
        uart.tick(1)
        assert uart.idle_horizon() is None
        uart.receive_byte(0x41)
        assert uart.idle_horizon() == 0

    def test_dma_transfer_must_tick(self, memory):
        dma = DmaController(memory)
        dma.reset()
        dma.tick(1)
        assert dma.idle_horizon() is None
        dma.configure(source=0x0300, destination=0x0500, size_words=2)
        dma.trigger()
        assert dma.idle_horizon() == 0
        dma.tick(1)
        assert dma.idle_horizon() == 0  # transfer in flight


class TestInterruptController:
    def test_peripheral_request_visible(self, memory, port1):
        controller = InterruptController()
        controller.attach(port1)
        memory.load_bytes(PeripheralRegisters.P1IE, bytes([0x01]))
        assert controller.highest_pending() is None
        port1.press_button()
        assert controller.highest_pending() == InterruptVectors.PORT1

    def test_priority_order(self, memory, port1):
        controller = InterruptController()
        controller.attach(port1)
        memory.load_bytes(PeripheralRegisters.P1IE, bytes([0x01]))
        port1.press_button()
        controller.inject(InterruptVectors.TIMER_A0)
        assert controller.highest_pending() == InterruptVectors.TIMER_A0

    def test_injected_request_clears_after_service(self):
        controller = InterruptController()
        controller.inject(5)
        controller.acknowledge(5)
        assert controller.highest_pending() is None
        assert controller.serviced[5] == 1

    def test_sticky_injection_persists(self):
        controller = InterruptController()
        controller.inject(5, sticky=True)
        controller.acknowledge(5)
        assert controller.highest_pending() == 5
        controller.clear_injected(5)
        assert controller.highest_pending() is None

    def test_acknowledge_notifies_peripheral(self, memory, port1):
        controller = InterruptController()
        controller.attach(port1)
        memory.load_bytes(PeripheralRegisters.P1IE, bytes([0x01]))
        port1.press_button()
        controller.acknowledge(InterruptVectors.PORT1)
        assert not port1.interrupt_pending()
        assert controller.total_serviced() == 1
