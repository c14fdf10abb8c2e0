"""CPU core: fetch/decode/execute engine and the per-cycle signal bundle.

The hardware monitors of VRASED, APEX and ASAP are combinational/FSM
logic wired to a handful of CPU and bus signals (program counter,
interrupt request, data-write enable and address, DMA enable and
address).  :class:`repro.cpu.signals.SignalBundle` is the Python
rendering of that wire bundle: the CPU emits one bundle per executed
step, and every monitor consumes the same bundles.
"""

from repro.cpu.signals import SignalBundle, MemoryWrite, MemoryRead
from repro.cpu.core import CPU, CPUError, StepResult
from repro.cpu.decode_cache import DecodeCache
from repro.cpu.engine import InterpreterEngine, engine_name

__all__ = [
    "SignalBundle",
    "MemoryWrite",
    "MemoryRead",
    "CPU",
    "CPUError",
    "StepResult",
    "DecodeCache",
    "InterpreterEngine",
    "engine_name",
]
