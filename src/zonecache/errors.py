"""Exception taxonomy shared by all simulator layers.

One class per cause that a caller, the CLI or the reference model tells
apart: the CLI exits 3 on `InvalidConfig` and 1 on every other
`SimError`, `ExperimentError` carries the op index, `op-calc` reports
`InfeasibleRates`, and the reference model names the four capacity
faults (`NoWritableZone`, `DeviceBusy`, `GcStalled`, `NothingToEvict`).
Every other broken contract between layers, a call no correct caller
makes, is a `ContractError`; its message names the case.
"""


class SimError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(SimError):
    """An invalid configuration or input value, in any layer."""


class ContractError(SimError):
    """A call that breaks a layer's contract: a write past a zone's end, a
    read of unwritten or freed bytes, a misaligned or mis-sized region, an
    item larger than a region, a drop filter's unknown answer."""


class DeviceBusy(SimError):
    """No free erase blocks remain even after internal GC."""


class NoWritableZone(SimError):
    """Empty zones exhausted and every write zone is full."""


class GcStalled(SimError):
    """GC is needed but has no victim, or makes no net progress."""


class NothingToEvict(SimError):
    """The cache must evict, but holds no flushed region."""


class InfeasibleRates(SimError):
    """Requested cleaning throughput can never keep up with the write rate."""


class ExperimentError(SimError):
    def __init__(self, message, op_index=None):
        super().__init__(message)
        self.op_index = op_index
