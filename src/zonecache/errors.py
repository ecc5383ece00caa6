"""Exception taxonomy shared by all simulator layers."""


class SimError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfig(SimError):
    """An invalid configuration or input value, in any layer."""


# --- zoned device ---

class ZoneFull(SimError):
    pass


class MaxOpenZonesExceeded(SimError):
    pass


class ZoneNotWritable(SimError):
    pass


class ReadBeyondWritePointer(SimError):
    pass


class CrossZoneRead(SimError):
    pass


# --- page-mapped FTL ---

class OutOfRange(SimError):
    pass


class Misaligned(SimError):
    pass


class Unmapped(SimError):
    pass


class DeviceBusy(SimError):
    """No free erase blocks remain even after internal GC."""


# --- zone-backed region store ---

class NoWritableZone(SimError):
    """Empty zones exhausted and every write zone is full."""


class SizeMismatch(SimError):
    pass


class UnmappedRegion(SimError):
    pass


class GcStalled(SimError):
    pass


class InfeasibleRates(SimError):
    """Requested cleaning throughput can never keep up with the write rate."""


# --- region cache ---

class ItemTooLarge(SimError):
    pass


class NothingToEvict(SimError):
    pass


# --- harness ---

class ExperimentError(SimError):
    def __init__(self, message, op_index=None):
        super().__init__(message)
        self.op_index = op_index
