"""Exception types shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator-defined faults."""


class UnmappedAddress(SimError):
    pass


class MisalignedAccess(SimError):
    pass


class UnimplementedCsr(SimError):
    pass


class IllegalInstruction(SimError):
    pass


class EvenModulus(SimError):
    pass


class OperandTooLarge(SimError):
    pass


class LengthExceedsHardwareMax(SimError):
    pass


class SequenceBroken(SimError):
    """A partial-mode MMUL sequence was re-entered from a trap handler."""


class RegisterOutOfRange(SimError):
    pass


class WordsOutOfRange(SimError):
    pass


class NotMmul(SimError):
    pass


class MissingReferenceRun(SimError):
    pass


class NoInterruptsRecorded(SimError):
    pass


class GuestNotFound(SimError):
    pass


class UnknownInput(SimError):
    """A guest was given an input it does not read."""


class InvalidConfig(SimError):
    pass
