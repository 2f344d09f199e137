"""Exception types shared across the package."""


class InjhomError(Exception):
    """Base class for all package errors."""


# graph construction / parsing
class MalformedLine(InjhomError):
    pass


class VertexOutOfRange(InjhomError):
    pass


class DigonViolation(InjhomError):
    pass


class DuplicateArc(InjhomError):
    pass


class SelfMergeCycle(InjhomError):
    pass


# catalog
class BoundExceeded(InjhomError):
    pass


# solver
class PartialColouring(InjhomError):
    pass


class InvalidFixedAssignment(InjhomError):
    pass


class InvalidWitness(InjhomError):
    """The search or a lift gave a colouring that verify_colouring rejects: a package fault."""


# poly decider
class TargetTooLarge(InjhomError):
    pass


# reductions
class DegreeTooHigh(InjhomError):
    pass


class DegreeTooLow(InjhomError):
    pass


class PortColourMismatch(InjhomError):
    pass


class NormalizationFailed(InjhomError):
    pass


class TemplateNotFound(InjhomError):
    pass


class BudgetExhausted(InjhomError):
    """The 3-edge-colouring oracle used its node budget without an answer."""


# gadget lab
class AssetMissing(InjhomError):
    pass


class ContractMalformed(InjhomError):
    pass


class UnknownPort(InjhomError):
    pass
