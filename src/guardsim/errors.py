"""Exception types shared across the simulation modules."""


class ParameterDomainError(ValueError):
    """A numeric argument is outside its documented domain."""


class RegimeError(ValueError):
    """Operation called with a demand speed outside the regime it models."""


class ContractViolationError(ValueError):
    """Caller handed in state that violates an operation's preconditions."""


class SizeLimitError(ValueError):
    """Instance exceeds the hard cap of an exact solver."""
