"""Exception types shared across the engine."""


class FastSalError(Exception):
    """Base class for all engine errors."""


class ShapeError(FastSalError):
    """Tensor dimensions incompatible with an operation; names the offending axis."""


class ConfigError(FastSalError):
    """Invalid layer or run configuration (conv form, stride, pool size, flag, ...)."""


class ContractError(FastSalError):
    """Caller violated an operation precondition (non-scalar loss, empty fixations, ...)."""


class NumericDomainError(FastSalError):
    """Numeric input outside the valid domain (non-finite values, var+eps <= 0)."""


class ParseError(FastSalError):
    """Malformed file content. Carries the byte offset or line where parsing failed."""

    def __init__(self, message, offset=None, line=None):
        loc = ""
        if offset is not None:
            loc = f" (byte offset {offset})"
        elif line is not None:
            loc = f" (line {line})"
        super().__init__(message + loc)
        self.offset = offset
        self.line = line


class WeightStoreError(FastSalError):
    """Missing or shape-mismatched weight slot."""
