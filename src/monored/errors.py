"""Exception hierarchy, and the package's one integer test.

ValidationError means the input data is malformed; ContractError means a
well-formed request violated an operation's contract (exit codes 1 and 2 in
the CLI, respectively).  `is_int` is the rule every module applies to an
integer input: an `int` that is not a `bool`, so nothing is coerced.
"""


def is_int(value) -> bool:
    """Whether `value` is an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


class MonoredError(Exception):
    pass


class ValidationError(MonoredError):
    pass


class ContractError(MonoredError):
    pass


class InvalidStratumError(ContractError):
    pass


class NonPermissibleError(ContractError):
    pass


class NotMaximalOrderError(ContractError):
    pass


class NotMonomialError(ContractError):
    pass


class MarkOverflowError(ContractError):
    pass


class InvalidElementError(ContractError):
    pass


class InvalidSampleError(ContractError):
    pass


class InternalLogicError(ContractError):
    """An invariant the reduction theory guarantees was found violated."""
