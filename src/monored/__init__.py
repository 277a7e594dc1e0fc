"""Symbolic engine for marked monomial ideals on chart complexes.

Exact exponent arithmetic drives blow-ups, order reduction,
principalization and weak embedded resolution; an exact integer-polynomial
kernel independently verifies the substitution rule, fiber behaviour and
the Frobenius-lift structure of the rings involved.

The public names are read from their modules on first use (PEP 562), so
`import monored` alone loads none of the engine.
"""

import importlib

# each public name -> the module that defines it
_HOMES = {
    "Chart": "core",
    "Configuration": "core",
    "MarkedIdeal": "core",
    "Monomial": "core",
    "Stratum": "core",
    "UNIT": "core",
    "is_permissible": "core",
    "max_order": "core",
    "order_at": "core",
    "sum_marked": "core",
    "support": "core",
    "ContractError": "errors",
    "InternalLogicError": "errors",
    "InvalidElementError": "errors",
    "InvalidSampleError": "errors",
    "InvalidStratumError": "errors",
    "MarkOverflowError": "errors",
    "MonoredError": "errors",
    "NonPermissibleError": "errors",
    "NotMaximalOrderError": "errors",
    "NotMonomialError": "errors",
    "ValidationError": "errors",
    "balanced_companion": "reduction",
    "companion_ideal": "reduction",
    "contact_split": "reduction",
    "monomial_derivative": "reduction",
    "monomial_split": "reduction",
    "reduce": "reduction",
    "reduce_maximal_order": "reduction",
    "reduce_monomial": "reduction",
    "ResolutionTrace": "resolution",
    "is_locally_principal": "resolution",
    "principalize": "resolution",
    "weak_resolve": "resolution",
    "BlowUpRecord": "transform",
    "blow_up_global": "transform",
}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    # nothing is bound here, so a name is always what its module binds now
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _HOMES.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_HOMES.values()})
