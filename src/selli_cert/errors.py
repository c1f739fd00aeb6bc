"""Exception hierarchy shared by every engine module.

The CLI maps these onto process exit codes: parameter problems (including
budget refusals) exit 1, inconclusive or discrepancy outcomes exit 2, and
failed certificate re-verification exits 3.
"""

from __future__ import annotations


class SelliCertError(Exception):
    """Base class for all package-specific failures."""


class ParameterError(SelliCertError):
    """Invalid or unsupported input parameters."""


class HypothesisError(ParameterError):
    """One or more structural hypotheses on the inputs fail.

    Collects every violation instead of stopping at the first, so a caller
    sees the complete list in one pass.  Each violation is a (code, message)
    pair; codes are stable strings suitable for certificates and tests.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        lines = "; ".join(f"{code}: {msg}" for code, msg in self.violations)
        super().__init__(f"hypothesis violations: {lines}")


class BudgetExceededError(ParameterError):
    """The requested computation exceeds the configured enumeration budget."""


class NonIntegerCoefficientError(SelliCertError):
    """An exact integer recursion produced a non-integer value.

    Signals inconsistent inputs (wrong genus or wrong infinity count), never
    a rounding situation: the engine refuses to round.
    """


class WeilViolationError(SelliCertError):
    """A reconstructed L-polynomial violates the Weil bounds.

    Carries the offending value and the exact integer bound that failed.
    """

    def __init__(self, message: str, value: int | None = None):
        super().__init__(message)
        self.value = value
