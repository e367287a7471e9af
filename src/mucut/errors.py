"""Domain errors raised by the exact calculus.

Every error that reflects a violated mathematical precondition (as opposed to a
malformed input) derives from :class:`DomainError`, so callers (notably the CLI)
can map the whole family to one exit path.
"""

#: schema tag of every report and error object the package emits
SCHEMA = "mucut/1"


class DomainError(Exception):
    """A structurally valid input that violates a mathematical precondition."""

    #: stable machine-readable identifier, mirrored into CLI error objects
    code = "domain-error"

    def payload(self) -> dict:
        return {"error": self.code, "message": str(self)}


class ZeroVector(DomainError):
    code = "zero-vector"


class NonzeroRemainder(DomainError):
    code = "nonzero-remainder"

    def __init__(self, message: str, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class NotInCommutant(DomainError):
    code = "not-in-commutant"


class NotSelfAdjoint(DomainError):
    code = "not-self-adjoint"


class ZeroOperator(DomainError):
    code = "zero-operator"


class NotHomogeneous(DomainError):
    code = "not-homogeneous"


class NotAdmissible(DomainError):
    code = "not-admissible"


class WrongDegree(DomainError):
    code = "wrong-degree"


class NotElliptic(DomainError):
    code = "not-elliptic"


class WindowTooLarge(DomainError):
    code = "window-too-large"


class FloatOverflow(DomainError):
    code = "float-overflow"


class FitRangeTooSmall(DomainError):
    code = "fit-range-too-small"


class OddJet(DomainError):
    code = "odd-jet"

    def __init__(self, message: str, monomials=()):
        super().__init__(message)
        self.monomials = tuple(monomials)


class NotCoprime(DomainError):
    code = "not-coprime"


class EmptyCut(DomainError):
    code = "empty-cut"


class DegenerateCut(DomainError):
    code = "degenerate-cut"
