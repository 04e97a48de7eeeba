"""Exception hierarchy shared by all deacp modules."""


class DeacpError(Exception):
    """Base class for all errors raised by this package."""


class SpecSyntaxError(DeacpError):
    """Raised on malformed spec-file text; carries a source position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class DeclarationError(DeacpError):
    """Use of an undeclared name, or an invalid declaration."""


class ArityError(DeacpError):
    """Action or operator used with a wrong number of arguments."""


class MalformedConditionError(DeacpError):
    """Free data variable outside any quantifier."""


class EnumerationLimitError(DeacpError):
    """A finite enumeration would exceed the configured bound."""

    def __init__(self, count: int, bound: int, what: str = "evaluation maps"):
        super().__init__(f"enumeration of {count} {what} exceeds the bound of {bound}")
        self.count = count
        self.bound = bound


class ExplorationLimitError(DeacpError):
    """State-space exploration hit the state bound; carries partial statistics."""

    def __init__(self, bound: int, states: int, transitions: int):
        super().__init__(
            f"exploration exceeded the bound of {bound} states "
            f"(partial: {states} states, {transitions} transitions)"
        )
        self.bound = bound
        self.states = states
        self.transitions = transitions


class GuardednessError(DeacpError):
    """A recursive specification is not guarded linear where one is required."""


class ShapeError(DeacpError):
    """A term does not have the syntactic shape an operation requires."""


class UnsupportedFragmentError(DeacpError):
    """Input falls outside the fragments the equational prover covers."""
