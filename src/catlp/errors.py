"""Exception types shared across the package."""


class CatlpError(Exception):
    """Base class for library-specific errors."""


#: Desk-scale size limits, by guard name; each operation that would enumerate
#: exponentially checks its input against one of these before it starts.
GUARD_LIMITS = {
    "catom_domain": 24,  # domain atoms of a c-atom, whose truth table has 2**n bits
    "complement_domain": 20,  # domain atoms of a complemented c-atom
    "abstract_domain": 20,  # domain atoms of an abstract form built or expanded
    "weight_entries": 16,  # entries of a weight constraint or aggregate
    "minimal_models": 22,  # atoms of a minimal-model scan or of a disjunctive candidate
    "stable_language": 20,  # vocabulary atoms of candidate-model enumeration
}


class GuardError(CatlpError):
    """A desk-scale resource guard was exceeded."""

    def __init__(self, guard: str, limit: int, actual: int):
        super().__init__(f"{guard} guard: {actual} exceeds the limit of {limit}")
        self.guard = guard
        self.limit = limit
        self.actual = actual


def check_guard(guard: str, actual: int) -> None:
    """Raise ``GuardError`` when ``actual`` exceeds the limit of ``guard``."""
    limit = GUARD_LIMITS[guard]
    if actual > limit:
        raise GuardError(guard, limit, actual)


class ProgramClassError(CatlpError):
    """The input program is outside the class an operation requires."""


class NotAModelError(CatlpError):
    """The interpretation handed to the fixpoint check is not a model."""


class InvariantError(CatlpError):
    """An internal bound of an algorithm was exceeded; this is a library bug."""


class NameCollisionError(InvariantError):
    """Two distinct constraint atoms were given the same introduced atom name."""


class ParseError(CatlpError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
