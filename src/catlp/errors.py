"""Exception types shared across the package."""


class CatlpError(Exception):
    """Base class for library-specific errors."""


class GuardError(CatlpError):
    """A desk-scale resource guard was exceeded."""


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
