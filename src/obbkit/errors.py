"""Exception types shared across the toolkit."""


class ObbkitError(Exception):
    """Base class for all toolkit errors."""


class DegenerateQuad(ObbkitError):
    """Quadrilateral has (near-)zero area or no usable convex ordering."""


class NonFiniteScore(ObbkitError):
    """A probability sits on {0, 1} where a log would be non-finite."""


class ShapeMismatch(ObbkitError):
    """Containers that must be aligned have incompatible shapes."""


class UnknownCategory(ObbkitError):
    """A category name is not present in the class table."""


class UnknownClass(ObbkitError):
    """A numeric class id is not present in the class table."""


class Diverged(ObbkitError):
    """An iterative fit produced a non-finite loss."""


class ParseError(ObbkitError):
    """A text input file could not be parsed.

    Carries the offending file, 1-based line number and a reason string.
    """

    def __init__(self, path, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
