"""Exception taxonomy shared across the package.

Everything derives from ValueError so callers that only want a coarse
"bad input" signal can catch that.
"""


class DomainError(ValueError):
    """Argument lies outside the admissible region (for the solver, the closed unit disk)."""


class SingularityError(ValueError):
    """Kernel requested exactly on its singular diagonal."""


class DegenerateDataError(ValueError):
    """Input data too small or trivial for the requested operation."""


class CaseFormatError(ValueError):
    """A case file failed structural validation."""
