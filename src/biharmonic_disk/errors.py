"""Exception taxonomy shared across the package.

Everything derives from ValueError so callers that only want a coarse
"bad input" signal can catch that.
"""


class DomainError(ValueError):
    """Argument lies outside the admissible region (usually the open unit disk)."""


class SingularityError(ValueError):
    """Kernel requested exactly on its singular diagonal."""


class DegenerateDataError(ValueError):
    """Input data too small or trivial for the requested operation."""


class ResolutionPolicyError(ValueError):
    """Requested point or grid radius lies nearer the circle than the solver admits."""


class FingerprintMismatchError(ValueError):
    """A solution field was paired with a case it was not computed from."""


class CaseFormatError(ValueError):
    """A case file failed structural validation."""
