"""Exception types shared across the package."""


class CatDistortError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(CatDistortError, ValueError):
    """A construction parameter violates its stated constraint."""


class InsufficientLengthError(InvalidParameterError):
    """A word is too short to supply the requested subwords."""


class PairRepetitionError(InvalidParameterError):
    """An ordered two-letter subword occurs more than once in a family
    that must be repetition-free."""


class InvalidInputError(CatDistortError, ValueError):
    """An input word or graph fails a precondition."""


class NotInImageError(CatDistortError):
    """The word is not in the image subgroup of the endomorphism."""


class ConstructionError(CatDistortError):
    """A presentation was built but failed one of its own certificates.
    Should not happen for valid parameters; treated as a fatal diagnostic."""


class CapExceededError(CatDistortError):
    """A size budget was exceeded before anything was allocated."""


def check_budget(n: int, cap: int, what: str, noun: str = "letters") -> None:
    """Raise :class:`CapExceededError` when n > cap, before the caller
    allocates n.  A count of 2^62 or more is reported as such, never
    printed in full."""
    if n > cap:
        raise CapExceededError(
            f"{what} {n if n < 1 << 62 else 'over 2^62'} {noun}, "
            f"above the cap {cap}")


class SpecParseError(CatDistortError, ValueError):
    """A serialized spec document is malformed.  Carries a location hint."""

    def __init__(self, message, location=""):
        super().__init__(f"{message}" + (f" (at {location})" if location else ""))
        self.location = location
