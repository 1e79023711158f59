"""Exception taxonomy shared by the whole package, and the default limit of
the guard that raises SearchSpaceTooLarge."""

DEFAULT_MAX_CANDIDATES = 10**8


class AddhomError(Exception):
    """Base class for all errors raised by this package."""


# field construction / arithmetic

class NonPrimeModulus(AddhomError):
    """A prime field was requested with a composite modulus."""


class ModulusTooLarge(AddhomError):
    """A modulus past the range where primality is decided exactly."""


class NonMonicModulus(AddhomError):
    """An extension modulus whose leading coefficient is not 1."""


class ReducibleModulus(AddhomError):
    """An extension modulus that factors over its base field."""


class UnsupportedTower(AddhomError):
    """Extension of an extension; bases must be Q or Z_p."""


class UnsupportedDegree(AddhomError):
    """Irreducibility over Q is only decided for degree <= 3."""


class CharacteristicMismatch(AddhomError):
    """A prime-subfield scalar offered to a field of different characteristic."""


class DivisionByZero(AddhomError, ZeroDivisionError):
    """Division or inversion with a zero divisor."""


class InfiniteFieldError(AddhomError):
    """A finite-only operation (enumeration, rank) on Q or a Q-extension."""


# vector spaces

class DimensionMismatch(AddhomError):
    """Operands of different lengths."""


class FieldMismatch(AddhomError):
    """Operand does not belong to the space's field."""


class ZeroVector(AddhomError):
    """The zero vector has no scalar orbit."""


# maps

class DomainMismatch(AddhomError):
    """Vector offered to a map whose domain does not contain it."""


class NotAnExtension(AddhomError):
    """The additive-but-not-homogeneous construction needs F strictly larger
    than its prime subfield."""


class CharacteristicTwo(AddhomError):
    """The ratio map's refutation collapses in characteristic 2."""


class ZeroDenominator(AddhomError):
    """Proof trace requested with n = 0."""


class InfiniteDomainExhaustive(AddhomError):
    """Exhaustive checking requested over an infinite field."""


# search

class SearchSpaceTooLarge(AddhomError):
    """Candidate count exceeds the configured guard; refusing to truncate."""


class NotPrimeField(AddhomError):
    """The prime-case verifier only accepts Z_p."""


class SpecFormatError(AddhomError):
    """Malformed text encoding or map-spec file."""
