"""Exception taxonomy shared by the whole package, the default limit of the
guard that raises SearchSpaceTooLarge, and the base of its result records."""

DEFAULT_MAX_CANDIDATES = 10**8


class Record:
    """A record declared like a dataclass, by annotated fields with optional
    defaults, but built without generating code at import: construction by
    position or keyword, field-wise equality and repr; unhashable, as
    assignment may change it."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {k: cls.__dict__[k] for k in cls._fields if k in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if not kwargs and len(args) == len(names):
            self.__dict__.update(zip(names, args))
            return
        # a field given by position and by keyword raises here
        self.__dict__.update(self._defaults, **dict(zip(names, args)), **kwargs)
        if len(args) > len(names) or self.__dict__.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self):
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record that refuses assignment and hashes by its fields."""

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(tuple([getattr(self, k) for k in self._fields]))


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
    """A resource guard tripped: a candidate count or a work bound past its
    limit, or a result too long to print; refusing to truncate."""


class NotPrimeField(AddhomError):
    """The prime-case verifier only accepts Z_p."""


class SpecFormatError(AddhomError):
    """Malformed text encoding or map-spec file."""
