"""Exception types shared across the package.

Everything derives from CopaError (a ValueError) so callers can catch the
whole family, while validation sites raise the most specific class.  The
part-sequence check (partitions._check_component) raises InvalidPartitionError
or one of its three subclasses: ResidueError, MinimumPartError, ZeroPartError.
"""


class CopaError(ValueError):
    """Base class for domain validation failures."""


class DomainError(CopaError):
    """An argument lies outside the domain of the operation: a parameter
    triple, a scale factor, a modulus, a count, or a method or format name."""


class InvalidPartitionError(CopaError):
    """A part sequence is not a valid partition for the requested use."""


class ResidueError(InvalidPartitionError):
    """A part falls outside the required residue class."""


class MinimumPartError(InvalidPartitionError):
    """A part is smaller than the minimum its component allows."""


class ZeroPartError(InvalidPartitionError):
    """A zero part appears where the parameters forbid zero parts."""


class EmptySkyError(CopaError):
    """The sky is empty although the parameters require it to be nonempty."""


class EmptyGroundError(CopaError):
    """The ground is empty although the parameters require it to be nonempty."""


class SplitError(CopaError):
    """An enlarged-sky part is too small for the claimed ground count."""


class NoClosedFormError(CopaError):
    """No closed-form count is implemented for the requested parameters."""


class NotEOStarError(CopaError):
    """A partition fails the even-odd structure required here."""


class SeriesError(CopaError):
    """A series operation got an argument outside its domain."""


class BadInputError(CopaError):
    """A JSON document given on the command line lacks a field or has the wrong types."""


class AttributeAccessError(CopaError, AttributeError):
    """A name the package does not have was read, or a field of a read-only
    value was set or deleted.  As an AttributeError, hasattr reads it as a
    missing name."""
