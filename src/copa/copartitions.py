"""The copartition triple and its structural operations.

An (a, b, m)-copartition is a triple (ground, rectangle, sky): ground parts
are congruent to a (mod m) and at least a, sky parts are congruent to b
(mod m) and at least b, and the rectangle is never stored because it is
determined: one part of size m * len(ground) for every sky part.  The size
is |ground| + m * len(ground) * len(sky) + |sky|.

Degenerate parameters relax one side and constrain the other: a = 0 lets
the ground carry explicit zero parts but requires a nonempty sky, b = 0
mirrors that, and a = b = 0 requires both components nonempty.  Zero parts
are explicit, so a ground of (2,) and one of (2, 0) are different values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, Union

from .errors import (
    AttributeAccessError,
    DomainError,
    EmptyGroundError,
    EmptySkyError,
    InvalidPartitionError,
    SplitError,
)
from .partitions import _as_int, _check_component

ParamsLike = Union["CopartitionParams", tuple[int, int, int]]


class _ReadOnly:
    # Slots set once, by the class's own __init__; any later write raises.
    # Equality and hashing are each class's own, written out: the verify
    # suites' image sets compare and hash these by the thousand.
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeAccessError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeAccessError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copies and pickles are rebuilt through __init__, and checked again
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class CopartitionParams(_ReadOnly):
    """The triple (a, b, m): ground class, sky class, modulus.  Each field
    follows the int rule of parts (1.0 is 1; 1.5 and "1" are refused)."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: int, b: int, m: int) -> None:
        for name, value, what in (("a", a, "class a"), ("b", b, "class b"), ("m", m, "modulus")):
            object.__setattr__(self, name, _as_int(value, what, scalar=True))
        if self.m < 1:
            raise DomainError(f"modulus must be positive, got {self.m}")
        if self.a < 0 or self.b < 0:
            raise DomainError(f"classes must be non-negative, got ({self.a}, {self.b})")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.m) == (other.a, other.b, other.m)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.m))

    def __repr__(self) -> str:
        return f"CopartitionParams(a={self.a!r}, b={self.b!r}, m={self.m!r})"

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.m)

    def swapped(self) -> "CopartitionParams":
        return CopartitionParams(self.b, self.a, self.m)


# lru_cache keeps no entry for a call that raises, so a bad triple is
# refused by __init__ every time it is asked for.
_shared_params = lru_cache(maxsize=256)(CopartitionParams)


def coerce_params(params: ParamsLike) -> CopartitionParams:
    """The params object for a triple, shared by every caller that names it."""
    if isinstance(params, CopartitionParams):
        return params
    try:
        return _shared_params(*params)
    except TypeError:  # not three fields, or one lru_cache cannot hash
        raise DomainError(f"params must be three integers, got {params!r}") from None


class Copartition(_ReadOnly):
    """Validating constructor; params may be a triple, and the rectangle is
    derived, never supplied."""

    __slots__ = ("params", "ground", "sky")

    def __init__(self, params: ParamsLike, ground: Sequence[int], sky: Sequence[int]) -> None:
        # Checked first, then each slot set once.
        p = coerce_params(params)
        ground = _check_component(ground, p.a, p.m, "ground")
        sky = _check_component(sky, p.b, p.m, "sky")
        if p.a == 0 and not sky:
            raise EmptySkyError("a = 0 requires a nonempty sky")
        if p.b == 0 and not ground:
            raise EmptyGroundError("b = 0 requires a nonempty ground")
        _set_params(self, p)
        _set_ground(self, ground)
        _set_sky(self, sky)

    @property
    def a(self) -> int:
        return self.params.a

    @property
    def b(self) -> int:
        return self.params.b

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def size(self) -> int:
        w = len(self.ground)
        s = len(self.sky)
        return sum(self.ground) + self.params.m * w * s + sum(self.sky)

    @property
    def crank(self) -> int:
        return len(self.ground) - len(self.sky)

    def rectangle(self) -> tuple[int, ...]:
        """Derived rectangle parts: one per sky part, each m * len(ground)."""
        return (self.params.m * len(self.ground),) * len(self.sky)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.params, self.ground, self.sky) == (other.params, other.ground, other.sky)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.params, self.ground, self.sky))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Copartition(({self.a},{self.b},{self.m}), "
            f"ground={list(self.ground)}, sky={list(self.sky)})"
        )


_new = object.__new__
_set_params = Copartition.params.__set__
_set_ground = Copartition.ground.__set__
_set_sky = Copartition.sky.__set__


def _built_valid(
    p: CopartitionParams, ground: tuple[int, ...], sky: tuple[int, ...]
) -> Copartition:
    """A Copartition from components its caller built valid, set slot by
    slot without the checks of __init__.  The enumeration walker calls it,
    and each bijection for the image it computes from its checked arguments;
    every public constructor validates."""
    c = _new(Copartition)
    _set_params(c, p)
    _set_ground(c, ground)
    _set_sky(c, sky)
    return c


make_copartition = Copartition


def enlarged_sky(c: Copartition) -> tuple[int, ...]:
    """Sky parts fused with their rectangle rows: sky_i + m * len(ground)."""
    bump = c.params.m * len(c.ground)
    return tuple(s + bump for s in c.sky)


def _unfuse(fused: Sequence[int], ground_count: int, p: CopartitionParams) -> tuple[int, ...]:
    # The fused parts less m * ground_count each, refused only when one falls
    # below b.  Order and class carry over from the fused parts, so a caller
    # whose fused parts are a checked sky source's need no further check.
    bump = p.m * ground_count
    out = []
    for f in fused:
        s = f - bump
        if s < p.b:
            raise SplitError(
                f"fused part {f} too small for ground count {ground_count}"
            )
        out.append(s)
    return tuple(out)


def split_enlarged_sky(
    fused: Sequence[int], ground_count: int, params: ParamsLike
) -> tuple[int, ...]:
    """Undo the fusion: subtract m * ground_count from each fused part."""
    p = coerce_params(params)
    return _check_component(_unfuse(fused, ground_count, p), p.b, p.m, "sky")


def conjugate_copartition(c: Copartition) -> Copartition:
    """Swap ground and sky, landing in the (b, a, m) family.

    Only defined for a >= 1 and b >= 1; the degenerate regimes hang their
    zero-part and nonemptiness conditions on which side is which.
    """
    if c.a == 0 or c.b == 0:
        raise DomainError("conjugation needs a >= 1 and b >= 1")
    return Copartition(c.params.swapped(), c.sky, c.ground)


def scale_copartition(c: Copartition, s: int) -> Copartition:
    """Multiply parameters and every part by s."""
    if s < 1:
        raise DomainError(f"scale factor must be positive, got {s}")
    p = c.params
    return Copartition(
        (p.a * s, p.b * s, p.m * s),
        tuple(g * s for g in c.ground),
        tuple(k * s for k in c.sky),
    )


def unscale_copartition(c: Copartition, s: int) -> Copartition:
    """Inverse of scale_copartition; every parameter and part must divide."""
    if s < 1:
        raise DomainError(f"scale factor must be positive, got {s}")
    p = c.params
    values = (p.a, p.b, p.m) + c.ground + c.sky
    for v in values:
        if v % s:
            raise DomainError(f"{v} not divisible by {s}")
    return Copartition(
        (p.a // s, p.b // s, p.m // s),
        tuple(g // s for g in c.ground),
        tuple(k // s for k in c.sky),
    )


def to_json_dict(c: Copartition) -> dict:
    return {
        "a": c.a,
        "b": c.b,
        "m": c.m,
        "ground": list(c.ground),
        "sky": list(c.sky),
    }


def to_json(c: Copartition) -> str:
    """json.dumps(to_json_dict(c), separators=(",", ":")), written directly."""
    p = c.params
    ground = ",".join(map(str, c.ground))
    sky = ",".join(map(str, c.sky))
    return f'{{"a":{p.a},"b":{p.b},"m":{p.m},"ground":[{ground}],"sky":[{sky}]}}'


def _shown(value) -> str:
    # repr(value) cut to 200 characters, or the type name where repr raises
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__}>"
    return text if len(text) <= 200 else text[:200] + "..."


def from_json_dict(obj: dict) -> Copartition:
    """The copartition a JSON object names.

    a, b and m must be ints and ground and sky lists of ints; nothing is
    coerced, so strings, floats, bools and nested lists are refused.
    """
    try:
        a, b, m, ground, sky = obj["a"], obj["b"], obj["m"], obj["ground"], obj["sky"]
    except (KeyError, TypeError) as exc:
        raise InvalidPartitionError(f"malformed copartition object: {_shown(obj)}") from exc
    if not (
        type(a) is type(b) is type(m) is int
        and type(ground) is type(sky) is list
        and {int}.issuperset(map(type, ground + sky))
    ):
        raise InvalidPartitionError(f"malformed copartition object: {_shown(obj)}")
    return Copartition((a, b, m), ground, sky)


@lru_cache(maxsize=None)
def _decoder():
    # The decoder call that json.loads reaches through two more layers: it
    # reads one JSON value at an index and does not look past it, so
    # from_json skips the whitespace around the value itself and refuses
    # anything else.  json loads on the first call, not with the package.
    import json
    return json.JSONDecoder().scan_once, json.decoder.WHITESPACE.match


def from_json(text: str) -> Copartition:
    """The copartition a JSON text names: one object, with whitespace
    allowed around it and nothing else.  The text must be a str."""
    if not isinstance(text, str):
        raise InvalidPartitionError(f"copartition JSON must be a str, got {type(text).__name__}")
    scan_once, skip_space = _decoder()
    try:
        obj, end = scan_once(text, skip_space(text, 0).end())
    except (StopIteration, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an int literal past the
        # interpreter's digit limit; RecursionError a text nested too deep.
        raise InvalidPartitionError(f"bad JSON: {_shown(text)}") from exc
    if skip_space(text, end).end() != len(text):
        raise InvalidPartitionError(f"bad JSON: {_shown(text)}")
    if not isinstance(obj, dict):
        raise InvalidPartitionError("copartition JSON must be an object")
    return from_json_dict(obj)
