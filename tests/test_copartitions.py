"""Copartition values: validation, size, JSON, conjugation, scaling."""

import copy
import json
import pickle

import pytest

from copa.bijections import partition_to_cp111
from copa.copartitions import (
    Copartition,
    CopartitionParams,
    _shared_params,
    coerce_params,
    conjugate_copartition,
    enlarged_sky,
    from_json,
    from_json_dict,
    make_copartition,
    scale_copartition,
    split_enlarged_sky,
    to_json,
    to_json_dict,
    unscale_copartition,
)
from copa.diagrams import render_diagram
from copa.enumeration import (
    CrankTally,
    RefinedCount,
    count_copartitions,
    crank_tally,
    enumerate_copartitions,
)
from copa.errors import (
    CopaError,
    DomainError,
    EmptyGroundError,
    EmptySkyError,
    InvalidPartitionError,
    MinimumPartError,
    ResidueError,
    SplitError,
    ZeroPartError,
)
from copa.partitions import PartitionStatistics, divisor_count_in_class
from copa.reporting import Checker
from copa.verify import _eta_theta_quotient_check


def test_params_validation():
    assert CopartitionParams(1, 3, 4).as_tuple() == (1, 3, 4)
    assert CopartitionParams(1, 3, 4).swapped() == CopartitionParams(3, 1, 4)
    with pytest.raises(ValueError):
        CopartitionParams(1, 3, 0)
    with pytest.raises(ValueError):
        CopartitionParams(-1, 3, 4)


def test_params_follow_the_int_rule():
    # a field that equals an int is stored as one; anything else is a
    # DomainError, in the class, through coerce_params and in every count
    p = CopartitionParams(1.0, True, 2)
    assert p == CopartitionParams(1, 1, 2) and {type(v) for v in p.as_tuple()} == {int}
    assert coerce_params((1.0, 1, 2)) is coerce_params((1, 1, 2))
    for bad in ((1.5, 1, 2), ("1", 1, 2), ("a", 1, 2), (1, 1, None)):
        with pytest.raises(DomainError, match="is not an integer"):
            CopartitionParams(*bad)
        with pytest.raises(DomainError, match="is not an integer"):
            count_copartitions(bad, 5)
    for bad in (([1], 1, 2), (1, 2), None):
        with pytest.raises(DomainError, match="params must be three integers"):
            coerce_params(bad)


def test_the_class_is_the_validating_constructor():
    c = Copartition((1, 1, 2), (1,), ())
    assert c == make_copartition((1, 1, 2), [1.0], []) and make_copartition is Copartition
    assert c.params is coerce_params((1, 1, 2))
    with pytest.raises(DomainError):
        Copartition((1.5, 1, 2), (1,), ())
    # keywords, equality, hashing and the frozen slots of the dataclass
    same = Copartition(params=[1, 1, 2], ground=[1], sky=[])
    assert same == c and hash(same) == hash(c) and same.ground == (1,) and same.sky == ()
    assert repr(same) == "Copartition((1,1,2), ground=[1], sky=[])"
    assert not hasattr(c, "__dict__")
    with pytest.raises(AttributeError):
        c.sky = (1,)


@pytest.mark.parametrize(
    "record, fields, shown",
    [
        (CopartitionParams, dict(a=1, b=2, m=4), "CopartitionParams(a=1, b=2, m=4)"),
        (Copartition, dict(params=CopartitionParams(1, 1, 2), ground=(3, 1), sky=(1,)),
         "Copartition((1,1,2), ground=[3, 1], sky=[1])"),
        (RefinedCount, dict(params=CopartitionParams(1, 1, 2), n=2, table={(1, 0): 1}),
         "RefinedCount(params=CopartitionParams(a=1, b=1, m=2), n=2, table={(1, 0): 1})"),
        (CrankTally, dict(modulus=2, counts={0: 1, 1: 0}), "CrankTally(modulus=2, counts={0: 1, 1: 0})"),
        (PartitionStatistics, dict(zip(PartitionStatistics._fields, range(6))),
         "PartitionStatistics(total_parts=0, sum_largest_parts=1, sum_perimeters=2, "
         "parts_of_size_one=3, diversity_sum=4, spt=5)"),
    ],
)
def test_records_are_read_only_values(record, fields, shown):
    """Each record takes its fields by keyword, refuses every write, keeps
    no __dict__, compares by value, and survives a copy and a pickle round
    trip (the two checked classes are rebuilt through their checks)."""
    value = record(**fields)
    assert value == record(*fields.values()) and repr(value) == shown
    assert [getattr(value, name) for name in fields] == list(fields.values())
    for write in (lambda: setattr(value, next(iter(fields)), 0), lambda: delattr(value, "n")):
        with pytest.raises(AttributeError):
            write()
    assert not hasattr(value, "__dict__")
    assert copy.copy(value) == pickle.loads(pickle.dumps(value)) == value
    if record not in (RefinedCount, CrankTally):  # those hold a dict
        assert hash(copy.deepcopy(value)) == hash(value)


def test_component_validation_errors_are_specific():
    with pytest.raises(ResidueError):
        make_copartition((1, 3, 4), (2,), ())
    with pytest.raises(ResidueError):
        make_copartition((1, 3, 4), (5,), (5,))
    with pytest.raises(InvalidPartitionError):
        make_copartition((1, 1, 2), (1, 3), ())  # increasing order


def test_class_above_modulus_raises_the_minimum():
    # a = 5, m = 4 names parts congruent to 1 mod 4 that are at least 5
    c = make_copartition((5, 3, 4), (9, 5), (3,))
    assert c.size == 14 + 4 * 2 * 1 + 3 == 25
    with pytest.raises(MinimumPartError):
        make_copartition((5, 3, 4), (1,), ())


def test_size_and_rectangle():
    c = make_copartition((1, 2, 4), (13, 9, 9, 1), (14, 10))
    assert c.size == 32 + 4 * 4 * 2 + 24 == 88
    assert c.rectangle() == (16, 16)
    assert c.crank == 4 - 2 == 2
    assert make_copartition((1, 1, 2), (), ()).size == 0


def test_degenerate_zero_class_rules():
    # ground class 0: explicit zero parts allowed, sky must be nonempty
    c = make_copartition((0, 1, 2), (2, 0), (3, 1))
    assert c.size == 2 + 2 * 2 * 2 + 4 == 14
    with pytest.raises(EmptySkyError):
        make_copartition((0, 1, 2), (2,), ())
    with pytest.raises(EmptyGroundError):
        make_copartition((1, 0, 2), (), (2,))
    with pytest.raises(ZeroPartError):
        make_copartition((1, 1, 2), (1, 0), ())


def test_zero_parts_are_distinct_objects():
    plain = make_copartition((0, 1, 2), (2,), (1,))
    padded = make_copartition((0, 1, 2), (2, 0), (1,))
    assert plain != padded
    assert plain.size == 2 + 2 + 1 == 5
    assert padded.size == 2 + 4 + 1 == 7


def test_json_round_trip():
    c = make_copartition((1, 2, 4), (13, 9, 9, 1), (14, 10))
    text = to_json(c)
    assert text == '{"a":1,"b":2,"m":4,"ground":[13,9,9,1],"sky":[14,10]}'
    assert from_json(text) == c
    assert to_json_dict(c) == {
        "a": 1, "b": 2, "m": 4, "ground": [13, 9, 9, 1], "sky": [14, 10],
    }


def test_constructor_keeps_the_checked_int_parts():
    # an integral float or a bool is taken as the int it equals, and the
    # copartition holds that int, so its JSON reads back
    c = make_copartition((1, 1, 1), [2.0], [True])
    assert (c.ground, c.sky) == ((2,), (1,))
    assert all(type(p) is int for p in c.ground + c.sky)
    assert to_json(c) == '{"a":1,"b":1,"m":1,"ground":[2],"sky":[1]}'
    assert from_json(to_json(c)) == c
    with pytest.raises(InvalidPartitionError):
        make_copartition((1, 1, 1), [2.5], [])


def test_json_rejects_malformed():
    with pytest.raises(InvalidPartitionError):
        from_json("{")
    with pytest.raises(InvalidPartitionError):
        from_json('{"a":1,"b":2,"m":4}')
    with pytest.raises(CopaError):
        from_json('{"a":1,"b":2,"m":4,"ground":[2],"sky":[]}')


def test_from_json_reads_one_object_between_whitespace():
    doc = '{"a":1,"b":2,"m":4,"ground":[9,5],"sky":[6]}'
    c = make_copartition((1, 2, 4), (9, 5), (6,))
    for text in (" " + doc + "\n", "\t\r\n" + doc, doc + "  "):
        assert from_json(text) == c
    for text in (doc + " x", doc + doc, doc + ",", "", "  ", "x" + doc):
        with pytest.raises(InvalidPartitionError, match="bad JSON"):
            from_json(text)
    for text in ("[]", "1", '"text"', "null"):
        with pytest.raises(InvalidPartitionError, match="must be an object"):
            from_json(text)
    # json.loads would decode bytes; from_json takes a str only
    for text in (doc.encode(), bytearray(doc.encode()), None):
        with pytest.raises(InvalidPartitionError, match="must be a str"):
            from_json(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"a":1,"b":2,"m":4,"ground":"95","sky":[6]}',  # a string for the ground
        '{"a":1,"b":2,"m":4,"ground":[9,5],"sky":[6.7]}',  # a float part
        '{"a":1,"b":2,"m":4,"ground":[9.0],"sky":[]}',  # a float that reads as an int
        '{"a":1,"b":2,"m":4,"ground":[true],"sky":[]}',  # a bool part
        '{"a":true,"b":2,"m":4,"ground":[1],"sky":[]}',  # a bool class
        '{"a":"1","b":2,"m":4,"ground":[1],"sky":[]}',  # a string class
        '{"a":1,"b":2,"m":4,"ground":[[9],5],"sky":[]}',  # a nested list
        '{"a":1,"b":2,"m":4,"ground":[9],"sky":{"0":6}}',  # an object for the sky
        '{"a":1,"b":2,"m":4,"ground":null,"sky":[]}',
    ],
)
def test_from_json_refuses_non_integer_fields(text):
    with pytest.raises(InvalidPartitionError, match="malformed copartition object"):
        from_json(text)


@pytest.mark.parametrize(
    "text, cause",
    [
        ("[" * 100000, RecursionError),  # nested past the decoder's depth
        ('{"a":1,"b":2,"m":4,"ground":[' + "9" * 5000 + '],"sky":[]}', ValueError),  # > 4300 digits
    ],
)
def test_from_json_refuses_text_the_decoder_cannot_read(text, cause):
    with pytest.raises(InvalidPartitionError, match="bad JSON") as exc:
        from_json(text)
    assert type(exc.value.__cause__) is cause
    # the message quotes the start of the text, not all of it
    assert len(str(exc.value)) <= 220
    assert str(exc.value) == "bad JSON: " + repr(text)[:200] + "..."


def test_malformed_object_messages_are_cut():
    big = {"a": 1, "b": 2, "m": 4, "ground": list(range(50000))}
    for obj in (big, {**big, "sky": "x"}):
        with pytest.raises(InvalidPartitionError, match="malformed copartition object") as exc:
            from_json_dict(obj)
        assert str(exc.value) == "malformed copartition object: " + repr(obj)[:200] + "..."
    # a short object is quoted whole
    with pytest.raises(InvalidPartitionError) as exc:
        from_json_dict({"a": 1})
    assert str(exc.value) == "malformed copartition object: {'a': 1}"
    # an int past the interpreter's digit limit has no repr: the type is named
    with pytest.raises(InvalidPartitionError) as exc:
        from_json_dict({"a": 10**5000})
    assert str(exc.value) == "malformed copartition object: <dict>"


def test_to_json_matches_json_dumps_and_round_trips():
    seen = 0
    for a in range(5):
        for b in range(5):
            for m in range(1, 5):
                for n in range(13):
                    for c in enumerate_copartitions((a, b, m), n):
                        text = to_json(c)
                        assert text == json.dumps(to_json_dict(c), separators=(",", ":"))
                        assert from_json(text) == c
                        seen += 1
    assert seen > 10_000


def test_params_are_shared_and_bounded():
    assert coerce_params((1, 1, 2)) is coerce_params([1, 1, 2])
    c = from_json('{"a":1,"b":1,"m":2,"ground":[1],"sky":[]}')
    assert c.params is coerce_params((1, 1, 2))
    for _ in range(3):
        with pytest.raises(DomainError, match="modulus must be positive"):
            coerce_params((1, 1, 0))
        with pytest.raises(DomainError, match="classes must be non-negative"):
            coerce_params([-1, 1, 2])
    assert 0 < _shared_params.cache_info().maxsize < 10_000


_C112 = make_copartition((1, 1, 2), (1,), ())


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CopartitionParams(1, 1, 0), "modulus must be positive, got 0"),
        (lambda: CopartitionParams(-1, 1, 2), "classes must be non-negative, got (-1, 1)"),
        (lambda: conjugate_copartition(make_copartition((0, 1, 2), (2,), (1,))),
         "conjugation needs a >= 1 and b >= 1"),
        (lambda: scale_copartition(_C112, 0), "scale factor must be positive, got 0"),
        (lambda: unscale_copartition(_C112, 0), "scale factor must be positive, got 0"),
        (lambda: unscale_copartition(_C112, 2), "1 not divisible by 2"),
        (lambda: render_diagram(_C112, "png"), "unknown diagram format 'png'"),
        (lambda: crank_tally((1, 1, 2), 4, 0), "modulus must be positive, got 0"),
        (lambda: count_copartitions((1, 1, 2), 4, "magic"), "unknown method 'magic'"),
        (lambda: divisor_count_in_class(0, 1, 2), "divisor count of 0 undefined"),
        (lambda: divisor_count_in_class(4, 1, 0), "modulus must be positive, got 0"),
        (lambda: partition_to_cp111((2, 1), -1), "ground count must be non-negative, got -1"),
        (
            lambda: _eta_theta_quotient_check(Checker("theta-eta", ""), 3, 3, 4),
            "need 1 <= a < m, got (3,3)",
        ),
    ],
)
def test_domain_errors_are_typed(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
    assert isinstance(exc.value, CopaError) and isinstance(exc.value, ValueError)


def test_enlarged_sky_and_split():
    c = make_copartition((1, 2, 4), (9, 5, 5, 5, 1), (6, 6, 6, 2))
    fused = enlarged_sky(c)
    assert fused == (26, 26, 26, 22)
    assert split_enlarged_sky(fused, len(c.ground), c.params) == c.sky
    with pytest.raises(SplitError):
        split_enlarged_sky((6,), 5, c.params)  # 6 - 4*5 < 2


def test_conjugation_involution_and_crank():
    for n in range(13):
        for c in enumerate_copartitions((1, 2, 4), n):
            d = conjugate_copartition(c)
            assert d.params == c.params.swapped()
            assert d.size == c.size
            assert d.crank == -c.crank
            assert conjugate_copartition(d) == c


def test_conjugation_rejects_zero_classes():
    c = make_copartition((0, 1, 2), (2,), (1,))
    with pytest.raises(ValueError):
        conjugate_copartition(c)


def test_scale_round_trip():
    for n in range(11):
        for c in enumerate_copartitions((1, 1, 2), n):
            d = scale_copartition(c, 3)
            assert d.params.as_tuple() == (3, 3, 6)
            assert d.size == 3 * c.size
            assert unscale_copartition(d, 3) == c
    with pytest.raises(ValueError):
        scale_copartition(make_copartition((1, 1, 2), (1,), ()), 0)
    with pytest.raises(ValueError):
        unscale_copartition(make_copartition((1, 1, 2), (1,), ()), 2)


def test_scaled_copartitions_share_the_params_of_their_triple():
    c = make_copartition((1, 3, 4), (5, 1), (3,))
    d = scale_copartition(c, 3)
    assert d.params is coerce_params((3, 9, 12))
    assert unscale_copartition(d, 3).params is coerce_params((1, 3, 4))


def test_values_are_immutable_and_hashable():
    c = make_copartition((1, 3, 4), (5,), (3,))
    assert c == make_copartition((1, 3, 4), [5], [3])
    assert len({c, make_copartition((1, 3, 4), (5,), (3,))}) == 1
    with pytest.raises(AttributeError):
        c.ground = ()
