import pytest

from mzero.record import Record


class Pair(Record):
    _fields = ("left", "right", "notes")
    _defaults = {"right": None, "notes": list}


def test_fields_by_position_keyword_and_default():
    assert Pair(1, 2).__dict__ == {"left": 1, "right": 2, "notes": []}
    assert Pair(1, notes=["a"]).__dict__ == {"left": 1, "right": None, "notes": ["a"]}
    # a callable default gives each record its own value
    assert Pair(1).notes is not Pair(1).notes


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1, 2, 3, 4), {}), ((1,), {"left": 2}), ((1,), {"other": 2})],
    ids=["missing", "too-many", "repeated", "unknown"],
)
def test_bad_fields_are_type_errors(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_equality_and_repr_follow_the_fields():
    assert Pair(1, 2) == Pair(1, 2, [])
    assert Pair(1, 2) != Pair(1, 3)
    assert Pair(1) != (1, None, [])
    assert repr(Pair(1, "b")) == "Pair(left=1, right='b', notes=[])"
    with pytest.raises(TypeError):
        hash(Pair(1))
