"""Value semantics shared by the package's immutable records: construction by
position and by keyword, class-strict equality and hashing, the
`Name(field=value, ...)` repr, no assignment or deletion, and copy and pickle
round-trips."""

import copy
import pickle

import pytest

from indcubes.graphs import Record, SimpleGraph, VertexSubset, _set_field
from indcubes.verify import CheckResult, VerificationReport

_CHECK = CheckResult("a", "h<=1, n<=2", False, "n=1")
_CHECK_REPR = "CheckResult(name='a', params='h<=1, n<=2', ok=False, counterexample='n=1')"

# (class, field values in order, repr of the record built from them)
RECORDS = [
    (SimpleGraph, (2, (2, 1)), "SimpleGraph(n=2, adj=(2, 1))"),
    (CheckResult, ("a", "h<=1, n<=2", False, "n=1"), _CHECK_REPR),
    (VerificationReport, ((_CHECK,),), f"VerificationReport(checks=({_CHECK_REPR},))"),
    (VertexSubset, (5, 4), "VertexSubset(bits=5, n=4)"),
]
FIELDS = {
    SimpleGraph: ("n", "adj"),
    CheckResult: ("name", "params", "ok", "counterexample"),
    VerificationReport: ("checks",),
    VertexSubset: ("bits", "n"),
}
ids = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=ids)
class TestRecordContract:
    def test_positional_and_keyword_construction(self, cls, values, text):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(FIELDS[cls], values)))
        assert by_position == by_keyword
        for name, value in zip(FIELDS[cls], values):
            assert getattr(by_position, name) == value == getattr(by_keyword, name)

    def test_equality_is_class_strict(self, cls, values, text):
        record = cls(*values)
        assert record == cls(*values) and not record != cls(*values)
        assert record != values and values != record
        assert record != list(values)
        assert not record == None  # noqa: E711

        class Sub(cls):
            pass

        assert record != Sub(*values) and Sub(*values) != record

    def test_equal_values_hash_equal(self, cls, values, text):
        a, b = cls(*values), cls(*values)
        assert a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_repr(self, cls, values, text):
        assert repr(cls(*values)) == text

    def test_assignment_and_deletion_raise(self, cls, values, text):
        record = cls(*values)
        for name in (*FIELDS[cls], "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == cls(*values)

    def test_copy_and_pickle_roundtrip(self, cls, values, text):
        record = cls(*values)
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert again == record and type(again) is cls and repr(again) == text


def test_records_of_different_classes_with_equal_values_differ():
    assert SimpleGraph(2, (0, 0)) != VertexSubset(0, 2)
    assert VertexSubset(0, 2) != SimpleGraph(2, (0, 0))

    class Twin(Record):  # SimpleGraph's fields, but not a subclass of it
        __slots__ = ("n", "adj")

        def __init__(self, n, adj):
            _set_field(self, "n", n)
            _set_field(self, "adj", adj)

    twin, graph = Twin(2, (2, 1)), SimpleGraph(2, (2, 1))
    assert hash(twin) == hash(graph) and twin != graph and graph != twin


def test_check_result_counterexample_defaults_to_none():
    ok = CheckResult("a", "r", True)
    assert ok.counterexample is None
    assert ok == CheckResult(name="a", params="r", ok=True) == CheckResult("a", "r", True, None)
    assert repr(ok) == "CheckResult(name='a', params='r', ok=True, counterexample=None)"


def test_missing_or_unknown_fields_raise_type_error():
    with pytest.raises(TypeError):
        SimpleGraph(1)
    with pytest.raises(TypeError):
        SimpleGraph(1, (0,), 2)
    with pytest.raises(TypeError):
        SimpleGraph(n=1, adj=(0,), other=2)
    with pytest.raises(TypeError):
        CheckResult("a", "r")


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (2, (2,), "adjacency length does not match vertex count"),
        (-1, (), "adjacency length does not match vertex count"),
        (2, (4, 1), "row 0 has bits beyond position 2"),
        (2, (1, 0), "self-loop at v_1"),
        (2, (2, 0), "asymmetric adjacency between v_1, v_2"),
        (3, (0, 4, 0), "asymmetric adjacency between v_2, v_3"),
        (2, (-1, 0), "row 0 is negative: -1"),
    ],
)
def test_simple_graph_validation_errors(n, adj, message):
    with pytest.raises(ValueError) as exc:
        SimpleGraph(n, adj)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        SimpleGraph(n=n, adj=adj)
    assert str(exc.value) == message



@pytest.mark.parametrize(
    "build, field, values, other",
    [
        (lambda seq: SimpleGraph(3, seq), "adj", (0, 0, 0), 6),
        (VerificationReport, "checks", (_CHECK, _CHECK), CheckResult("b", "r", True)),
    ],
    ids=["SimpleGraph", "VerificationReport"],
)
def test_sequence_fields_are_stored_as_tuples(build, field, values, other):
    given = list(values)
    record, twin = build(given), build(values)
    assert record == twin and not record != twin and hash(record) == hash(twin)
    given[0] = other
    assert record == twin and getattr(record, field) == values
    assert getattr(twin, field) is values  # a tuple is kept as given
