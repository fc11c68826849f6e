import pickle

import pytest

import idemfree
from idemfree import (
    ArchDecomposition,
    ComponentData,
    ConstantReport,
    CyclicData,
    ExtremalCertificate,
    ExtremalSpec,
    GeneratorData,
    GroupByNil,
    InvalidParameters,
    Monogenic,
    ProductSets,
    Seq,
    archimedean_decomposition,
    cyclic_data,
    cyclic_group,
    erdos_burgess,
    extremal_pair,
    extremal_structure_check,
    group_nil_chain,
    monogenic,
    product_sets,
)
from idemfree.core import _Record

_SPEC = ExtremalSpec((Monogenic(3, 2), GroupByNil(2, 3)), True)
_DEC = archimedean_decomposition(group_nil_chain(3, 2))
_CERT = extremal_structure_check(*extremal_pair(_SPEC))

# one instance of each public value class, its fields in order, and its repr
_RECORDS = [
    (
        cyclic_data(monogenic(3, 2), 0),
        ("index", "period", "powers"),
        "CyclicData(index=3, period=2, powers=(0, 1, 2, 3))",
    ),
    (Seq((2, 0, 2)), ("terms",), "Seq(terms=(2, 0, 2))"),
    (
        product_sets(cyclic_group(3), [1, 1]),
        ("any_order", "natural_order"),
        "ProductSets(any_order=frozenset({0, 1}), natural_order=frozenset({0, 1}))",
    ),
    (
        erdos_burgess(cyclic_group(3)),
        ("kind", "value", "witness", "nodes_explored"),
        "ConstantReport(kind='ErdosBurgess', value=3, witness=Seq(terms=(0, 0)), nodes_explored=8)",
    ),
    (Monogenic(3, 2), ("index", "period"), "Monogenic(index=3, period=2)"),
    (GroupByNil(2, 3), ("nil_index", "group_order"), "GroupByNil(nil_index=2, group_order=3)"),
    (
        _SPEC,
        ("chain", "adjoin_identity"),
        "ExtremalSpec(chain=(Monogenic(index=3, period=2), GroupByNil(nil_index=2, group_order=3)), adjoin_identity=True)",
    ),
    (
        _DEC.per_component[1],
        ("idempotent", "kernel_group", "nil_part"),
        "ComponentData(idempotent=4, kernel_group=frozenset({4}), nil_part=frozenset({3}))",
    ),
    (
        _DEC,
        ("components", "leq", "per_component", "comp_of"),
        "ArchDecomposition(components=(frozenset({0, 1, 2}), frozenset({3, 4})), leq=((True, False), (True, True)),"
        " per_component=(ComponentData(idempotent=2, kernel_group=frozenset({0, 1, 2}), nil_part=frozenset()),"
        " ComponentData(idempotent=4, kernel_group=frozenset({4}), nil_part=frozenset({3}))), comp_of=(0, 0, 0, 1, 1))",
    ),
    (
        _CERT.per_generator[2],
        ("element", "index", "period", "multiplicity"),
        "GeneratorData(element=5, index=1, period=3, multiplicity=2)",
    ),
    (
        _CERT,
        ("passed", "fail_reason", "generator_order", "per_generator", "component_kinds", "conditions"),
        "ExtremalCertificate(passed=True, fail_reason=None, generator_order=(0, 4, 5),"
        " per_generator=(GeneratorData(element=0, index=3, period=2, multiplicity=3),"
        " GeneratorData(element=4, index=2, period=1, multiplicity=1),"
        " GeneratorData(element=5, index=1, period=3, multiplicity=2)),"
        " component_kinds=('MonogenicOnly', 'GroupByNilExtension'),"
        " conditions=(('commutative-closure', True), ('complement-idempotent', True), ('absorption-order', True),"
        " ('union-of-cycles', True), ('disjoint-nonidempotent-parts', True), ('index-congruence', True),"
        " ('multiplicity', True), ('component-structure', True)))",
    ),
]


class _LookAlike:
    """Another class whose instances carry the same field values."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


def test_value_classes_are_frozen_records():
    # every value class exported by the package is checked here
    exported = {cls for cls in map(vars(idemfree).get, idemfree.__all__) if _Record in getattr(cls, "__bases__", ())}
    assert exported == {type(x) for x, _, _ in _RECORDS}
    for x, names, text in _RECORDS:
        cls = type(x)
        values = tuple(getattr(x, name) for name in names)
        assert repr(x) == text
        # keyword and positional construction give an equal, separate instance
        by_keyword = cls(**dict(zip(names, values)))
        by_position = cls(*values)
        assert by_keyword == by_position == x and by_keyword is not x
        assert not (by_keyword != x)
        assert hash(x) == hash(values) == hash(by_keyword)
        # equality is by class and fields, nothing else
        for other in (values, _LookAlike(**dict(zip(names, values)))):
            assert x != other and not (x == other)
            assert x.__eq__(other) is NotImplemented
        for name in names:
            with pytest.raises(AttributeError):
                setattr(x, name, getattr(x, name))
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert tuple(getattr(x, name) for name in names) == values
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(x, protocol=protocol))
            assert type(back) is cls and back == x and repr(back) == text and hash(back) == hash(x)
    # two classes with equal field values are unequal
    assert Monogenic(3, 2) != GroupByNil(3, 2) and hash(Monogenic(3, 2)) == hash(GroupByNil(3, 2))


def test_value_class_defaults_and_refusals():
    part = Monogenic(3, 2)
    assert ExtremalSpec((part,)) == ExtremalSpec(chain=[part], adjoin_identity=False)
    assert ExtremalSpec((part,)).adjoin_identity is False
    sets = ProductSets(natural_order=frozenset({1}), any_order=frozenset({0, 1}))
    assert sets == ProductSets(frozenset({0, 1}), frozenset({1}))
    assert ConstantReport("Davenport", 2, Seq(()), 1).to_json_dict() == {
        "kind": "Davenport",
        "value": 2,
        "witness": [],
        "nodesExplored": 1,
    }
    assert CyclicData(index=3, period=2, powers=(0, 1, 2, 3)).power(6) == 3
    assert _DEC.is_chain() and _DEC.component_of(3) == 1
    assert ExtremalCertificate(False, "multiplicity", (), (), (), ()).to_json_dict()["failReason"] == "multiplicity"
    refusals = [
        (lambda: Monogenic(0, 1), "need index, period >= 1, got Monogenic(index=0, period=1)"),
        (lambda: Monogenic(2, 2), "index must be 1 mod period, got Monogenic(index=2, period=2)"),
        (lambda: Monogenic("3", 2), "index '3' is not an integer"),
        (lambda: Monogenic(3, True), "period True is not an integer"),
        (lambda: GroupByNil(1, 3), "need nil index >= 2 and group order >= 2, got GroupByNil(nil_index=1, group_order=3)"),
        (lambda: GroupByNil(2, 2.0), "group order 2.0 is not an integer"),
        (lambda: ExtremalSpec(5), "extremal spec chain 5 is not a sequence of parts"),
        (lambda: ExtremalSpec(()), "extremal spec needs at least one component"),
        (lambda: ExtremalSpec((part, 1)), "extremal spec part 1 is not a Monogenic or GroupByNil"),
        (lambda: ExtremalSpec((part,), "no"), "adjoin_identity must be True or False, got 'no'"),
    ]
    for build, message in refusals:
        with pytest.raises(InvalidParameters) as info:
            build()
        assert str(info.value) == message


# the classes built by ``_Record``'s own constructor
_PLAIN = (CyclicData, ProductSets, ConstantReport, ComponentData, ArchDecomposition, GeneratorData, ExtremalCertificate)


@pytest.mark.parametrize("cls", _PLAIN, ids=[cls.__name__ for cls in _PLAIN])
def test_record_constructor_refuses_bad_arguments_by_class(cls):
    x = next(x for x, _, _ in _RECORDS if type(x) is cls)
    names = cls._fields
    values = tuple(getattr(x, name) for name in names)
    name = cls.__qualname__
    refusals = [
        (lambda: cls(*values, None), f"{name}() takes {len(names)} fields, got {len(names) + 1} positional arguments"),
        (lambda: cls(*values[:-1], **{names[-1]: values[-1], "extra": 1}), f"{name}() has no field 'extra'"),
        (lambda: cls(*values, **{names[0]: values[0]}), f"{name}() got field {names[0]!r} twice"),
        (lambda: cls(*values[:-2]), f"{name}() is missing fields {list(names[-2:])}"),
    ]
    for build, message in refusals:
        with pytest.raises(TypeError) as info:
            build()
        assert str(info.value) == message
    assert cls(*values[:-1], **{names[-1]: values[-1]}) == x
