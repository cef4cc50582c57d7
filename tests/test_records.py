"""The package's records: plain `__slots__` classes built by one
constructor on `graph.Record` from their fields (only a record that checks
or derives its fields has an `__init__` of its own), with read-only
fields and equality, hashing and repr by field; and a package import that
loads neither `dataclasses` nor `inspect`."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import wdcolor
import wdcolor.cli  # noqa: F401  (imports every module that defines a record)
from wdcolor.generators import GeneratorSpec, Instance
from wdcolor.graph import Record, WeightedGraph
from wdcolor.partition import Coloring, ColorResult
from wdcolor.patching import CenterCertificate
from wdcolor.geodesic import GuardTriple
from wdcolor.twcolor import TwColorResult


def _record_classes():
    found, todo = [], [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return sorted((c for c in found if c.__module__.startswith("wdcolor.")), key=lambda c: c.__qualname__)


def _slots(cls):
    return tuple(name for c in reversed(cls.__mro__) for name in vars(c).get("__slots__", ()))


#: Constructor arguments for the records with an __init__ of their own;
#: every other record is built from one placeholder per field.
_ARGS = {
    Coloring: ({0: 1, 1: 2}, 2),
    wdcolor.twcolor._Ctx: (Fraction(1), 1, Fraction(3), False),
    wdcolor.geodesic._EngineCtx: (Fraction(1), False, 1, Fraction(0), 1),
}


def _build(cls):
    if cls in _ARGS:
        return cls(*_ARGS[cls]), {}
    given = {name: ("placeholder", name) for name in cls._fields}
    return cls(**given), given


def test_the_package_defines_24_records():
    assert len(_record_classes()) == 24


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda c: c.__qualname__)
def test_a_record_has_slots_and_read_only_fields(cls):
    assert "__slots__" in vars(cls)
    obj, given = _build(cls)
    assert not hasattr(obj, "__dict__")
    fields = _slots(cls)
    assert cls._fields == fields
    for name in fields:
        before = getattr(obj, name)
        if name in given:
            assert before is given[name], name
        with pytest.raises(AttributeError):
            setattr(obj, name, "changed")
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.not_a_field = 1
    assert set(given) <= set(fields)


def test_only_records_that_check_or_derive_their_fields_have_an_init():
    own = sorted(c.__qualname__ for c in _record_classes() if "__init__" in vars(c))
    assert own == ["Coloring", "_Ctx", "_EngineCtx"]


def test_a_record_is_built_by_position_then_keyword():
    a, b, c = frozenset({1}), frozenset({2}), frozenset({3})
    built = GuardTriple(a, b, both=c)
    assert (built.free, built.removed, built.both) == (a, b, c)
    assert built == GuardTriple(a, b, c) == GuardTriple(both=c, free=a, removed=b)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((frozenset(), frozenset()), {}, "GuardTriple missing field 'both'"),
        ((), {"free": frozenset(), "removed": frozenset()}, "GuardTriple missing field 'both'"),
        ((frozenset(),) * 3, {"extra": 1}, "GuardTriple has no field 'extra'"),
        ((frozenset(),) * 3, {"free": frozenset()}, "GuardTriple got field 'free' by position and by keyword"),
        ((frozenset(),) * 4, {}, r"GuardTriple takes 3 fields \(free, removed, both\), got 4 positional arguments"),
    ],
    ids=["missing", "missing-by-keyword", "unknown-keyword", "twice", "surplus"],
)
def test_a_record_refuses_a_missing_unknown_or_surplus_field(args, kwargs, message):
    with pytest.raises(TypeError, match="^%s$" % message):
        GuardTriple(*args, **kwargs)


def test_a_record_with_defaults_takes_them():
    assert GeneratorSpec("path") == GeneratorSpec("path", 0, 0, 0, 2, 0, 1, 1, 1)
    spec = GeneratorSpec("grid", rows=3, cols=4)
    assert (spec.rows, spec.cols, spec.n, spec.k, spec.weight_den) == (3, 4, 0, 2, 1)
    g = WeightedGraph(range(2), [(0, 1, 1)])
    inst = Instance("path", g)
    assert inst.graph is g and (inst.td, inst.rotation, inst.layering, inst.tripods) == (None,) * 4
    assert Instance("path", g, rotation={}).rotation == {}
    with pytest.raises(TypeError, match="^Instance missing field 'graph'$"):
        Instance("path")
    assert CenterCertificate((1,), Fraction(1), (0, 2), 1).graph is None


def test_records_compare_hash_and_print_by_their_fields():
    a = Coloring({0: 1, 1: 2}, 2)
    assert a == Coloring({1: 2, 0: 1}, 2)
    assert a != Coloring({0: 1, 1: 1}, 2) and a != Coloring({0: 1, 1: 2}, 3)
    assert repr(a) == "Coloring(assignment={0: 1, 1: 2}, num_colors=2)"
    with pytest.raises(TypeError):
        hash(a)  # a dict field, as in a frozen dataclass
    triple = GuardTriple.single(3)
    assert triple == GuardTriple.single(3) and hash(triple) == hash(GuardTriple.single(3))
    assert triple != GuardTriple(frozenset({3}), frozenset(), frozenset())
    # a subclass's record never equals its base's
    base = ColorResult(a, Fraction(1), None)
    assert base == ColorResult(a, Fraction(1), None)
    assert base != TwColorResult(a, Fraction(1), None, None, 1, 2)


def test_a_center_certificate_keeps_its_graph_out_of_its_value():
    g = WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1)])
    cert = CenterCertificate.build(g, [1], 1, [0, 2])
    assert cert.graph is g
    bare = CenterCertificate((1,), Fraction(1), (0, 2), 1)
    assert bare.graph is None
    assert cert == bare and hash(cert) == hash(bare)
    assert repr(cert) == "CenterCertificate(centers=(1,), radius=Fraction(1, 1), covered=(0, 2), k=1)"
    with pytest.raises(AttributeError):
        cert.graph = None


def test_records_copy_and_pickle():
    g = WeightedGraph(range(3), [(0, 1, 1), (1, 2, 1)])
    cert = CenterCertificate.build(g, [1], 1, [0, 2])
    for record in (Coloring({0: 1, 1: 2}, 2), GuardTriple.single(3), cert):
        for back in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert back == record and back is not record
    assert copy.copy(cert).graph is g


def test_coloring_checks_its_colors_in_init():
    with pytest.raises(wdcolor.GraphError, match="color 3 of vertex 0 outside 1..2"):
        Coloring({0: 3}, 2)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every CLI process compiles and imports the package; these two
    modules and what they import were about a quarter of that."""
    src = os.path.dirname(os.path.dirname(wdcolor.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    code = "import sys, wdcolor, wdcolor.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
