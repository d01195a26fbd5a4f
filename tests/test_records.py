"""The nine immutable record classes: construction, equality, hashing,
repr, immutability, and the unvalidated internal constructors."""

import inspect
import pickle

import pytest

from freiman.fiber import FiberProfile, GrowthReport, GrowthRow
from freiman.graphs import GraphVerdict, SimpleGraph
from freiman.ideals import MonomialIdeal, _fresh_ideal
from freiman.lattice import PointSet
from freiman.matroids import CycleMatroid, MatroidVerdict

POINTS = PointSet(2, frozenset({(1, 0), (0, 1)}))
PATH = SimpleGraph(3, frozenset({(1, 2), (2, 3)}))

# class -> (field names in constructor order, defaults, one value per field)
RECORDS = {
    PointSet: (("ambient_dim", "points"), {}, (2, frozenset({(1, 0), (0, 1)}))),
    MonomialIdeal: (
        ("ambient_dim", "generators", "witness"), {"witness": None},
        (2, POINTS, ((1, 1), 1)),
    ),
    SimpleGraph: (("n", "edges"), {}, (3, frozenset({(1, 2), (2, 3)}))),
    GraphVerdict: (
        ("freiman", "reason", "witness"), {"witness": None},
        (False, "witness-long-walk", {"walk": [1, 2, 3]}),
    ),
    FiberProfile: (
        ("ell", "mu_series", "h_partial", "freiman", "bound2", "h2"), {},
        (3, (1, 4, 9), (1, 1, 0), True, 9, 0),
    ),
    GrowthRow: (
        ("k", "mu_k", "lower_bound", "equality", "partial_sum", "nonnegative"), {},
        (2, 9, 9, True, 0, True),
    ),
    GrowthReport: (("ell", "mu", "h", "rows"), {}, (3, (1, 4, 9), (1, 1, 0), ())),
    CycleMatroid: (
        ("source", "ground", "bases"), {}, (PATH, ((1, 2), (2, 3)), ((0, 1),)),
    ),
    MatroidVerdict: (
        ("freiman", "total_cycles_bound", "spread_formula"), {}, (True, 0, 3),
    ),
}
CLASSES = list(RECORDS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_behaves_like_a_frozen_value(cls):
    fields, defaults, values = RECORDS[cls]
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {
        name: p.default for name, p in params.items() if p.default is not p.empty
    } == defaults

    record = cls(*values)
    assert record == cls(**dict(zip(fields, values)))
    assert tuple(getattr(record, f) for f in fields) == values
    if defaults:
        required = values[: len(fields) - len(defaults)]
        assert tuple(getattr(cls(*required), f) for f in defaults) == tuple(
            defaults.values()
        )

    # equal by fields, within one class only
    assert record == cls(*values) and not record != cls(*values)
    other = CLASSES[(CLASSES.index(cls) + 1) % len(CLASSES)]
    assert record != other(*RECORDS[other][2])
    assert record.__eq__(values) is NotImplemented
    if cls is not GraphVerdict:  # its witness is a dict, so it has no hash
        assert hash(record) == hash(cls(*values)) == hash(values)

    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"

    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    assert tuple(getattr(record, f) for f in fields) == values

    assert pickle.loads(pickle.dumps(record)) == record


@pytest.mark.parametrize(
    "build",
    [
        lambda: PointSet(0, frozenset()),
        lambda: PointSet(2, frozenset({(1, -1)})),
        lambda: MonomialIdeal(2, POINTS, ((1, 2), 1)),
        lambda: SimpleGraph(2, frozenset({(2, 1)})),
        lambda: CycleMatroid(PATH, ((1, 2),), ()),
    ],
    ids=["pointset-dim", "pointset-negative", "ideal-witness", "graph-edge",
         "matroid-no-basis"],
)
def test_constructors_still_validate(build):
    with pytest.raises(ValueError):
        build()


def test_cached_graph_facts_live_on_the_instance():
    g = SimpleGraph(3, frozenset({(1, 2), (2, 3)}))
    assert g.adjacency == (0, 0b100, 0b1010, 0b100)
    assert vars(g)["adjacency"] is g.adjacency
    assert g == PATH and hash(g) == hash(PATH)


def test_internal_constructors_equal_the_validated_ones():
    pts = frozenset({(1, 0), (0, 1)})
    fresh = PointSet._trusted(2, pts)
    assert type(fresh) is PointSet
    assert fresh == PointSet(2, pts) and hash(fresh) == hash(PointSet(2, pts))
    assert repr(fresh) == repr(PointSet(2, pts))

    witness = ((1, 1), 1)
    ideal = _fresh_ideal(2, pts, witness)
    assert type(ideal) is MonomialIdeal
    assert ideal == MonomialIdeal(2, PointSet(2, pts), witness)
    assert hash(ideal) == hash(MonomialIdeal(2, PointSet(2, pts), witness))
    assert repr(ideal) == repr(MonomialIdeal(2, PointSet(2, pts), witness))
    with pytest.raises(AttributeError):
        ideal.witness = None

    edges = frozenset({(1, 2), (2, 3)})
    adjacency = (0, 0b100, 0b1010, 0b100)
    colorings = ((0b1110, (0b1010, 0b100), 2),)
    g = SimpleGraph._trusted(3, edges, adjacency=adjacency, component_colorings=colorings)
    assert type(g) is SimpleGraph
    assert g == PATH and hash(g) == hash(PATH) and repr(g) == repr(PATH)
    assert vars(g) == {
        "n": 3, "edges": edges, "adjacency": adjacency, "component_colorings": colorings,
    }
    assert g.adjacency is adjacency and g.component_colorings is colorings
    assert colorings == PATH.component_colorings
