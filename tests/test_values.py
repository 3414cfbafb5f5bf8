"""The immutable value types: construction, equality, hashing, immutability, repr."""

import copy
import pickle

import pytest

from simsub.catalog import CatalogEntry, SeriesName, zeta_q_tau
from simsub.cubic import AffineSimilarity, QuatTau, Rotation3
from simsub.dirichlet import ClassFactor, CoeffSeries, EulerFactor, EulerRule
from simsub.lattice import Ambient, MultiplierAction, OracleReport, Submodule
from simsub.quadratic import SQRT2, TAU, QuadInt, QuadRing
from simsub.quartic import ISQRT2, ITAU, QuarticInt, QuarticRing

ZERO, ONE = TAU.zero(), TAU.one()
_GEOM = ClassFactor((1,), (1, -1))

# (class, fields in constructor order, arguments, arguments of an unequal
# instance, repr); each repr is the one the frozen dataclass of the same
# fields printed
CASES = [
    (QuadInt, ("a", "b", "ring"), (2, -3, TAU), (2, 3, TAU), "(2-3*tau)"),
    (QuarticInt, ("coeffs", "ring"), ((1, -2, 0, 3), ITAU), ((1, -2, 0, 4), ITAU),
     "QuarticInt((1, -2, 0, 3), itau)"),
    (CoeffSeries, ("limit", "support", "values"), (10, (1, 2, 5), (1, -1, 3)),
     (11, (1, 2, 5), (1, -1, 3)), "CoeffSeries(N=10: 1, -1, 0, 0, 3, 0, 0, 0, ...)"),
    (EulerFactor, ("num", "den"), ((1, 1), (1, -2)), ((1, 1), (1, 2)),
     "EulerFactor(num=(1, 1), den=(1, -2))"),
    (ClassFactor, ("num", "den"), ((1,), (1, (0, -2), (0, 0, 1))), ((1,), (1, -1)),
     "ClassFactor(num=((1,),), den=((1,), (0, -2), (0, 0, 1)))"),
    (EulerRule, ("modulus", "classes", "exceptional"), (2, (_GEOM, _GEOM), {2: _GEOM}),
     (2, (_GEOM, _GEOM), {}),
     "EulerRule(modulus=2, classes=(ClassFactor(num=((1,),), den=((1,), (-1,))), "
     "ClassFactor(num=((1,),), den=((1,), (-1,)))), "
     "exceptional={2: ClassFactor(num=((1,),), den=((1,), (-1,)))})"),
    (CatalogEntry, ("name", "series"), (SeriesName.ZETA_Q_TAU, zeta_q_tau(5)),
     (SeriesName.ZETA_Q_TAU, zeta_q_tau(6)),
     "CatalogEntry(name=<SeriesName.ZETA_Q_TAU: 'zeta-qtau'>, "
     "series=CoeffSeries(N=5: 1, 0, 0, 1, 1))"),
    (MultiplierAction, ("name", "matrix", "minimal_poly"), ("tau", ((0, 1), (1, 1)), (-1, -1, 1)),
     ("w", ((0, 1), (1, 1)), (-1, -1, 1)),
     "MultiplierAction(name='tau', matrix=((0, 1), (1, 1)), minimal_poly=(-1, -1, 1))"),
    (Submodule, ("ambient", "basis"), (Ambient.Z_TAU_AS_Z2, ((2, 1), (0, 3))),
     (Ambient.Z_TAU_AS_Z2, ((2, 0), (0, 3))),
     "Submodule(ambient=<Ambient.Z_TAU_AS_Z2: 'ztau'>, basis=((2, 1), (0, 3)))"),
    (OracleReport, ("ambient", "limit", "rows", "mismatch_format", "note"),
     ("ztau", 2, ((1, 1, 1), (2, 0, 0)), "m={}: {} != {}", " (note)"),
     ("ztau", 2, ((1, 1, 1), (2, 0, 0)), "m={}: {} != {}", ""),
     "OracleReport(ambient='ztau', limit=2, rows=((1, 1, 1), (2, 0, 0)), "
     "mismatch_format='m={}: {} != {}', note=' (note)')"),
    (QuatTau, ("components",), ((ONE, ZERO, ONE, ZERO),), ((ONE, ONE, ONE, ZERO),),
     "QuatTau(components=((1+0*tau), (0+0*tau), (1+0*tau), (0+0*tau)))"),
    (AffineSimilarity, ("scale", "rotation", "translation"),
     (ONE, Rotation3.identity(), (ZERO, ONE, ZERO)), (ONE, Rotation3.identity(), (ZERO,) * 3),
     "AffineSimilarity(scale=(1+0*tau), rotation=Rotation3((((1+0*tau), (0+0*tau), "
     "(0+0*tau)), ((0+0*tau), (1+0*tau), (0+0*tau)), ((0+0*tau), (0+0*tau), (1+0*tau))), "
     "(1+0*tau)), translation=((0+0*tau), (1+0*tau), (0+0*tau)))"),
]


@pytest.mark.parametrize("cls, fields, args, other_args, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_type(cls, fields, args, other_args, text):
    x = cls(*args)
    key = tuple(getattr(x, name) for name in fields)
    # construction by keyword, equality and hash by the fields
    same = cls(**dict(zip(fields, args)))
    assert same is not x and same == x and not same != x
    assert cls(*other_args) != x
    if cls is EulerRule:
        with pytest.raises(TypeError):  # exceptional is a dict
            hash(x)
    else:
        assert hash(x) == hash(same) == hash(key)
    # another type never compares equal, not even the tuple of the fields
    assert x.__eq__(key) is NotImplemented and x != key
    assert x.__eq__(object()) is NotImplemented
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in fields) == key
    assert repr(x) == text
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and repr(twin) == text


# the rings and the rotations keep their own __eq__, __hash__ and __repr__:
# (instance, an unequal instance, the slots, repr)
RINGS_AND_ROTATIONS = [
    (TAU, SQRT2, QuadRing.__slots__, "QuadRing(tau)"),
    (ITAU, ISQRT2, QuarticRing.__slots__, "QuarticRing(itau)"),
    (Rotation3.from_int_rows(((0, 1, 0), (-1, 0, 0), (0, 0, 1))), Rotation3.identity(),
     Rotation3.__slots__, "Rotation3((((0+0*tau), (1+0*tau), (0+0*tau)), ((-1+0*tau), "
     "(0+0*tau), (0+0*tau)), ((0+0*tau), (0+0*tau), (1+0*tau))), (1+0*tau))"),
]


@pytest.mark.parametrize("x, other, slots, text", RINGS_AND_ROTATIONS,
                         ids=[type(case[0]).__name__ for case in RINGS_AND_ROTATIONS])
def test_rings_and_rotations_are_frozen(x, other, slots, text):
    fields = {name: getattr(x, name) for name in slots}
    for name in slots:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):  # no instance dict takes a new name either
        x.extra = 1
    assert {name: getattr(x, name) for name in slots} == fields
    assert x != other and repr(x) == text
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and hash(twin) == hash(x) and repr(twin) == text


def test_value_type_defaults():
    assert EulerFactor((1, 1)).den == (1,)
    assert ClassFactor((1, 1)).den == ((1,),)
    first, second = EulerRule(1, (_GEOM,)), EulerRule(1, (_GEOM,))
    assert first.exceptional == {} and first.exceptional is not second.exceptional
    report = OracleReport("ztau", 1, ((1, 1, 1),))
    assert (report.mismatch_format, report.note) == ("m={}: oracle {} != expected {}", "")


def test_coeff_series_keeps_its_dense_table_in_an_instance_dict():
    series = CoeffSeries.from_coeffs(4, (1, 0, -1, 2))
    assert vars(series) == {"coeffs": (1, 0, -1, 2)}
    lazy = CoeffSeries(4, (1, 3, 4), (1, -1, 2))
    assert vars(lazy) == {}
    assert lazy.coeffs == series.coeffs and vars(lazy) == vars(series)
    assert pickle.loads(pickle.dumps(series)).__dict__ == {"coeffs": (1, 0, -1, 2)}
