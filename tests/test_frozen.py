"""The package's frozen value types behave as stock frozen dataclasses.

Every class is found by walking hardylane's modules; EXAMPLES holds one
instance per class, and a frozen class without an example fails the
suite.
"""

import copy
import dataclasses
import importlib
import inspect
import pathlib
import pickle
import pkgutil

import pytest

import hardylane
from hardylane import constructions, iteration, radial, regions
from hardylane.exponents import DomainValidationError, HardyParams, Powers
from hardylane.integrability import IntegrabilityVerdict
from hardylane.plotting import PlotSpec


def _frozen_classes():
    found = {}
    for info in pkgutil.walk_packages(hardylane.__path__, "hardylane."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                    and obj.__dataclass_params__.frozen):
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


FROZEN = _frozen_classes()

_C1 = (HardyParams(5, -2.0, 0.0), Powers(2.0, 3.0))


def _candidate():
    return constructions.build_candidate("C1", *_C1)


def _report():
    return constructions.verify_on_grid(
        _candidate(), t=0.5, grid=radial.RadialGrid(1e-4, 0.9, 32))


#: qualified name -> (make an instance, a replace() change that its
#: __post_init__ must refuse, or None when the class has no __post_init__).
EXAMPLES = {
    "hardylane.exponents.HardyParams": (
        lambda: HardyParams(5, -1.3, 0.7), {"mu1": -3.0}),
    "hardylane.exponents.Powers": (lambda: Powers(2, 3.5), {"q": True}),
    "hardylane.integrability.IntegrabilityVerdict": (
        lambda: IntegrabilityVerdict(False, -0.25), None),
    "hardylane.iteration.Certificate": (
        lambda: iteration.Certificate(
            iteration.CertificateKind.CROSSED_TAU1, 3, -4.0, -3.5), None),
    "hardylane.iteration.StepRecord": (
        lambda: iteration.StepRecord(2, -1.5, -0.25, tau1_clamped=True),
        None),
    "hardylane.iteration.IterationTrace": (
        lambda: iteration.iterate_clamped(HardyParams(5, -2.0, -2.0),
                                          Powers(2.5, 3.5)), None),
    "hardylane.radial.RadialTerm": (
        lambda: radial.RadialTerm(-1.0, 1, 2.5), {"log_power": 2}),
    "hardylane.radial.RadialFunction": (
        lambda: radial.RadialFunction.from_terms(
            [radial.RadialTerm(-1.0, 0, 2.0), radial.RadialTerm(0.5, 1, 1.0)]),
        None),
    "hardylane.radial.RadialGrid": (
        lambda: radial.RadialGrid(1e-3, 1.0, 16), {"count": 1}),
    "hardylane.regions.RegionClass": (
        lambda: regions.classify(*_C1), None),
    "hardylane.regions.Witness": (
        lambda: regions.nonexistence_witness(HardyParams(5, -2.0, 0.0),
                                             Powers(2.0, 9.0)), None),
    "hardylane.constructions.SupersolutionCandidate": (_candidate, None),
    "hardylane.constructions.VerificationReport": (_report, None),
    "hardylane.plotting.PlotSpec": (
        lambda: PlotSpec(HardyParams(5, -2.0, 0.0), (0.1, 8.0), (0.1, 8.0),
                         16, title="t"), None),
}


def test_every_frozen_class_has_an_example():
    assert sorted(FROZEN) == sorted(EXAMPLES)
    assert len(FROZEN) == 14


def _values(x):
    return {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}


def _stock_twin(cls):
    """The same fields under stock dataclass(frozen=True), no methods."""
    spec = [(f.name, f.type) if f.default is dataclasses.MISSING
            else (f.name, f.type, dataclasses.field(default=f.default))
            for f in dataclasses.fields(cls)]
    params = cls.__dataclass_params__
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True, order=params.order, eq=params.eq,
        repr=params.repr, unsafe_hash=params.unsafe_hash)


@pytest.fixture(params=sorted(EXAMPLES), ids=lambda n: n.rsplit(".", 1)[1])
def example(request):
    make, bad = EXAMPLES[request.param]
    return FROZEN[request.param], make, bad


class TestValueTypes:
    def test_is_a_frozen_instance_of_its_class(self, example):
        cls, make, _ = example
        x = make()
        assert type(x) is cls
        params = cls.__dataclass_params__
        assert params.frozen and params.eq and params.repr
        assert params.order == (cls is radial.RadialTerm)

    def test_fields_cannot_be_assigned_or_deleted(self, example):
        cls, make, _ = example
        x = make()
        before = _values(x)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(x, f.name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(x, f.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.extra = 1
        assert _values(x) == before

    def test_init_has_the_stock_signature(self, example):
        cls, _, _ = example
        stock = _stock_twin(cls)
        assert inspect.signature(cls) == inspect.signature(stock)
        assert inspect.signature(cls.__init__) == inspect.signature(
            stock.__init__)

    def test_instance_dict_holds_the_fields_in_order(self, example):
        cls, make, _ = example
        x = make()
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(vars(x))[:len(names)] == names

    def test_replace_gives_an_equal_instance(self, example):
        cls, make, _ = example
        x = make()
        y = dataclasses.replace(x)
        assert y == x and y is not x
        assert _values(y) == _values(x)
        assert cls(**_values(x)) == x
        assert cls(*_values(x).values()) == x

    def test_replace_runs_post_init_validation(self, example):
        cls, make, bad = example
        assert (bad is not None) == hasattr(cls, "__post_init__")
        if bad is None:
            return
        with pytest.raises(DomainValidationError):
            dataclasses.replace(make(), **bad)

    def test_equal_instances_hash_equal(self, example):
        cls, make, _ = example
        x, y = make(), make()
        assert x == y
        try:
            h = hash(x)
        except TypeError:
            # an unhashable field (IterationTrace.steps is a list)
            assert any(isinstance(v, list) for v in _values(x).values())
            return
        assert h == hash(y) == hash(dataclasses.replace(x))
        assert h == hash(tuple(_values(x).values()))

    def test_repr_is_the_dataclass_repr(self, example):
        cls, make, _ = example
        x = make()
        if cls is radial.RadialFunction:
            assert repr(x) == "RadialFunction(2*r^-1 + 1*r^0.5*(-ln r))"
            return
        expected = repr(_stock_twin(cls)(**_values(x)))
        assert repr(x) == expected
        assert expected.startswith(cls.__qualname__ + "(")

    def test_pickle_and_copy_round_trips(self, example):
        cls, make, _ = example
        x = make()
        for y in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                  copy.deepcopy(x)):
            assert type(y) is cls and y == x
            assert list(vars(y)) == list(vars(x))
            assert repr(y) == repr(x)


def test_radial_terms_order_by_exponent_log_power_then_coefficient():
    T = radial.RadialTerm
    terms = [T(0.5, 0, 1.0), T(-1.0, 1, 2.0), T(-1.0, 0, 3.0),
             T(-1.0, 0, -1.0), T(-2.0, 1, 1.0)]
    assert sorted(terms) == [T(-2.0, 1, 1.0), T(-1.0, 0, -1.0),
                             T(-1.0, 0, 3.0), T(-1.0, 1, 2.0),
                             T(0.5, 0, 1.0)]
    assert T(-1.0, 0, 3.0) < T(-1.0, 1, -5.0) <= T(-1.0, 1, -5.0)
    assert T(0.5, 0, 1.0) > T(-1.0, 1, 2.0)


def test_hardy_params_keeps_its_cached_pairs_through_pickle_and_copy():
    x = HardyParams(5, -1.3, 0.7)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x),
              dataclasses.replace(x), x.swapped().swapped()):
        assert list(vars(y)) == ["N", "mu1", "mu2", "roots"]
        assert [r.hex() for r in y.roots] == [r.hex() for r in x.roots]


def test_post_init_looked_up_at_call_time(monkeypatch):
    """A wrapper installed on the class later (as a tracer does) runs."""
    seen = []
    original = HardyParams.__post_init__

    def wrapped(self):
        seen.append(self.N)
        original(self)

    monkeypatch.setattr(HardyParams, "__post_init__", wrapped)
    assert HardyParams(6, 0.0, -1.0).roots == HardyParams(6, 0.0, -1.0).roots
    assert seen == [6, 6]


#: What only hardylane/_frozen.py may write.
_STORAGE_PATTERNS = ("@dataclass(frozen=True", "object.__setattr__(self")


def test_frozen_storage_has_one_owner():
    package = pathlib.Path(hardylane.__file__).parent
    hits = [f"{path.relative_to(package)}:{n}: {line.strip()}"
            for path in sorted(package.rglob("*.py"))
            if path.name != "_frozen.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if any(pat in line for pat in _STORAGE_PATTERNS)]
    assert hits == []
