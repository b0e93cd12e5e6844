"""Value semantics of the package's records (``_record.Record``).

For every record class: equal fields make equal objects of one type with
equal hashes, a field cannot be assigned or deleted, the repr shows the
fields alone, the constructor takes fields by position or by name with
their defaults and rejects any other argument, and each class's own checks
still raise ValueError.  A model survives the JSON round trip for every
spec kind.
"""

import copy
import json
import pickle
import typing

import pytest

from lsv_shortmat import black_scholes, hartman_watson, heston_rate, mc_engine, model, rate_solver, smile
from lsv_shortmat._record import Record
from lsv_shortmat.model import (
    ConstantDrift,
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    MeanRevertingDrift,
    SquareRootVolOfVol,
    TanhLocalVol,
    TaylorLocalVol,
    ZeroDrift,
    model_from_dict,
    model_to_dict,
)

TANH = TanhLocalVol(1.0, -0.5, 0.1)
CONFIG = mc_engine.McConfig(n_paths=100, n_steps=10, maturity=0.25, seed=3)

# keyword arguments of one valid instance per record class; McSamples holds
# tuples where a run holds arrays, which compare and hash as values
VALID = {
    TanhLocalVol: dict(f0=1.0, f1=-0.5, x0=0.1),
    TaylorLocalVol: dict(eta0=0.3, eta1=0.1, eta2=-0.2, eta3=0.05),
    ConstantLocalVol: {},
    ZeroDrift: {},
    ConstantDrift: dict(mu=0.2),
    MeanRevertingDrift: dict(a=2.0, b=0.04),
    LognormalVolOfVol: dict(sigma=2.0, drift=ConstantDrift(0.1)),
    SquareRootVolOfVol: dict(sigma=1.0, drift=MeanRevertingDrift(2.0, 0.04)),
    LsvModel: dict(s0=1.0, v0=0.1, rho=-0.7, local_vol=TANH, vol_of_vol=LognormalVolOfVol(2.0), r=0.01, q=0.0),
    rate_solver.RatePoint: dict(strike=1.1, rate=0.02, minimizer_y=-2.3, minimizer_z=0.1, iterations=4,
                                converged=True, boundary_hit=False),
    hartman_watson.FBranchSolution: dict(rho=0.5, branch="cosh", root=2.2, f_value=4.0),
    heston_rate.LegendrePoint: dict(x=1.1, y=0.9, sigma=1.0, value=0.1, theta=0.5, phi=-0.2, iterations=3,
                                    converged=True, noise=1e-16, hessian=(1.0, -0.5, 2.0)),
    black_scholes.OptionQuote: dict(forward=1.0, strike=1.1, maturity=0.25, is_call=True, price=0.02),
    smile.SmileExpansion: dict(atm=0.3, skew=-0.4, convexity=None),
    smile.VixMapping: dict(alpha=0.9, beta=0.01),
    mc_engine.McConfig: dict(n_paths=100, n_steps=10, maturity=0.25, seed=3, antithetic=True),
    mc_engine.McSamples: dict(terminal_s=(1.0, 1.1), terminal_v=(0.1, 0.09), config=CONFIG,
                              model=LsvModel(1.0, 0.1, -0.7, TANH, SquareRootVolOfVol(1.0)), v_scheme="exact-gbm",
                              terminal_s_aux=None),
    mc_engine.PriceEstimate: dict(value=0.02, std_error=1e-4, n=100),
    mc_engine.SmilePoint: dict(strike=1.1, log_moneyness=0.095, price=0.02, std_error=1e-4, implied_vol=0.3,
                               iv_low=0.29, iv_high=0.31, skip_reason=None),
}

# for each class with checks of its own: field values each check refuses
INVALID = {
    TanhLocalVol: [dict(f0=0.5, f1=-0.5), dict(f0=0.5, f1=0.6)],
    TaylorLocalVol: [dict(eta0=0.0), dict(eta0=-0.3)],
    MeanRevertingDrift: [dict(a=0.0), dict(b=-0.1)],
    LognormalVolOfVol: [dict(sigma=0.0), dict(sigma=-1.0)],
    SquareRootVolOfVol: [dict(sigma=0.0)],
    LsvModel: [dict(s0=0.0), dict(v0=-0.1), dict(rho=1.5)],
    black_scholes.OptionQuote: [dict(forward=0.0), dict(strike=-1.0), dict(maturity=0.0)],
    smile.VixMapping: [dict(alpha=0.0), dict(beta=-0.01)],
    mc_engine.McConfig: [dict(n_paths=1), dict(n_steps=0), dict(maturity=0.0), dict(n_paths=100.0),
                         dict(seed=True)],
}

CLASSES = sorted(VALID, key=lambda cls: cls.__qualname__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered():
    assert {cls for cls in _subclasses(Record) if cls.__module__.startswith("lsv_shortmat.")} == set(VALID)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__qualname__)
class TestRecord:
    def test_fields_in_order(self, cls):
        assert cls._fields == tuple(VALID[cls])

    def test_equal_fields_equal_objects(self, cls):
        a, b = cls(**VALID[cls]), cls(**VALID[cls])
        assert a is not b and type(a) is type(b) is cls
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert cls(*VALID[cls].values()) == a

    def test_unequal_to_other_types(self, cls):
        a = cls(**VALID[cls])
        assert a != tuple(VALID[cls].values())
        others = [other(**VALID[other]) for other in CLASSES if other is not cls]
        assert all(a != other for other in others)

    def test_one_changed_field_unequal(self, cls):
        a = cls(**VALID[cls])
        for name, value in VALID[cls].items():
            if type(value) is float:
                assert a != cls(**dict(VALID[cls], **{name: value * 1.01 + 0.01})), name

    def test_immutable(self, cls):
        a = cls(**VALID[cls])
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(a, name, 1.0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.new_field = 1.0
        assert not hasattr(a, "__dict__")
        assert cls(**VALID[cls]) == a

    def test_repr_shows_fields_alone(self, cls):
        a = cls(**VALID[cls])
        fields = ", ".join(f"{name}={value!r}" for name, value in VALID[cls].items())
        assert repr(a) == f"{cls.__qualname__}({fields})"

    def test_copy_and_pickle(self, cls):
        a = cls(**VALID[cls])
        assert copy.copy(a) == a and copy.deepcopy(a) == a
        assert pickle.loads(pickle.dumps(a)) == a

    def test_defaults(self, cls):
        required = {name: value for name, value in VALID[cls].items() if name not in cls._defaults}
        a = cls(**required)
        for name, default in cls._defaults.items():
            assert getattr(a, name) == default

    def test_bad_arguments_raise_type_error(self, cls):
        values = VALID[cls]
        with pytest.raises(TypeError):
            cls(*values.values(), 0.0)
        with pytest.raises(TypeError):
            cls(**values, no_such_field=0.0)
        if values:
            first = next(iter(values))
            with pytest.raises(TypeError):
                cls(*values.values(), **{first: values[first]})
        required = [name for name in cls._fields if name not in cls._defaults]
        if required:
            with pytest.raises(TypeError, match=required[-1]):
                cls(**{name: value for name, value in values.items() if name != required[-1]})


@pytest.mark.parametrize("cls, bad", [(cls, bad) for cls, bads in INVALID.items() for bad in bads],
                         ids=lambda x: getattr(x, "__qualname__", None) or str(x))
def test_checks_still_raise(cls, bad):
    with pytest.raises(ValueError):
        cls(**dict(VALID[cls], **bad))


@pytest.mark.parametrize("local_vol", [TANH, TaylorLocalVol(1.0, -0.2, 0.1, 0.05), ConstantLocalVol()])
@pytest.mark.parametrize("vol_of_vol", [
    LognormalVolOfVol(2.0), SquareRootVolOfVol(1.0), LognormalVolOfVol(2.0, ConstantDrift(0.3)),
    SquareRootVolOfVol(1.0, MeanRevertingDrift(2.0, 0.04)),
])
def test_model_round_trip(local_vol, vol_of_vol):
    m = LsvModel(s0=1.0, v0=0.1, rho=-0.7, local_vol=local_vol, vol_of_vol=vol_of_vol)
    d = model_to_dict(m)
    assert model_from_dict(json.loads(json.dumps(d))) == m
    assert set(d) == set(LsvModel._fields)


def test_default_drift_is_written_and_read():
    m = LsvModel(1.0, 0.1, 0.0, ConstantLocalVol(), LognormalVolOfVol(2.0))
    assert m.vol_of_vol.drift == ZeroDrift()
    assert model_to_dict(m)["vol_of_vol"] == {"kind": "lognormal", "sigma": 2.0, "drift": {"kind": "zero"}}
    assert model_from_dict({"s0": 1.0, "v0": 0.1, "rho": 0.0, "local_vol": {"kind": "constant"},
                            "vol_of_vol": {"kind": "square_root", "sigma": 1.0}}).vol_of_vol.drift == ZeroDrift()


def test_spec_unions_stay_typing_unions():
    for union in (model.LocalVolSpec, model.DriftSpec, model.VolOfVolSpec):
        assert typing.get_origin(union) is typing.Union
