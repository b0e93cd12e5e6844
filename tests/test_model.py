import json
import math
import re
import typing

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import roots_legendre

from lsv_shortmat import model as model_module
from lsv_shortmat.model import (
    ConstantDrift,
    ConstantLocalVol,
    DriftSpec,
    LocalVolSpec,
    LognormalVolOfVol,
    LsvModel,
    MeanRevertingDrift,
    SquareRootVolOfVol,
    TanhLocalVol,
    TaylorLocalVol,
    VolOfVolSpec,
    ZeroDrift,
    check_moment_condition,
    eta_log_coeffs,
    load_model,
    model_from_dict,
    model_to_dict,
    vix_spot,
)
from oracles import tanh_eta_sq_log_inverse

TANH = TanhLocalVol(f0=1.0, f1=-0.5, x0=0.0)


def _eta_sq_range(spec):
    """The open range of eta^2 that ``tanh_eta_sq_log_inverse`` accepts:
    between the squares of f0 -+ |f1|."""
    lo, hi = spec.f0 - abs(spec.f1), spec.f0 + abs(spec.f1)
    return lo * lo, hi * hi


def table_model(rho=-0.7, **kw):
    base = dict(s0=1.0, v0=0.1, rho=rho, local_vol=TANH, vol_of_vol=LognormalVolOfVol(sigma=2.0))
    base.update(kw)
    return LsvModel(**base)


def scalar_eta(spec, k):
    """eta at a float log-moneyness k by the spec's scalar formulas."""
    return spec.eta_derivatives(k)[0]


ETA_SPECS = [
    TANH,
    TanhLocalVol(1.2, 0.3, -0.7),
    TaylorLocalVol(eta0=0.8, eta1=0.2, eta2=-0.1, eta3=0.05),
    ConstantLocalVol(),
]


class TestEtaValues:
    def test_tanh_at_spot(self):
        assert scalar_eta(TANH, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert float(TANH.eta(0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_constant(self):
        assert scalar_eta(ConstantLocalVol(), math.log(17.3)) == 1.0
        assert ConstantLocalVol().eta(math.log(17.3)) == 1.0

    def test_tanh_one_log_unit(self):
        # 1 - 0.5 tanh(1)
        expected = 1.0 - 0.5 * math.tanh(1.0)
        assert expected == pytest.approx(0.6192029220221175, abs=1e-12)
        assert scalar_eta(TANH, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_taylor(self):
        spec = TaylorLocalVol(eta0=1.0, eta1=-0.5, eta2=0.1, eta3=0.02)
        k = 0.3
        expected = 1.0 - 0.5 * k + 0.1 * k * k + 0.02 * k**3
        assert scalar_eta(spec, k) == pytest.approx(expected, abs=1e-14)
        assert float(spec.eta(k)) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("spec", ETA_SPECS)
    def test_vectorised_matches_scalar(self, spec):
        ks = np.linspace(-2.0, 2.0, 9)
        vals = spec.eta(ks)
        assert vals.shape == ks.shape
        for k, v in zip(ks, vals):
            assert v == pytest.approx(scalar_eta(spec, k), rel=1e-15)

    @pytest.mark.parametrize("spec", ETA_SPECS)
    def test_one_writing_with_and_without_out(self, spec):
        # without ``out`` eta runs the ``out=`` sequence on a new array of
        # k's shape: the same bits, a fresh float array, 0-d for a float k
        ks = np.linspace(-3.0, 3.0, 13).reshape(13, 1)
        out = np.full(ks.shape, np.nan)
        assert spec.eta(ks, out=out) is out
        fresh = spec.eta(ks)
        assert fresh.dtype == np.float64 and fresh.shape == ks.shape
        assert np.array_equal(fresh, out)
        point = spec.eta(0.3)
        assert isinstance(point, np.ndarray) and point.shape == ()
        assert point == spec.eta(np.array([0.3]))[0]
        assert spec.eta(np.arange(-2, 3)).tolist() == spec.eta(np.arange(-2.0, 3.0)).tolist()


class TestScalarEta:
    """The scalar eta of vix_spot and the expansions (``eta_derivatives``,
    plain math) against the ndarray ``eta`` (numpy), to 2 ulp."""

    KS = [0.0, 1e-8, -1e-8, 0.3, -0.3, 5.0, -5.0, 40.0, -40.0]

    @pytest.mark.parametrize("spec", [
        *[TanhLocalVol(1.0, f1, x0) for x0 in (0.0, 0.4) for f1 in (-0.5, 0.3)],
        TaylorLocalVol(eta0=0.8, eta1=0.2, eta2=-0.1, eta3=0.05),
        ConstantLocalVol(),
    ])
    def test_matches_ndarray_eta(self, spec):
        arrayed = spec.eta(np.array(self.KS))
        for k, want in zip(self.KS, arrayed.tolist()):
            got = spec.eta_derivatives(k)[0]
            assert type(got) is float
            assert abs(got - want) <= 2.0 * math.ulp(want), (k, got, want)


class TestEtaLogCoeffs:
    def test_tanh_centered(self):
        # eta = f0 + f1 (k - k^3/3 + ...), exact at x0 = 0
        assert eta_log_coeffs(TANH) == [1.0, -0.5, 0.0, 1.0 / 6.0]

    def test_constant(self):
        assert eta_log_coeffs(ConstantLocalVol()) == [1.0, 0.0, 0.0, 0.0]

    def test_taylor_coefficients_to_one_ulp(self):
        # 6 eta3 / 6 need not round back to eta3
        coeffs = (0.8, 0.2, -0.1, 0.05)
        got = eta_log_coeffs(TaylorLocalVol(*coeffs))
        assert all(abs(g - c) <= math.ulp(c) for g, c in zip(got, coeffs)), got

    @pytest.mark.parametrize("x0", [-800.0, -400.0, 400.0, 800.0])
    def test_tanh_far_centre(self, x0):
        # cosh(x0)^2 overflows beyond |x0| = 355; eta is flat at f0 -+ f1 there
        coeffs = eta_log_coeffs(TanhLocalVol(1.0, 0.3, x0))
        assert coeffs == [pytest.approx(1.0 + 0.3 * math.copysign(1.0, -x0), abs=1e-15), 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("spec", [
        TANH,
        TanhLocalVol(f0=1.0, f1=-0.5, x0=0.5),
        TanhLocalVol(f0=1.2, f1=0.3, x0=-0.7),
        TaylorLocalVol(eta0=0.8, eta1=0.2, eta2=-0.1, eta3=0.05),
    ])
    def test_matches_finite_differences(self, spec):
        # centered stencils for the first three derivatives of eta(e^k) at k=0
        h = 1e-3
        f = [scalar_eta(spec, i * h) for i in range(-3, 4)]
        d1 = (f[4] - f[2]) / (2 * h)
        d2 = (f[4] - 2 * f[3] + f[2]) / h**2
        d3 = (f[5] - 2 * f[4] + 2 * f[2] - f[1]) / (2 * h**3)
        coeffs = eta_log_coeffs(spec)
        assert coeffs[0] == pytest.approx(f[3], abs=1e-12)
        assert coeffs[1] == pytest.approx(d1, abs=1e-6)
        assert coeffs[2] == pytest.approx(d2 / 2.0, abs=1e-6)
        assert coeffs[3] == pytest.approx(d3 / 6.0, abs=1e-6)


class TestEtaDerivatives:
    @pytest.mark.parametrize("spec", [
        TANH,
        TanhLocalVol(f0=1.2, f1=0.3, x0=-0.7),
        TaylorLocalVol(eta0=0.8, eta1=0.2, eta2=-0.1, eta3=0.05),
        ConstantLocalVol(),
    ])
    @pytest.mark.parametrize("k", [-3.0, -0.4, 0.0, 1e-6, 0.25, 2.0])
    def test_against_mpmath(self, spec, k):
        mp = pytest.importorskip("mpmath")
        if isinstance(spec, TanhLocalVol):
            def eta(t):
                return spec.f0 + spec.f1 * mp.tanh(t - spec.x0)
        elif isinstance(spec, TaylorLocalVol):
            def eta(t):
                return spec.eta0 + spec.eta1 * t + spec.eta2 * t**2 + spec.eta3 * t**3
        else:
            def eta(t):
                return mp.mpf(1)
        with mp.workdps(40):
            ref = (eta(mp.mpf(k)), mp.diff(eta, k), mp.diff(eta, k, 2), mp.diff(eta, k, 3))
            got = spec.eta_derivatives(k)
            assert len(got) == 4
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-14 * max(1.0, abs(r)), (k, got, ref)


class TestEtaSqInverse:
    """The tanh closed-form inverse of eta^2, the VIX oracle of the rate
    solver's tests."""

    def test_unit_target(self):
        assert tanh_eta_sq_log_inverse(TANH, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_forward_then_invert(self):
        w = scalar_eta(TANH, 1.0) ** 2
        assert tanh_eta_sq_log_inverse(TANH, w) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("spec", [TANH, TanhLocalVol(1.1, 0.4, 0.3)])
    def test_round_trip_grid(self, spec):
        for k in np.linspace(-3.0, 3.0, 41):
            w = scalar_eta(spec, k) ** 2
            assert tanh_eta_sq_log_inverse(spec, w) == pytest.approx(k, abs=1e-10)

    def test_out_of_range(self):
        lo, hi = _eta_sq_range(TANH)
        with pytest.raises(ValueError):
            tanh_eta_sq_log_inverse(TANH, hi * 1.01)
        with pytest.raises(ValueError):
            tanh_eta_sq_log_inverse(TANH, lo * 0.99)

    @pytest.mark.parametrize("spec", [
        TANH,
        TanhLocalVol(1.0, 0.3, 0.4),
        TanhLocalVol(1.0, -0.5, 0.4),
        TanhLocalVol(1.0, 0.3, 0.0),
    ])
    def test_closed_form_round_trip(self, spec):
        # eta(k)^2 must reproduce w, also a hair inside both ends of the range
        w_lo, w_hi = _eta_sq_range(spec)
        ws = list(np.linspace(w_lo, w_hi, 23)[1:-1]) + [w_lo * (1.0 + 1e-9), w_hi * (1.0 - 1e-9)]
        for w in ws:
            k = tanh_eta_sq_log_inverse(spec, w)
            assert float(spec.eta(k)) ** 2 == pytest.approx(w, rel=1e-13)
            assert scalar_eta(spec, k) ** 2 == pytest.approx(w, rel=1e-13)

    def test_closed_form_matches_root_finding(self):
        # the Brent root of eta(k) = sqrt(w), independent of the atanh form
        spec = TanhLocalVol(1.1, 0.4, 0.3)
        for w in (0.6, 1.0, 1.21, 1.9):
            root = brentq(lambda k: float(spec.eta(k)) - math.sqrt(w), -30.0, 30.0, xtol=1e-15)
            assert tanh_eta_sq_log_inverse(spec, w) == pytest.approx(root, abs=1e-13)


class TestVixSpot:
    def test_table_model(self):
        assert vix_spot(table_model()) == pytest.approx(math.sqrt(0.1), rel=1e-12)

    def test_constant_unit_variance(self):
        model = table_model(local_vol=ConstantLocalVol(), v0=1.0)
        assert vix_spot(model) == 1.0

    def test_shifted_center(self):
        model = table_model(local_vol=TanhLocalVol(1.0, -0.5, 0.5), v0=0.04)
        expected = (1.0 - 0.5 * math.tanh(-0.5)) * 0.2
        assert expected == pytest.approx(0.246211715726001, abs=1e-12)
        assert vix_spot(model) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("s0", [1.0, 0.37, 1.3, 2500.0])
    @pytest.mark.parametrize("spec", ETA_SPECS)
    def test_identity_with_the_scalar_eta(self, spec, s0):
        # eta at the money, log(s0 / s0) = 0.0 exactly, by the spec's scalar
        # formulas and no other writing
        model = table_model(v0=0.07, s0=s0, local_vol=spec)
        assert vix_spot(model) == scalar_eta(spec, math.log(s0 / s0)) * math.sqrt(model.v0)
        assert vix_spot(model) == eta_log_coeffs(spec)[0] * math.sqrt(model.v0)


class TestMomentCondition:
    def test_examples(self):
        assert check_moment_condition(-0.9, 2.0) is True
        assert check_moment_condition(0.0, 2.0) is False
        # -sqrt(3)/2 = -0.8660; -0.87 is below it
        assert check_moment_condition(-0.87, 4.0) is True
        assert check_moment_condition(-0.86, 4.0) is False

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            check_moment_condition(-0.5, 1.0)


class TestValidation:
    def test_tanh_positivity(self):
        with pytest.raises(ValueError):
            TanhLocalVol(f0=0.4, f1=-0.5)

    def test_model_bounds(self):
        with pytest.raises(ValueError):
            table_model(s0=-1.0)
        with pytest.raises(ValueError):
            table_model(v0=0.0)
        with pytest.raises(ValueError):
            table_model(rho=-1.2)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            LognormalVolOfVol(sigma=0.0)
        with pytest.raises(ValueError):
            MeanRevertingDrift(a=0.0, b=1.0)


FINITE = st.floats(-10.0, 10.0)
POSITIVE = st.floats(1e-3, 10.0)
SPEC_STRATEGIES = {
    TanhLocalVol: st.builds(lambda f0, ratio, x0: TanhLocalVol(f0, ratio * f0, x0),
                            POSITIVE, st.floats(-0.99, 0.99), FINITE),
    TaylorLocalVol: st.builds(TaylorLocalVol, POSITIVE, FINITE, FINITE, FINITE),
    ConstantLocalVol: st.builds(ConstantLocalVol),
    ZeroDrift: st.builds(ZeroDrift),
    ConstantDrift: st.builds(ConstantDrift, FINITE),
    MeanRevertingDrift: st.builds(MeanRevertingDrift, POSITIVE, POSITIVE),
}


def _of_kind(union):
    """Any spec of the kind ``union``; a class without a strategy is a KeyError."""
    return st.one_of(*(SPEC_STRATEGIES[cls] for cls in typing.get_args(union)))


SPEC_STRATEGIES.update({
    cls: st.builds(cls, POSITIVE, _of_kind(DriftSpec)) for cls in typing.get_args(VolOfVolSpec)
})


class TestJsonConfig:
    def test_round_trip(self, tmp_path):
        model = LsvModel(
            s0=100.0, v0=0.04, rho=-0.6, r=0.03, q=0.01,
            local_vol=TanhLocalVol(1.0, -0.3, 0.2),
            vol_of_vol=SquareRootVolOfVol(sigma=0.5, drift=MeanRevertingDrift(a=2.0, b=0.04)),
        )
        d = model_to_dict(model)
        assert model_from_dict(d) == model
        path = tmp_path / "model.json"
        path.write_text(json.dumps(d))
        assert load_model(str(path)) == model

    @pytest.mark.parametrize("local_vol", [TANH, TaylorLocalVol(1.0, -0.2, 0.1, 0.05), ConstantLocalVol()])
    @pytest.mark.parametrize("drift", [ZeroDrift(), ConstantDrift(0.3), MeanRevertingDrift(2.0, 0.04)])
    @pytest.mark.parametrize("family", [LognormalVolOfVol, SquareRootVolOfVol])
    def test_round_trip_every_spec(self, local_vol, drift, family):
        model = table_model(local_vol=local_vol, vol_of_vol=family(0.5, drift=drift))
        assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model

    def test_defaults(self):
        cfg = {
            "s0": 1.0, "v0": 0.1, "rho": 0.0,
            "local_vol": {"kind": "constant"},
            "vol_of_vol": {"kind": "lognormal", "sigma": 2.0},
        }
        model = model_from_dict(cfg)
        assert model.r == 0.0 and model.q == 0.0
        assert model.vol_of_vol.drift == ZeroDrift()

    def test_unknown_kind(self):
        cfg = {
            "s0": 1.0, "v0": 0.1, "rho": 0.0,
            "local_vol": {"kind": "cubic-spline"},
            "vol_of_vol": {"kind": "lognormal", "sigma": 2.0},
        }
        with pytest.raises(ValueError):
            model_from_dict(cfg)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.pop("s0"), "missing key s0"),
        (lambda c: c["local_vol"].pop("f0"), "missing key local_vol.f0"),
        (lambda c: c["local_vol"].update(x_0=0.3), "unknown key local_vol.x_0"),
        (lambda c: c.update(local_vol={"kind": "constant", "value": 1.0}), "unknown key local_vol.value"),
        (lambda c: c["local_vol"].pop("kind"), "local_vol.kind must be one of"),
        (lambda c: c["vol_of_vol"].update(drift={"mu": 0.5}), "vol_of_vol.drift.kind must be one of"),
        (lambda c: c["vol_of_vol"].update(drift={"kind": ["zero"]}), "vol_of_vol.drift.kind must be one of"),
        (lambda c: c["vol_of_vol"].update(drift=None), "vol_of_vol.drift must be a JSON object"),
        (lambda c: c.update(rho="-0.7x"), "rho must be a number"),
        (lambda c: c.update(v0=10**400), "v0 must be a number"),
        (lambda c: c["local_vol"].update(f1=[0.5]), "local_vol.f1 must be a number"),
        # float() takes these, but they are no JSON numbers
        (lambda c: c.update(s0=True), "s0 must be a number"),
        (lambda c: c.update(rho=False), "rho must be a number"),
        (lambda c: c["local_vol"].update(x0="0.25"), "local_vol.x0 must be a number"),
        (lambda c: c["vol_of_vol"].update(sigma="2"), "vol_of_vol.sigma must be a number"),
        # json reads NaN and Infinity; NaN passes every comparison of the spec checks
        (lambda c: c.update(rho=math.nan), "rho must be finite"),
        (lambda c: c["vol_of_vol"].update(sigma=math.nan), "vol_of_vol.sigma must be finite"),
        (lambda c: c.update(v0=math.inf), "v0 must be finite"),
        (lambda c: c["local_vol"].update(x0=-math.inf), "local_vol.x0 must be finite"),
    ])
    def test_malformed_input_names_its_key(self, edit, message):
        cfg = json.loads(json.dumps(model_to_dict(table_model())))
        edit(cfg)
        with pytest.raises(ValueError, match=re.escape(message)):
            model_from_dict(cfg)

    @pytest.mark.parametrize("body", [[1.0, 2.0], "model", 3.0, None])
    def test_body_must_be_an_object(self, body):
        with pytest.raises(ValueError, match="model must be a JSON object"):
            model_from_dict(body)

    @given(model=st.builds(
        LsvModel, s0=POSITIVE, v0=POSITIVE, rho=st.floats(-1.0, 1.0), r=FINITE, q=FINITE,
        local_vol=_of_kind(LocalVolSpec), vol_of_vol=_of_kind(VolOfVolSpec)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_round_trip_property(self, model):
        assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model


def _curvature_sup_oracle(f0, f1, x0):
    """sup over x of |g''(x) - g'(x)|, g = (f0 + f1 tanh(x - x0))^2, from
    mpmath derivatives of g: each local maximum of |g'' - g'| on a grid is
    refined as a root of g''' - g'' at 40 digits."""
    mp.mp.dps = 40

    def g(x):
        return (f0 + f1 * mp.tanh(x - x0)) ** 2

    def h(x):
        return mp.diff(g, x, 2) - mp.diff(g, x, 1)

    xs = np.linspace(-12.0, 12.0, 1201)
    hs = np.abs([float(h(x)) for x in xs])
    peaks = [xs[i] for i in range(1, len(xs) - 1) if hs[i] >= hs[i - 1] and hs[i] >= hs[i + 1]]
    best = max(abs(h(mp.findroot(lambda x: mp.diff(g, x, 3) - mp.diff(g, x, 2), mp.mpf(x)))) for x in peaks)
    return float(best)


class TestGaussLegendre:
    def test_nodes_match_scipy(self):
        nodes, weights = roots_legendre(16)
        gl_nodes, gl_weights = model_module._gl_rule()
        assert np.max(np.abs(gl_nodes - nodes)) <= 1e-16
        assert np.max(np.abs(gl_weights - weights)) <= 5e-15


class TestTanhProxyCurvature:
    @pytest.mark.parametrize("x0", [0.0, 0.4])
    @pytest.mark.parametrize("f1", [-0.5, 0.3])
    def test_against_mpmath(self, x0, f1):
        _, _, sup = TanhLocalVol(1.0, f1, x0).proxy_bounds()
        assert sup == pytest.approx(_curvature_sup_oracle(1.0, f1, x0), rel=1e-12)

    def test_flat_eta_has_no_curvature(self):
        assert TanhLocalVol(1.0, 0.0).proxy_bounds() == (0.0, 1.0, 0.0)
