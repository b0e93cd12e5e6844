import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lsv_shortmat.black_scholes import OptionQuote, black_price, black_vega, implied_vol


class TestBlackPrice:
    def test_zero_vol_atm(self):
        assert black_price(1.0, 1.0, 0.0, 1.0, True) == 0.0

    def test_zero_vol_intrinsic(self):
        assert black_price(1.2, 1.0, 0.0, 1.0, True) == pytest.approx(0.2)
        assert black_price(0.8, 1.0, 0.0, 1.0, False) == pytest.approx(0.2)

    def test_atm_closed_form(self):
        # ATM: F (2 Phi(stdev/2) - 1); stdev = 0.2
        f = 3.7
        price = black_price(f, f, 0.2, 1.0, True)
        expected = f * (2.0 * 0.5 * (1 + math.erf(0.1 / math.sqrt(2))) - 1.0)
        assert price == pytest.approx(expected, rel=1e-14)
        assert price / f == pytest.approx(0.0796557, abs=1e-7)

    def test_put_call_parity(self):
        for vol in (0.05, 0.4, 1.5):
            c = black_price(1.1, 0.9, vol, 0.5, True)
            p = black_price(1.1, 0.9, vol, 0.5, False)
            assert c - p == pytest.approx(0.2, abs=1e-14)

    def test_monotone_in_vol(self):
        vols = np.linspace(0.01, 3.0, 50)
        prices = [black_price(1.0, 1.3, v, 0.25, True) for v in vols]
        assert np.all(np.diff(prices) > 0)

    def test_vega_matches_difference_quotient(self):
        f, k, v, t = 1.0, 1.1, 0.35, 0.7
        h = 1e-6
        fd = (black_price(f, k, v + h, t) - black_price(f, k, v - h, t)) / (2 * h)
        assert black_vega(f, k, v, t) == pytest.approx(fd, rel=1e-8)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            black_price(-1.0, 1.0, 0.2, 1.0)
        with pytest.raises(ValueError):
            black_price(1.0, 1.0, -0.2, 1.0)


class TestImpliedVol:
    def test_round_trip_grid(self):
        f, t = 1.0, 0.25
        for vol in (0.05, 0.2, 0.8, 1.6, 3.0):
            for k_log in np.linspace(-1.0, 1.0, 9):
                k = f * math.exp(k_log)
                is_call = k >= f
                price = black_price(f, k, vol, t, is_call)
                if price <= 1e-300:
                    continue  # underflowed beyond float support; uninvertible
                quote = OptionQuote(forward=f, strike=k, maturity=t, is_call=is_call, price=price)
                assert implied_vol(quote) == pytest.approx(vol, abs=1e-10)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(t=st.floats(1.0 / 52.0, 1.0), vol=st.floats(0.02, 3.0), z=st.floats(-6.0, 6.0))
    def test_round_trip_property(self, t, vol, z):
        # out-of-the-money quotes up to six standard deviations from the money
        k = math.exp(z * vol * math.sqrt(t))
        is_call = k >= 1.0
        price = black_price(1.0, k, vol, t, is_call)
        assume(price > 1e-300)
        assert implied_vol(OptionQuote(1.0, k, t, is_call, price)) == pytest.approx(vol, rel=1e-11)

    def test_atm_example(self):
        f = 1.0
        price = f * (2.0 * 0.5 * (1 + math.erf(0.1 / math.sqrt(2))) - 1.0)
        quote = OptionQuote(forward=f, strike=f, maturity=1.0, is_call=True, price=price)
        # price is matched to 1e-12 * F; through the ATM vega that is ~3e-12 in vol
        assert implied_vol(quote) == pytest.approx(0.2, abs=1e-11)

    def test_out_of_band_rejected(self):
        with pytest.raises(ValueError):
            implied_vol(OptionQuote(1.0, 1.2, 1.0, True, 1.5))
        with pytest.raises(ValueError):
            implied_vol(OptionQuote(1.0, 1.2, 1.0, True, 0.0))
        # below intrinsic for an ITM call
        with pytest.raises(ValueError):
            implied_vol(OptionQuote(1.2, 1.0, 1.0, True, 0.1))

    def test_near_intrinsic_edge(self):
        # deep OTM tiny price: small positive vol, no NaN
        quote = OptionQuote(forward=1.0, strike=2.0, maturity=1.0 / 52.0, is_call=True, price=1e-200)
        vol = implied_vol(quote)
        assert math.isfinite(vol) and vol > 0.0

    def test_high_vol_bracket_expansion(self):
        price = black_price(1.0, 1.0, 8.0, 1.0, True)
        quote = OptionQuote(1.0, 1.0, 1.0, True, price)
        # vega is ~5e-5 out here, so the 1e-12 price tolerance is ~2e-8 in vol
        assert implied_vol(quote) == pytest.approx(8.0, abs=1e-7)
