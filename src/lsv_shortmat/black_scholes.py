"""Undiscounted Black pricing on a forward and implied-vol inversion.

Everything here quotes off the forward and leaves discounting to the caller;
VIX options quote off the VIX forward, so a single undiscounted formula
serves both products.
"""

from __future__ import annotations

import math

from ._record import Record
from ._roots import newton_bracketed

__all__ = ["OptionQuote", "black_price", "black_vega", "implied_vol"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _ncdf(x: float) -> float:
    # erfc keeps full relative accuracy in the lower tail, where the erf form
    # cancels; deep-OTM prices need that to stay invertible
    return 0.5 * math.erfc(-x / _SQRT2)


class OptionQuote(Record):
    """Undiscounted option price quoted against a forward."""

    forward: float
    strike: float
    maturity: float
    is_call: bool
    price: float

    def __post_init__(self) -> None:
        if self.forward <= 0.0 or self.strike <= 0.0 or self.maturity <= 0.0:
            raise ValueError("forward, strike and maturity must be positive")

    def intrinsic(self) -> float:
        if self.is_call:
            return max(self.forward - self.strike, 0.0)
        return max(self.strike - self.forward, 0.0)

    def upper_bound(self) -> float:
        return self.forward if self.is_call else self.strike


def black_price(forward: float, strike: float, vol: float, maturity: float, is_call: bool = True) -> float:
    """Undiscounted Black price; zero vol returns the intrinsic on the forward."""
    if forward <= 0.0 or strike <= 0.0 or maturity <= 0.0 or vol < 0.0:
        raise ValueError("black_price requires positive forward/strike/maturity and vol >= 0")
    stdev = vol * math.sqrt(maturity)
    if stdev == 0.0:
        return max(forward - strike, 0.0) if is_call else max(strike - forward, 0.0)
    d1 = math.log(forward / strike) / stdev + 0.5 * stdev
    d2 = d1 - stdev
    if is_call:
        return forward * _ncdf(d1) - strike * _ncdf(d2)
    return strike * _ncdf(-d2) - forward * _ncdf(-d1)


def black_vega(forward: float, strike: float, vol: float, maturity: float) -> float:
    """d(price)/d(vol); identical for calls and puts."""
    stdev = vol * math.sqrt(maturity)
    if stdev == 0.0:
        return 0.0
    d1 = math.log(forward / strike) / stdev + 0.5 * stdev
    return forward * math.sqrt(maturity) * _INV_SQRT_2PI * math.exp(-0.5 * d1 * d1)


def implied_vol(quote: OptionQuote) -> float:
    """Invert Black for the volatility.

    The price must sit strictly inside the arbitrage band
    (intrinsic, upper bound), and the vol inside (1e-12, 20].  Black is
    increasing in vol, so the root is unique; safeguarded Newton iteration
    with the analytic vega resolves it to machine precision.  It starts at
    the inflection point sqrt(2 |log(F/K)| / T) of the price in vol, from
    which plain Newton converges monotonically; the safeguard bisects where
    that convergence is slow, as for deep out-of-the-money quotes.  No price
    tolerance is used: those quotes span many orders of magnitude below any
    absolute one.
    """
    lo_band = quote.intrinsic()
    hi_band = quote.upper_bound()
    if not (lo_band < quote.price < hi_band):
        raise ValueError(
            f"price {quote.price} outside the arbitrage band ({lo_band}, {hi_band}) "
            f"for F={quote.forward}, K={quote.strike}, call={quote.is_call}"
        )
    f, k, t, call, target = quote.forward, quote.strike, quote.maturity, quote.is_call, quote.price

    def err(v: float) -> float:
        return black_price(f, k, v, t, call) - target

    lo, hi = 1e-6, 20.0
    if err(hi) < 0.0:
        raise ValueError("implied vol above the search cap of 20")
    if err(lo) > 0.0:
        # price below the smallest representable time value: effectively zero vol
        lo = 1e-12
        if err(lo) > 0.0:
            raise ValueError("price below attainable Black values at the vol floor")
    start = math.sqrt(2.0 * abs(math.log(f / k)) / t)
    return newton_bracketed(err, lambda v: black_vega(f, k, v, t), start, lo, hi)
