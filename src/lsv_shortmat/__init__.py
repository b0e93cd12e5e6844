"""Short-maturity smile asymptotics for local-stochastic volatility models.

The package computes the leading short-maturity behaviour of European and
VIX option implied volatilities when instantaneous volatility is a local
function of spot times a stochastic factor, and validates the closed forms
against an internal Monte Carlo pricer.

The Monte Carlo names are exported lazily: :mod:`.mc_engine`, and numpy and
the thread pool with it, is imported when one of them is first asked for,
so the analytic layers load neither.
"""

import importlib

from .black_scholes import OptionQuote, black_price, black_vega, implied_vol
from .hartman_watson import FBranchSolution, h_lognormal, hw_F, hw_F_series, rate_I, solve_f_branch
from .heston_rate import (
    CumulantPoint,
    boundary_theta_c,
    cumulant,
    h_heston,
    legendre_point,
    marginal_J1,
    marginal_J2,
    rate_IH_numeric,
    rate_IH_series,
)
from .model import (
    ConstantDrift,
    ConstantLocalVol,
    LognormalVolOfVol,
    LsvModel,
    MeanRevertingDrift,
    SquareRootVolOfVol,
    TanhLocalVol,
    TaylorLocalVol,
    ZeroDrift,
    check_moment_condition,
    eta_eval,
    eta_log_coeffs,
    eta_sq_inverse,
    load_model,
    model_from_dict,
    model_to_dict,
    vix_spot,
)
from .rate_solver import (
    RatePoint,
    european_rate,
    integral_IS,
    rate_to_impvol,
    sabr_rate_closed,
    stochvol_vix_rate,
    vix_rate,
    vol_integral_Q,
)
from .smile import (
    SmileExpansion,
    VixMapping,
    atm_price_limit_european,
    atm_price_limit_vix,
    constant_drift_factor,
    european_expansion_heston_type,
    european_expansion_sabr_type,
    heston_vix_smile,
    meanrev_lognormal_vix_smile,
    vix_atm_bounds,
    vix_expansion_heston_type,
    vix_expansion_sabr_type,
    vix_mapping,
)

__version__ = "0.1.0"

_MC_ENGINE_EXPORTS = ("McConfig", "McSamples", "PriceEstimate", "SmilePoint", "default_strike_grid", "price",
                      "proxy_error_bounds", "simulate_paths", "smile_from_mc", "terminal_values",
                      "vix_exact_meanrev")


def __getattr__(name: str):
    if name == "mc_engine" or name in _MC_ENGINE_EXPORTS:
        # not ``from . import``, which would ask this hook for "mc_engine"
        mc_engine = importlib.import_module(".mc_engine", __name__)
        return mc_engine if name == "mc_engine" else getattr(mc_engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "mc_engine", *_MC_ENGINE_EXPORTS})
