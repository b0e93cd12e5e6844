"""Short-maturity smile asymptotics for local-stochastic volatility models.

The package computes the leading short-maturity behaviour of European and
VIX option implied volatilities when instantaneous volatility is a local
function of spot times a stochastic factor, and validates the closed forms
against an internal Monte Carlo pricer.

Every name is exported lazily: its module is imported when one of its
names is first asked for.  So ``import lsv_shortmat`` loads no submodule, a
lognormal model never loads the square-root transform nor the reverse, and
the analytic layers load neither numpy nor the thread pool, which come with
:mod:`.mc_engine`.
"""

import importlib

__version__ = "0.1.0"

_LAZY_EXPORTS = {
    "model": ("ConstantDrift", "ConstantLocalVol", "LognormalVolOfVol", "LsvModel", "MeanRevertingDrift",
              "SquareRootVolOfVol", "TanhLocalVol", "TaylorLocalVol", "ZeroDrift", "check_moment_condition",
              "eta_log_coeffs", "load_model", "model_from_dict", "model_to_dict", "vix_spot"),
    "rate_solver": ("RatePoint", "european_rate", "integral_IS", "rate_to_impvol", "sabr_rate_closed",
                    "stochvol_vix_rate", "vix_rate"),
    "smile": ("SmileExpansion", "VixMapping", "atm_price_limit_european", "atm_price_limit_vix",
              "constant_drift_factor", "european_expansion_heston_type", "european_expansion_sabr_type",
              "heston_vix_smile", "meanrev_lognormal_vix_smile", "vix_atm_bounds", "vix_expansion_heston_type",
              "vix_expansion_sabr_type", "vix_mapping"),
    "black_scholes": ("OptionQuote", "black_price", "black_vega", "implied_vol"),
    "hartman_watson": ("FBranchSolution", "h_lognormal", "hw_F", "hw_F_series", "rate_I", "solve_f_branch"),
    "heston_rate": ("h_heston", "legendre_point", "marginal_J1", "marginal_J2", "rate_IH_numeric",
                    "rate_IH_series"),
    "mc_engine": ("McConfig", "McSamples", "PriceEstimate", "SmilePoint", "default_strike_grid", "price",
                  "proxy_error_bounds", "simulate_paths", "smile_from_mc", "terminal_values",
                  "vix_exact_meanrev"),
}
# each lazy name, and each lazy module's own name, to its module
_LAZY = {name: module for module, names in _LAZY_EXPORTS.items() for name in (module, *names)}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not ``from . import``, which would ask this hook for the module again
    module = importlib.import_module("." + module_name, __name__)
    return module if name == module_name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
