"""cooprob: balanced cooperation-probability estimates for game tables.

A balanced player cooperates with odds proportional to the cooperation
weight and defects with odds proportional to the defection weight of their
game. The package classifies 2x2 and three-player payoff tables, solves the
proportional-balance equations in closed form, verifies every closed form
against a plain fixed-point iteration oracle, extends the estimate to
n-player dilemma ladders and two-sided (asymmetric) games, maps four
applied multi-option games onto pairwise tables, and checks or searches
payoff tables against design targets.

Importing the package loads none of its submodules. A public name such as
``cooprob.balanced_p`` imports the submodule that defines it on first use
and is then bound in the package; ``cooprob.nplayer`` imports that module.
So a 2x2 caller loads ``tables`` and ``estimators`` only. Only the functions
that build arrays import numpy, each inside its own body, so importing the
package and every scalar solver leave it unloaded.

``_EXPORTS`` below is the one list of public names: the package's
``__all__`` is sorted from it, and each submodule's ``__all__`` is its row.
"""

__version__ = "0.1.0"

# each submodule and the public names it exports
_EXPORTS = {
    "applications": (
        "AttritionSpec", "ConjectureReport", "DinerSpec", "OptionDistribution", "PublicGoodsSpec",
        "TravelerSpec", "attrition_distribution", "attrition_pij", "attrition_table2",
        "diner_conjecture_test", "diner_ladder", "diner_p", "diner_table2", "diner_table3",
        "public_goods_distribution", "public_goods_p_star", "public_goods_table2",
        "traveler_distribution", "traveler_mean", "traveler_pij", "traveler_table2",
    ),
    "balance": (
        "BalanceTarget", "SearchResult", "TableEntry", "VerificationReport", "balance_search",
        "load_table_entries", "verify_table",
    ),
    "errors": (
        "AmbiguousRootError", "CooprobError", "DegenerateWeightsError", "DomainError", "InternalError",
        "InvalidTableError", "NoValidRootError", "UndefinedPairError", "UnsupportedClassError",
    ),
    "estimators": (
        "BestResponseThreshold", "EquiprobabilityReport", "Leaning", "MaximinResult", "PhiChi",
        "Response", "balanced_p", "best_response", "best_response_threshold", "equiprobability",
        "expected_payoff2", "maximin_alt_p", "maximin_p", "payoff_max_p", "phi_chi",
    ),
    "iteration": ("IterationTrace", "iterate2", "iterate_asym"),
    "nplayer": (
        "CubicCoefficients", "balanced_p3", "balanced_p_asym", "balanced_pn", "cubic_coefficients",
        "equiprobability3", "expected_payoff3",
    ),
    "tables": (
        "AsymmetricTable2", "Estimate", "GameClass", "GameTag", "PayoffTable2", "PayoffTable3",
        "classify2", "classify3", "payoff_scale",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # a plain import statement's path, which -X importtime reports; it
        # binds the submodule here
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_OWNER[name]), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
