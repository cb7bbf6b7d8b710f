"""Exact theta-divisor calculus for complex cobordism.

The coefficient ring of rational complex cobordism is modelled on the
polynomial ring in theta-divisor classes t_n (weight n).  This package
computes the universal exponential series beta(z) and its logarithm, the
dual class families v_n / w_n / cp_n, Landweber-Novikov operator actions,
the quantisation of the character map, Hirzebruch genera, topological
invariants of theta divisors, and the full system of Chern-number
divisibility congruences -- all in exact rational arithmetic -- plus a
floating-point Weierstrass module verifying the real-analytic elliptic
constructions.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  Importing the package loads
# no submodule; a name's home is imported the first time the name is read.
_HOMES = {
    "core": ("Partition", "Rat", "bernoulli", "catalan", "partition_factorial",
             "partitions_of"),
    "gradedring": ("GradedPoly", "format_poly", "parse_poly", "t"),
    "series": ("BiTruncSeries", "TruncSeries", "fgl", "fgl_axiom_residuals",
               "residue_extract"),
    "symfun": ("ChernVector", "SymFunExpr", "convert", "convert_basis", "sign_involution",
               "to_normal_monomial"),
    "cobordism": ("GroupLaw", "beta_coefficients", "cp_classes", "decompose",
                  "log_coefficients", "psi_on_class", "q_multiplier", "theta_power_class",
                  "v_classes", "w_classes"),
    "landweber": ("TensorElement", "dequantize", "dual_pairing", "intersection_class",
                  "ln_apply", "quantize"),
    "genera": ("CongruenceSystem", "GenusSpec", "congruence_system", "custom_genus",
               "euler_genus", "genus_of_poly", "genus_of_theta", "l_genus",
               "theta_invariants", "todd_genus"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME_OF)


def __getattr__(name: str):
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
