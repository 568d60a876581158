"""projquant: exact computational projective geometry, Weierstrass torus
embeddings, Berezin-Toeplitz quantization on P^1, and moment-map/GIT
stability checks.

The public names resolve on first access (PEP 562), so ``import projquant``
loads no submodule and no numpy.
"""

from importlib import import_module as _import_module

#: defining submodule -> the names re-exported from it
_EXPORTS = {
    "gaussrat": ("GaussianRational", "exact_rank"),
    "poly": ("Polynomial", "format_polynomial", "parse_polynomial"),
    "projgeo": ("CubicClass", "PointNotOnVarietyError", "ProjPoint", "VarietyPresentation",
                "cubic_classify", "is_on_variety", "is_singular_point", "jacobian", "rank_at",
                "veronese_square", "zariski_tangent_dim"),
    "coordring": ("GradedRingPresentation", "graded_basis_hypersurface",
                  "hilbert_function", "krull_dim", "variety_dim"),
    "weierstrass": ("EisensteinPair", "Lattice", "LatticePointError", "eisenstein",
                    "embed", "ode_residual", "wp", "wp_prime"),
}
_SUBMODULES = ("btquant", "gitquot", *_EXPORTS)
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_ORIGIN])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")  # binds itself here
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
