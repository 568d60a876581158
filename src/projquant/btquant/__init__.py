"""Berezin-Toeplitz and geometric quantization on P^1 with the Fubini-Study
quantum bundle.

Two routes.  ``bands`` takes polynomial symbols to exact Beta-integral bands
in Python floats and loads no numpy; the command line runs on it.  The dense
route (``quadrature``, ``sections``, ``chart``, ``operators``, ``asymptotics``)
assembles any SmoothFunction, values-only ones included, on a product
quadrature rule with numpy, and is the independent reference for the bands.

The public names resolve on first access (PEP 562), so importing this
package, or ``projquant.btquant.bands``, loads no numpy.  The first name of
the dense route loads all five of its modules and binds every name they
export here at once, so that a caller who has reached one pays no import on
the first use of another, and every one of them is in this namespace before
anything scans it.
"""

from importlib import import_module as _import_module

#: defining submodule -> the names re-exported from it
_EXPORTS = {
    "bands": ("ConvergenceTable", "doubling_levels", "fit_loglog_slope"),
    "chart": ("GradientUnavailableError", "SmoothFunction", "poisson", "poisson_function",
              "standard_family"),
    "quadrature": ("InsufficientResolutionError", "QuadratureRule", "build_quadrature"),
    "sections": ("SectionBasis",),
    "operators": ("OperatorMatrix", "geom_quant", "op_norm", "toeplitz", "tuynman_residual"),
    "asymptotics": ("dirac_residual", "dirac_table", "norm_asymptotics", "product_residual",
                    "product_table"),
}
_DENSE = ("quadrature", "sections", "chart", "operators", "asymptotics")
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # binds itself here
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in _DENSE if _ORIGIN[name] in _DENSE else (_ORIGIN[name],):
        loaded = _import_module(f"{__name__}.{module}")
        globals().update({n: getattr(loaded, n) for n in _EXPORTS[module]})
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
