"""Exact symbolic layer: polynomials as elements of sympy's ring QQ[vars] (parsed,
printed and evaluated by ``poly``), factored field elements, wedges, B2 terms.
The same ring carries the k3 curves' coefficients and the univariate Mahler
measure's polynomial."""

from .poly import (
    ParseError,
    eval_poly,
    format_factored,
    format_poly,
    multiplicity,
    parse_poly,
    poly_ring,
    split_laurent,
)
from .algebra import (
    B2WedgeElement,
    DecompositionDocument,
    FactoredElement,
    MultiplicativeBasis,
    NotFactorable,
    WedgeElement,
    apply_tau,
    build_xi,
    check_decomposition,
    factor_over_basis,
    load_decomposition,
    sorted_with_sign,
    wedge_normalize,
)

__all__ = [
    "parse_poly",
    "ParseError",
    "poly_ring",
    "split_laurent",
    "multiplicity",
    "eval_poly",
    "format_poly",
    "format_factored",
    "MultiplicativeBasis",
    "FactoredElement",
    "WedgeElement",
    "B2WedgeElement",
    "NotFactorable",
    "DecompositionDocument",
    "factor_over_basis",
    "wedge_normalize",
    "sorted_with_sign",
    "check_decomposition",
    "apply_tau",
    "build_xi",
    "load_decomposition",
]
