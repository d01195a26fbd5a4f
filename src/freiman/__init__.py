"""Freiman ideals: exact sumset arithmetic on exponent vectors, fiber-cone
growth data, and combinatorial classifications of Freiman graphs and
Freiman cycle matroids, cross-validated against the numeric oracle.

`import freiman` loads no submodule.  Each exported name is looked up in
its defining module on every access (PEP 562), so that module is imported
on first use and a name patched there is seen here too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "DEFAULT_CAP FreimanError ParseError PreconditionError "
                  "ResourceCapError",
        "lattice": "PointSet sumset dilate affine_dim freiman_lower_bound "
                   "generalized_lower_bound",
        "ideals": "MonomialIdeal minimalize power quasi_equigenerated_witness "
                  "with_witness",
        "fiber": "FiberProfile GrowthReport GrowthRow analytic_spread mu_series "
                 "h_vector mu_from_h is_freiman check_growth_identities",
        "graphs": "SimpleGraph GraphVerdict components cyclomatic_number "
                  "is_bipartite enumerate_simple_cycles is_polynomial_edge_ring "
                  "four_cycle_union_subgraph has_long_primitive_even_walk "
                  "classify_freiman_graph edge_ideal",
        "matroids": "CycleMatroid MatroidVerdict spanning_forests cycle_matroid "
                    "matrix_tree_count matroidal_ideal classify_freiman_matroid "
                    "cut_vertices matroid_spread_formula base_ring_h_polynomial "
                    "base_ring_regularity",
        "formats": "parse_ideal parse_graph",
        "verify": "run_verify",
    }.items()
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
