"""Exact and asymptotic counting of galled and reticulation-visible networks.

The package is organised around the component-graph decomposition of rooted
binary phylogenetic networks:

- ``series``    exact truncated EGFs and Laurent polynomials in sqrt(1-2z)
- ``onecomp``   one-component building-block counts and their series
- ``networks``  the network data model, class predicates, component graphs
- ``canon``     canonical forms and automorphism counts for small DAGs, and
                the DAG patterns of the visible pattern sum, which are also
                the shapes of component graphs
- ``galled``    galled-network counts (series, closed forms, tree sums)
- ``retvis``    reticulation-visible counts via DAG-pattern sums
- ``oracle``    brute-force enumeration and the saturated-network analysis
- ``cli``       command-line interface
- ``records``   the immutable value-record base of the classes above
"""

import importlib

# the re-exported names and their modules, imported on first access (PEP 562)
# so that `import phylocount.cli` loads only what the subcommand runs
_EXPORTS = {
    "Egf": "series",
    "SqrtPoly": "series",
    "Network": "networks",
    "VertexKind": "networks",
    "ComponentGraph": "networks",
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
