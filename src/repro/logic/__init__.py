"""Logic synthesis substrate: expression IR, minimization, factoring,
technology mapping and the MILO-like optimization flow.

``from repro.logic import expr`` imports the expression IR on first use;
importing the package alone loads none of its modules.
"""

__all__ = ["expr"]
