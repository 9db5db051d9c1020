"""Higher-order finite differences over GF(p) and GF(p^m), plus a grid-based
cube attack engine for black-box keyed functions.

The package is used through its submodules (`from gfdelta import attack`);
it re-exports nothing.
"""

__version__ = "0.1.0"
