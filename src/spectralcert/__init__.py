"""Spectral-threshold certification toolkit.

Builds the extremal graph families behind spectral sufficient conditions for
spanning trees with bounded degree and for bipartite perfect matchings,
computes certified largest eigenvalues, and couples both to exact
combinatorial certifiers so the underlying statements can be checked
empirically at desk scale.

The package root defines only ``__version__``.  Import from the submodules:
``graphs``, ``spectral``, ``certifiers``, ``families``, ``smallgraphs``,
``verify``, ``errors`` and ``cli``.
"""

__version__ = "0.1.0"
