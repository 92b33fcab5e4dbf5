"""Decentralized entropic Wasserstein barycenters over time-varying networks.

The package splits into four layers: ``netgraph`` simulates time-varying
communication graphs and their spectra, ``adom`` runs the accelerated
decentralized dual solver, ``entot`` provides the entropic transport dual
oracle plus exact transport for metrics, and ``harness`` orchestrates
reproducible experiments behind the ``netbary`` command-line tool. Each
layer declares its public names in its own ``__all__``.
"""

__version__ = "0.1.0"

from . import adom, entot, harness, netgraph
