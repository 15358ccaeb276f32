"""Congested-clique simulator and algebraic algorithm suite.

A synchronous n-node clique with exact round/message accounting, distributed
multi-product matrix multiplication over prime fields, min-plus distance
products, deterministic determinant/inverse, randomized rank/solve, and graph
applications (APSP, diameter, matching size, allowed edges, criticality
decomposition), all verified against centralized oracles.
"""

__version__ = "0.1.0"

from .sim import CliqueWorld, CostLedger, RoutingViolation  # noqa: F401
from .ff import Polynomial  # noqa: F401
