"""divpart: exact and asymptotic statistics of divisor-gap restricted
partitions.

Subpackages by concern:

- arith: exact multiplicative kernels, Ramanujan sums, Dirichlet characters
- partition: exact bivariate coefficient tables and part-count laws
- dirichlet: zeta/Gamma/polylog evaluation, Euler products, growth constants
- saddle: the log-product, its partials, saddle roots, asymptotics probes
- cltlab: distributional validation against the Gaussian limit
- checks: the invariant checks behind verify and the acceptance gate
- cli: deterministic command-line front door
"""

from . import arith, cltlab, dirichlet, partition, saddle

__version__ = "0.1.0"

__all__ = ["arith", "partition", "dirichlet", "saddle", "cltlab", "__version__"]
