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

``import divpart`` loads none of them: each is imported on first access
(``divpart.arith``, ``from divpart import cltlab``), so a process pays only
for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["arith", "partition", "dirichlet", "saddle", "cltlab", "checks", "cli", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
