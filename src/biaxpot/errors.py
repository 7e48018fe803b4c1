"""Exception types shared across the package.

Numerical routines distinguish between bad input (DomainError and its
refinements DivergenceError, SingularPairError and
AmbiguousClassificationError, all ValueError subclasses) and a computation
that started out fine but did not finish (ConvergenceError and SolveError,
RuntimeError subclasses).  A pair closer to the kernel singularity than
the evaluators admit, coincident points included, is a SingularPairError.
ConfigError marks a malformed run configuration.  Callers that dispatch on
exit codes rely on this split.
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the routine."""


class DivergenceError(DomainError):
    """A limit or series that provably diverges for these parameters."""


class SingularPairError(DomainError):
    """Point pair too close to the kernel singularity to evaluate reliably."""


class AmbiguousClassificationError(DomainError):
    """Point too close to the boundary curve to classify as inside/outside."""


class ConvergenceError(RuntimeError):
    """Series or quadrature failed to reach the requested tolerance."""


class SolveError(RuntimeError):
    """Linear system solve did not meet the residual contract."""


class ConfigError(ValueError):
    """Run configuration file is malformed or inconsistent."""
