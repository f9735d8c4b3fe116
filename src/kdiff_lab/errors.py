"""Exception types shared across the package."""


class KDiffLabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateTarget(KDiffLabError):
    """The (data, noise) -> (input, target) map is singular at some time."""


class QuadratureDivergence(KDiffLabError):
    """An integrand evaluated to a non-finite value at a quadrature node."""


class SingularEquilibrium(KDiffLabError):
    """An equilibrium-weight denominator is not strictly positive, or its per-mode terms overflow."""


class DimError(KDiffLabError):
    """Incompatible array dimensions."""


class Divergence(KDiffLabError):
    """A training or flow trajectory stopped making progress and blew up."""


class NonFiniteLoss(Divergence):
    """A training step produced a non-finite loss."""


class NonFiniteState(KDiffLabError):
    """An ODE integration state became non-finite."""


class ConfigError(KDiffLabError):
    """Invalid or unknown experiment configuration."""
