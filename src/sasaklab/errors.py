"""Exception taxonomy shared across the package."""


class SasaklabError(Exception):
    """Base class for all package-specific failures."""


class EmptyFrame(SasaklabError):
    """Gram-Schmidt dropped every input vector."""


class NotDifferentiable(SasaklabError):
    """A field evaluator rejected jet inputs."""


class SingularMetric(SasaklabError):
    """Tangent Gram matrix is numerically singular (cond > 1e12)."""


class DegenerateContact(SasaklabError):
    """A candidate contact metric failed positivity on the probe set."""


class ZeroMu(SasaklabError):
    """The momentum covector is zero; the ray reduction is undefined."""


class EmptyLevelSet(SasaklabError):
    """The moduli polytope of the requested ray is infeasible.

    ``certificate`` holds the system ``A x = b, x >= 0`` that was found
    empty and a Farkas vector ``y`` with A^T y >= 0 and b . y = -1.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class NoConvergence(SasaklabError):
    """Newton projection failed to converge."""


class WrongRay(SasaklabError):
    """Newton projection converged onto the closed/negative part of the ray."""


class DegenerateAction(SasaklabError):
    """Fundamental fields are rank deficient where full rank was required."""


class FrameInconsistent(SasaklabError):
    """A constructed frame violates its orthogonality/span invariants."""


class AmbiguousSplit(SasaklabError):
    """Singular values cluster at the splitting threshold."""


class StratificationLeak(SasaklabError):
    """A momentum-zero sample classified outside every stratum."""


class ConfigError(SasaklabError):
    """Configuration could not be parsed or validated."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(ConfigError):
    """Configuration file is unreadable or not valid JSON."""


class ValidationError(ConfigError):
    """Configuration parsed but violates field constraints."""
