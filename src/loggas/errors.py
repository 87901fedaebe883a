"""Exception hierarchy shared by all loggas modules."""


class LogGasError(Exception):
    """Base class for all loggas errors."""


# ---- input / validation errors (CLI exit code 2) ----

class AsymmetricInput(LogGasError):
    """Coupling matrix input is not symmetric within tolerance."""


class NonzeroDiagonal(LogGasError):
    """Coupling matrix input has a nonzero diagonal entry."""


class TooSmall(LogGasError):
    """System has fewer than two particles."""


class ZeroCharge(LogGasError):
    """A charge vector entry is exactly zero."""


class NotNeutral(LogGasError):
    """Two-component spec violates charge neutrality n1*z1 == n2*z2."""


class InvalidParity(LogGasError):
    """Arguments are not odd integers of the admissible form."""


class SingleSignCharges(LogGasError):
    """Charge vector has no sign change (needs both positive and negative)."""


class TooFewParticles(LogGasError):
    """Operation requires more particles than provided."""


class EdgelessGraph(LogGasError):
    """Graph has no edges."""


class InputFormatError(LogGasError):
    """Input file violates the JSON input schema."""


# ---- size limits (CLI exit code 3) ----

class InstanceTooLarge(LogGasError):
    """Particle count (or edge count) exceeds the configured hard cap."""


class FamilyTooLarge(LogGasError):
    """Optimizer family exceeds the nest-search cap."""


# ---- domain errors (CLI exit code 4) ----

class ConditionsFail(LogGasError):
    """Charge vector fails the 3/2-variation conditions."""


class CoincidentPoints(LogGasError):
    """Two coupled particles coincide, making the energy infinite."""


class OutsideDomain(LogGasError):
    """Parameter outside the convergence domain of a closed form."""


class OutsideInterval(LogGasError):
    """Inverse temperature outside the open interval (beta_minus, beta_plus)."""


class EmptySample(LogGasError):
    """No samples supplied to an estimator."""


class DegenerateGrid(LogGasError):
    """Grid unsuitable for pole-order fitting."""


class NoConvergence(LogGasError):
    """Iterative eigensolver did not converge within the sweep cap."""


SIZE_ERRORS = (InstanceTooLarge, FamilyTooLarge)
DOMAIN_ERRORS = (
    ConditionsFail,
    CoincidentPoints,
    OutsideDomain,
    OutsideInterval,
    EmptySample,
    DegenerateGrid,
)
