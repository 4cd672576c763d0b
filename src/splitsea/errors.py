"""Exception types shared across the splitsea package."""


class SplitSeaError(Exception):
    """Base class for all numerical / domain failures raised by splitsea."""


class SolverFailure(SplitSeaError):
    """Root polishing did not converge to the requested residual."""


class DegenerateEdge(SplitSeaError):
    """The dispersion is constant (all hopping weights zero)."""


class OracleMismatch(SplitSeaError):
    """Two supposedly-equivalent exact routes disagree beyond tolerance."""


class BandTooNarrow(SplitSeaError):
    """Fourier band of a symbol not captured after retries."""


class NoConvergence(SplitSeaError):
    """Contour quadrature did not stabilise within the node budget."""


class TruncationFailure(SplitSeaError):
    """Integrand tail bound unmet after enlarging the truncation window."""


class NodeCountInsufficient(SplitSeaError):
    """Nystrom Fredholm determinant unresolved: it moved under node doubling
    or came out non-positive."""


class UnsupportedEdge(SplitSeaError):
    """An edge limit law requested where the library has none: an edge whose
    maximizers have different orders, or one order but different constants
    d, so its law is no power of one F_{2m+1}."""


class NotPositiveDefinite(SplitSeaError):
    """A CDF table's determinant matrix (the Toeplitz T_ell or the Fredholm
    I - K) failed Cholesky above its tolerance, or a Toeplitz row overshoots 1."""


class LeakageTooLarge(SplitSeaError):
    """Sampling window truncation leaks too much mass."""


class SubcriticalPhase(SplitSeaError):
    """Eigenvalue density requested below the critical coupling."""


class LawDataError(SplitSeaError):
    """The law-block file shipped with the package does not match the layout
    of ``airy``, or its panels do not meet."""
