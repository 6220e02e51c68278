"""Exception types shared across the package."""


class PostpertError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PostpertError):
    """Array shapes are inconsistent with the operation's contract."""


class NotSpd(PostpertError):
    """A matrix required to be symmetric positive definite is not."""


class ConvergenceFailure(PostpertError):
    """An iterative linear-algebra kernel failed to converge."""


class EmptyBasis(PostpertError):
    """A truncation rule retained no modes."""


class SolverFailure(PostpertError):
    """A model solve failed (non-finite data, factorization breakdown, ...)."""


class Diverged(PostpertError):
    """Refinement update norms blew up.

    Carries the partial state so callers can inspect the history.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class DegenerateWeights(PostpertError):
    """All likelihood weights vanished; the ratio estimator is undefined."""


class CostGuard(PostpertError):
    """A deliberately bounded computation would exceed its budget."""


class PointOutsideMesh(PostpertError):
    """An evaluation point lies outside the triangulated domain."""


class NonPositiveState(PostpertError):
    """A population trajectory left the positive quadrant."""


class IoFailure(PostpertError):
    """Reading or writing an artifact on disk failed."""
