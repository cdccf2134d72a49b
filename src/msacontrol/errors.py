"""Exception types shared across the solver stack."""


class ConfigurationError(ValueError):
    """Invalid problem setup, dimensions, or run parameters."""


class EvaluationError(RuntimeError):
    """A user-supplied coefficient produced a non-finite or malformed value."""


class _Located(RuntimeError):
    """``path`` and ``step`` hold the indices the message names, if the raiser knows them."""

    def __init__(self, message: str, path: int | None = None, step: int | None = None):
        super().__init__(message)
        self.path = path
        self.step = step


class SimulationError(_Located):
    """Path simulation blew up; message carries path/step indices."""


class NumericalError(_Located):
    """A linear-algebra, overflow or non-finite failure inside a solver."""
