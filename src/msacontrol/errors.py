"""Exception types shared across the solver stack."""


class ConfigurationError(ValueError):
    """Invalid problem setup, dimensions, or run parameters."""


class EvaluationError(RuntimeError):
    """A user-supplied coefficient produced a non-finite or malformed value."""


class SimulationError(RuntimeError):
    """Path simulation blew up; message carries path/step indices.

    ``path`` and ``step`` hold the same indices when the raiser knows them.
    """

    def __init__(self, message: str, path: int | None = None, step: int | None = None):
        super().__init__(message)
        self.path = path
        self.step = step


class NumericalError(RuntimeError):
    """A linear-algebra or overflow failure inside a solver."""
