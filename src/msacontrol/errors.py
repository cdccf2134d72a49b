"""Exception types shared across the solver stack, and the checks that raise one."""

import numbers

import numpy as np


class ConfigurationError(ValueError):
    """Invalid problem setup, dimensions, or run parameters."""


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


def check_count(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError unless ``value`` is an integer (Python or numpy, not a
    bool) of at least ``minimum``: a float count would be truncated or fail later."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_seed(seed) -> None:
    """Raise ConfigurationError unless ``seed`` is an integer (Python or numpy, not a
    bool) in [0, 2**128), a Philox key: numpy refuses any other integer with a
    bare ValueError, and a float seed would be truncated."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or not 0 <= seed < 2 ** 128:
        raise ConfigurationError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def check_array(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a fresh float array of ``shape``, broadcast as numpy would; raise
    ConfigurationError naming ``name`` and the shape if it is not one (a callable is not)."""
    try:
        return np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"{name} must be a constant array of shape {shape}: {exc}") from None
