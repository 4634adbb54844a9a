"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid, noise, model, or solver configuration."""


class SimulationError(RuntimeError):
    """A forward simulation produced a non-finite or inadmissible value."""


class RegistrationError(ValueError):
    """A coefficient model failed its self-test at registration time."""


class RegressionError(RuntimeError):
    """A least-squares conditional expectation could not be fitted."""


class CalibrationError(RuntimeError):
    """The calibration bracket of the wealth constant does not straddle the root."""
