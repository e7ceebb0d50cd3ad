"""Exception types shared across the simulator."""


class PvIslandError(Exception):
    """Base class for all simulator errors."""


class ConfigurationError(PvIslandError):
    """A parameter set or scenario file is invalid. Carries the offending key path."""

    def __init__(self, message, key=None):
        self.key = key
        super().__init__(message)

    def __str__(self):
        message = super().__str__()
        return message if self.key is None else f"{self.key}: {message}"


class FrameError(PvIslandError):
    """A two-axis vector was used in the wrong reference frame."""


class SimulationDivergence(PvIslandError):
    """Plant state left the physically plausible envelope; simulation aborted."""

    def __init__(self, message, t_last_good=None):
        self.t_last_good = t_last_good
        super().__init__(message)


class AnalysisError(PvIslandError):
    """A post-processing step could not produce a meaningful result."""
