"""Exception types shared across the package."""


class RankMismatchError(ValueError):
    """Two words from free groups of different rank were combined."""


class PrefixTooShortError(ValueError):
    """A boundary-point prefix is too short to decide the requested quantity.

    Recoverable: extend the prefix and retry.
    """


class PathTooShortError(ValueError):
    """A ray path is too short to decide membership; extend and retry."""


class ResourceBudgetError(RuntimeError):
    """An enumeration or simulation would exceed the configured budget."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""

    def __init__(self, message, offending_keys=()):
        super().__init__(message)
        self.offending_keys = list(offending_keys)
