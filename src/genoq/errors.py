"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A register, model, or enumeration exceeds the configured size ceiling."""


class ParseError(ValueError):
    """Malformed input text: a DNA sequence, a model file or instance JSON."""


class NormalizationError(RuntimeError):
    """State-vector norm drifted beyond tolerance after a gate application."""
