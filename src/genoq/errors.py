"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A register, model, or enumeration exceeds the configured size ceiling."""


class ShapeError(ValueError):
    """Mismatched dimensions between two objects (circuit vs state, key vs register, ...)."""


class ParseError(ValueError):
    """Malformed input text: a DNA sequence, a model file or instance JSON."""


class SequenceParseError(ParseError):
    """Invalid character in a DNA sequence; carries the 1-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class NormalizationError(RuntimeError):
    """State-vector norm drifted beyond tolerance after a gate application."""


class InfeasibleBudgetError(ValueError):
    """A runtime budget cannot be met even at circuit depth 1."""
