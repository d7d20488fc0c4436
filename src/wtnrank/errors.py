"""Exception types shared across the package."""


class TradeDataError(ValueError):
    """Invalid or inconsistent trade input data."""


class ParseError(TradeDataError):
    """Malformed record in an input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConvergenceError(RuntimeError):
    """A numerical solve failed. An iterative solver passes `iterations` and
    `residual`, which end the message; a direct solve names its own quantity."""

    def __init__(self, message: str, iterations: int | None = None, residual: float | None = None):
        self.iterations = iterations
        self.residual = residual
        if iterations is not None:
            message = f"{message} (iterations={iterations}, residual={residual:.3e})"
        super().__init__(message)
