"""Exception types shared across the package, and the text-file reader
that reports a non-ASCII byte as a ParseError."""


class CircuitError(ValueError):
    """Raised when a circuit or topology value violates its invariants."""


class CapacityError(RuntimeError):
    """Raised when a request exceeds a configured size or budget cap."""


class ContractError(ValueError):
    """Raised when an operation's precondition does not hold."""


class ParseError(ValueError):
    """Raised on malformed text input; carries a 1-based line number."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None and col is not None:
            message = f"line {line}, col {col}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_ascii(path):
    """The text of the file at ``path``; a byte outside ASCII raises
    ParseError with its line and column, counted as the parsers count."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lines = (data[:exc.start].decode("ascii") + "?").splitlines()
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not ASCII",
                         line=len(lines), col=len(lines[-1])) from None
