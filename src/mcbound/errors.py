"""Exception types shared across the package, the check of every text
format that reports a non-ASCII byte as a ParseError at its line and
column, and ``_ascii_number``, the reader of every number in a text format
and of every integer flag of the CLI."""

# The white space of every text format, as ``bytes.strip`` strips it but for
# ``\n``, which ends a line and is the only character that does.
SPACE = " \t\r\v\f"


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


def _ascii_number(text):
    """The value of ``text`` when it is 1 to 18 ASCII digits, else None."""
    if text.isascii() and text.isdecimal() and len(text) <= 18:
        return int(text)
    return None


def ascii_line(line, lineno):
    """``line``, a line read as bytes, as str; a byte outside ASCII raises
    ParseError with its line and column."""
    try:
        return line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{line[exc.start]:02x} is not ASCII",
                         line=lineno, col=exc.start + 1) from None


def ascii_lines(text):
    """The ``(lineno, line)`` pairs of the non-blank lines of the str
    ``text``, numbered over every line, as they are read: only ``\\n`` ends a
    line, and a character outside ASCII raises the ParseError of its first
    UTF-8 byte in a file (``ascii_line``), once the lines before it are read."""
    lines = enumerate(text.split("\n"), 1)
    if not text.isascii():
        lines = ((lineno, ascii_line(line.encode("utf-8", "surrogatepass"), lineno))
                 for lineno, line in lines)
    return ((lineno, line) for lineno, line in lines if line.strip(SPACE))


def read_ascii(path):
    """The text of the file at ``path``, each line checked by
    ``ascii_line``; only ``\\n`` ends a line, as in every text format."""
    with open(path, "rb") as fh:
        return "".join([ascii_line(line, lineno) for lineno, line in enumerate(fh, 1)])
