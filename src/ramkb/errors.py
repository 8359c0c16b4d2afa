"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4. Every input file is read through :func:`read_input`,
which maps a file that cannot be read onto one of them.
"""

from pathlib import Path


class RamError(Exception):
    pass


class ConfigError(RamError):
    """Invalid configuration: bad mode, bad hyperparameter, shape mismatch."""


class DataError(RamError):
    """Invalid or missing dataset input."""


class ParseError(DataError):
    """Malformed input line; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DimensionError(ConfigError, ValueError):
    """Operands with incompatible shapes."""


class NumericError(RamError):
    """Non-finite values encountered during training."""


def read_input(path, error: type[RamError]) -> bytes:
    """The bytes of the input file `path`. A file that cannot be read (missing,
    a directory, not permitted) raises `error`, its message led by the path."""
    try:
        return Path(path).read_bytes()
    except IsADirectoryError:
        raise error(f"{path}: is a directory") from None
    except OSError as exc:
        raise error(f"{path}: {exc.strerror}") from None
