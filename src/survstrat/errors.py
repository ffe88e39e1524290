"""Exception taxonomy shared across the package.

Each class maps to one CLI exit code: usage/config -> 1, data -> 2,
numeric -> 3. Every input file is read through ``open_text``, directly or
by ``read_text`` or ``read_json``, so a missing, unreadable or undecodable
file maps to these in one place.
"""

import contextlib
import json


class SurvstratError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class UsageError(SurvstratError):
    """API misuse: bad argument values, wrong call order, missing files."""

    exit_code = 1


class ConfigurationError(SurvstratError):
    """Invalid configuration: incompatible shapes, flags, or weights."""

    exit_code = 1


class DataError(SurvstratError):
    """Malformed or inconsistent input data."""

    exit_code = 2


class NumericError(SurvstratError):
    """Non-finite values or numeric breakdown during computation."""

    exit_code = 3


@contextlib.contextmanager
def open_text(path: str, what: str, error: type[SurvstratError], newline: str | None = None,
              expected: str = "UTF-8 text"):
    """The file at ``path`` open for reading as UTF-8 text. A missing file, a
    directory, a file without read permission or bytes that do not decode,
    wherever the block reads them, raise ``error`` with one line naming
    ``what`` and ``path``; ``newline`` is passed to ``open``."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except FileNotFoundError:
        raise error(f"{what} not found: {path}")
    except (IsADirectoryError, PermissionError) as exc:
        raise error(f"{what} {path} cannot be read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not {expected}: {exc}")


def read_text(path: str, what: str, error: type[SurvstratError],
              expected: str = "UTF-8 text") -> str:
    """The whole file at ``path``, read through ``open_text``."""
    with open_text(path, what, error, expected=expected) as fh:
        return fh.read()


def read_json(path: str, what: str):
    """The JSON value in the file at ``path``; a file that is missing, does
    not decode or does not parse is a ConfigurationError (exit 1)."""
    text = read_text(path, what, ConfigurationError, expected="valid JSON")
    try:
        return json.loads(text)
    # json raises RecursionError on arrays or objects nested too deeply
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}")
