"""Shared exception base classes.

Every error raised by this package derives from :class:`FogGridError` so
callers (and the CLI) can distinguish our failures from genuine bugs.
"""


class FogGridError(Exception):
    """Base class for all foggrid errors."""


class _ProblemsError(FogGridError):
    """An error that lists every problem found, one line of text each, in
    ``problems``; its message joins the lines with ``"; "``."""

    def __init__(self, problems):
        self.problems: list[str] = list(problems)
        super().__init__("; ".join(self.problems))


class ConfigError(_ProblemsError):
    """A scenario configuration is malformed or inconsistent.

    Each problem line is prefixed with its location in the config, or,
    for a topology rule, with the rule's name.
    """


def shown(value, text=repr) -> str:
    """``text(value)`` for a problem line, except that an integer with more
    digits than Python converts to text (``sys.get_int_max_str_digits``)
    is shown by its size, as in ``an integer of 16,610 bits``."""
    try:
        return text(value)
    except ValueError:
        if isinstance(value, int):
            sign = "a negative" if value < 0 else "an"
            return f"{sign} integer of {abs(value).bit_length():,} bits"
        return f"a {type(value).__name__} holding an integer too long to print"
