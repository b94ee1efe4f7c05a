"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`ReservoirTTAError`
so callers can catch the whole family with one clause. The CLI maps these
onto its exit-code contract (1 = configuration, 2 = I/O, 3 = verification).
The only file the package reads is the YAML config: a config file that is
not valid UTF-8 YAML, or repeats a key, raises :class:`ConfigurationError`
(exit 1), one that cannot be opened an ``OSError`` (exit 2).
"""


class ReservoirTTAError(Exception):
    """Base class for all library errors."""


class InputDomainError(ReservoirTTAError):
    """An argument is outside the operation's domain (shape, range, finiteness)."""


class DegenerateBatchError(InputDomainError):
    """A batch is too small to carry the statistic being computed."""


class InsufficientDataError(ReservoirTTAError):
    """An operation needs more data than it was given."""


class NumericalError(ReservoirTTAError):
    """A computation produced non-finite values."""


class ConfigurationError(ReservoirTTAError):
    """A configuration value violates a documented precondition; ``problems``
    holds one message per broken rule (``"<field>: <rule>"`` from a config type)."""

    def __init__(self, *problems: str):
        super().__init__("; ".join(problems))
        self.problems = problems


def check_fields(*rules: tuple[str, bool, str]) -> None:
    """Raise one ConfigurationError naming every ``(field, holds, rule)`` that fails."""
    problems = [f"{name}: {rule}" for name, holds, rule in rules if not holds]
    if problems:
        raise ConfigurationError(*problems)


def encodes_as_utf8(text: str) -> bool:
    """Whether ``text`` holds no lone surrogate, so that it can name a file."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return False
    return True


class GenerationError(ReservoirTTAError):
    """Synthetic data generation could not satisfy its constraints."""


class TrainingError(ReservoirTTAError):
    """Source training diverged."""


class EndOfStream(ReservoirTTAError):
    """Requested a batch other than a domain stream's next one."""
