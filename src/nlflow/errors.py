"""The package's two errors, one for each of the CLI's failure exit codes:
a `ConfigError` exits 2 (the config was refused), and any other
`NlflowError` exits 3 (a run aborted).  Each message names what went wrong.
"""


class NlflowError(Exception):
    """A library error: the CLI exits 3 on it."""


class ConfigError(NlflowError):
    """A refused config; the message lists every violation.  Exits 2."""


def violations(*rules) -> list:
    """(field, error) pairs of the broken (field, holds, message) rules."""
    return [(field, NlflowError(message))
            for field, holds, message in rules if not holds]


def raise_first(found: list) -> None:
    """Raise the error of the first (field, error) pair, if there is one."""
    if found:
        raise found[0][1]
