"""Exception types shared across the package.

Each error carries the process exit code the CLI maps it to:
1 usage, 2 parse, 3 capacity, 4 internal invariant. Every parsed CNF
formula compiles, constant ones included, so compiling has no error of its
own: only capacity, or an invariant if the compiler is wrong.
"""


class DistGroverError(Exception):
    exit_code = 4


class UsageError(DistGroverError):
    """Bad arguments or parameters."""

    exit_code = 1


class ParseError(DistGroverError):
    """Malformed input file; its message starts with `line N: ` when the
    1-based line is known."""

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CapacityError(DistGroverError):
    """Requested simulation exceeds the supported qubit budget."""

    exit_code = 3


class InvariantError(DistGroverError):
    """An internal consistency check failed (simulator bug)."""

    exit_code = 4
