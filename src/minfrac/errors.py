"""Package-wide exception types, and the ceiling policy behind CeilingExceeded.

check_ceiling is every gate in the package: the oracle's brute-force scans,
the CLI's trace and table sizes, and `verify`'s modulus range.  The policy
lives here, next to the exception it raises, so a command that only holds a
size to a ceiling loads no oracle.  So do the oracle's two scan gates,
check_pair_ceiling and check_minimum_ceiling, which callers also hold before
their own work: `verify` before it sweeps, `table --cross-check` before its
sieve.
"""

import os

DEFAULT_ENUMERATION_CEILING = 10**6
DEFAULT_PAIR_CHECK_CEILING = 10**4

# Environment override for the default ceilings (every gate); explicit
# `ceiling=` arguments still win over it.
CEILING_ENV_VAR = "MINFRAC_CEILING"


class InvariantError(RuntimeError):
    """A mathematical invariant the library guarantees was observed to fail.

    This should never happen; it indicates a bug (or a falsified theorem)
    and is surfaced loudly rather than swallowed.
    """


class CeilingExceeded(RuntimeError):
    """An operation was asked to run beyond its configured ceiling.

    Raised instead of silently starting a computation that may take hours.
    `size` is the quantity held against the ceiling, which `what` names:
    the modulus of a brute-force scan or the pair count of a trace.
    """

    def __init__(self, size: int, ceiling: int, what: str):
        super().__init__(
            f"{what} {size} exceeds the ceiling {ceiling}; "
            f"raise the ceiling explicitly to proceed"
        )
        self.size = size
        self.ceiling = ceiling
        self.what = what

    def __reduce__(self):
        # Rebuilt from its fields, so it survives the trip back from a worker process.
        return type(self), (self.size, self.ceiling, self.what)


def resolve_ceiling(explicit: int | None, default: int) -> int:
    """The ceiling in force: `explicit` if given, else $MINFRAC_CEILING, else `default`."""
    if explicit is not None:
        return explicit
    env = os.environ.get(CEILING_ENV_VAR)
    if env is None:
        return default
    try:
        return int(env, 0)
    except ValueError:
        raise ValueError(
            f"{CEILING_ENV_VAR}={env!r} is not an integer (decimal or 0x hex)"
        ) from None


def check_ceiling(size: int, explicit: int | None, default: int, what: str) -> None:
    """Raise CeilingExceeded if size is above the resolved ceiling.

    The ceiling is `explicit` if given, else $MINFRAC_CEILING, else `default`.
    """
    ceiling = resolve_ceiling(explicit, default)
    if size > ceiling:
        raise CeilingExceeded(size, ceiling, what)


def check_pair_ceiling(m: int, ceiling: int | None = None) -> None:
    """The pair-minimality gate: raise CeilingExceeded if modulus m is above its ceiling."""
    check_ceiling(m, ceiling, DEFAULT_PAIR_CHECK_CEILING, "pair-minimality check: modulus")


def check_minimum_ceiling(m: int, ceiling: int | None = None) -> None:
    """The brute-force minimum's gate: raise CeilingExceeded if modulus m is above its ceiling."""
    check_ceiling(m, ceiling, DEFAULT_ENUMERATION_CEILING, "minimum enumeration: modulus")
