"""Package-wide exception types."""


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
