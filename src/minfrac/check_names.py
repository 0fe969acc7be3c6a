"""Names of the `verify` checks, in report order.

A leaf module, so the CLI can list them in `verify --help` without importing
the harness that runs them.
"""

CHECK_NAMES = ("determinant", "minimality", "sqrt_bound", "progress", "agreement")
