"""In-memory spans around minfrac's layer boundaries, for the traced run.

Spans are recorded by wrappers that live in the benchmark: `instrument`
swaps them in for the names `minfrac.cli` and `minfrac.harness` import from
the layer modules, and restores the originals on exit.  The raw walk
`descent_steps` is a generator, so it is not wrapped: a span around it would
also time whoever consumes it.  Its cost is measured directly instead.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# Names imported by minfrac.cli / minfrac.harness, and the span each becomes.
CLI_LAYERS = {
    "run_descent": "descent.run_descent",
    "minimum_fraction": "minimality.minimum_fraction",
    "sqrt_bound_witness": "minimality.sqrt_bound_witness",
    "brute_minimum": "oracle.brute_minimum",
}
HARNESS_LAYERS = {
    **CLI_LAYERS,
    "is_minimal_pair": "minimality.is_minimal_pair",
    "brute_pair_minimal": "oracle.brute_pair_minimal",
}


class Tracer:
    """Records spans (name, start, end, parent, request) in memory.

    Times are perf_counter_ns values; parent is the index of the enclosing
    span in `spans`, or -1 for a root.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = 0
        self._open: list[int] = []

    def _start(self, name: str) -> list:
        record = [name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1, self.request]
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _end(self, record: list) -> None:
        record[2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = self._start(name)
        try:
            yield
        finally:
            self._end(record)

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            record = self._start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(record)

        return traced

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (total ns, self ns, count).

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap, since one thread runs them.
        """
        child_ns = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            acc = out[name]
            acc[0] += end - start
            acc[1] += end - start - covered
            acc[2] += 1
        return {name: tuple(acc) for name, acc in out.items()}

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for record in self.spans:
                fh.write("\t".join(map(str, record)) + "\n")


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Swap traced wrappers into minfrac.cli and minfrac.harness."""
    import minfrac.cli as cli
    import minfrac.harness as harness

    run_checks = cli.run_checks

    def run_checks_per_check(config):
        # One span per check; the reports are the same as for the full config.
        reports = []
        for check in config.checks:
            with tracer.span(f"harness.{check}"):
                reports.extend(run_checks(dataclasses.replace(config, checks=(check,))))
        return tuple(reports)

    patches = [(cli, attr, tracer.wrap(span, getattr(cli, attr))) for attr, span in CLI_LAYERS.items()]
    patches += [(harness, attr, tracer.wrap(span, getattr(harness, attr)))
                for attr, span in HARNESS_LAYERS.items()]
    patches.append((cli, "run_checks", run_checks_per_check))
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, replacement in patches:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
