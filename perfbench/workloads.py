"""Workload table and seeded input generation.

Inputs come in mirrored pairs (the quantiles u and 1 - u) where u runs
through a randomly rotated van der Corput sequence. The seed picks the
rotation, so two seeds give different inputs, yet every even-length prefix
is symmetric about the median input and covers the range evenly. A run
that stops at its deadline after a whole pair therefore measures the same
mix of small and large inputs whatever the seed, which keeps the per-run
medians and means steady.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count, islice
from typing import Iterator


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "row": one k per op; "sweep": one verify window per op
    lo: int  # smallest k (row) or smallest window start (sweep)
    hi: int  # largest k (row) or largest window start (sweep)
    log_uniform: bool = False
    value: bool = False  # row: ask for the exact decimal value
    fresh: bool = False  # row: a fresh interpreter per op
    check: str = ""  # sweep: the verify check name
    width: int = 1  # sweep: inputs per window
    # Traced run: ops per second of --seconds, so that the traced run (probe,
    # untraced and traced pass per op) lasts about --seconds on 2 CPUs.
    trace_ops_per_second: float = 0.5

    def argv(self, value: int, jobs: int = 1) -> list[str]:
        """Command line of one op, as given to binomlcm.cli.main."""
        if self.kind == "row":
            return ["lcm-binom-row", str(value), *(["--value"] if self.value else []), "--json"]
        return ["verify", self.check, "--from", str(value), "--to", str(value + self.width - 1),
                "--jobs", str(jobs), "--json"]

    def warmup_argv(self, jobs: int) -> list[str] | None:
        """The discarded call made during set-up, or None for cold workloads.

        The warm row workload warms at the top of its range, so every prime a
        timed op needs is already in the program's primality cache.
        """
        if self.fresh:
            return None
        return self.argv(self.hi if self.kind == "row" else self.lo, jobs)

    def inputs(self, seed: int) -> Iterator[int]:
        """Endless seeded input sequence: k values or window starts."""
        offset = random.Random(f"inputs:{self.name}:{seed}").random()
        for i in count():
            u = (offset + van_der_corput(i)) % 1.0
            yield self._at(u)
            yield self._at(1.0 - u)

    def _at(self, u: float) -> int:
        """The input at quantile u of the workload's distribution."""
        if self.log_uniform:
            value = round(math.exp(math.log(self.lo) + u * math.log(self.hi / self.lo)))
        else:
            value = self.lo + int(u * (self.hi - self.lo + 1))
        return min(max(value, self.lo), self.hi)

    def first_inputs(self, seed: int, n: int) -> list[int]:
        return list(islice(self.inputs(seed), n))

    def inputs_per_op(self) -> int:
        return self.width if self.kind == "sweep" else 1


def van_der_corput(i: int) -> float:
    """Base-2 radical inverse of i: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    x, denominator = 0.0, 1.0
    while i:
        denominator *= 2.0
        i, bit = divmod(i, 2)
        x += bit / denominator
    return x


WORKLOADS = {
    w.name: w
    for w in (
        Workload("row-cold", "row", 100_000, 1_000_000, log_uniform=True, fresh=True,
                 trace_ops_per_second=0.32),
        Workload("row-value-warm", "row", 100_000, 400_000, value=True,
                 trace_ops_per_second=0.4),
        Workload("sweep-theorem1", "sweep", 800, 1600, check="theorem1", width=32,
                 trace_ops_per_second=0.8),
        Workload("sweep-prop1", "sweep", 300, 1500, check="prop1", width=32,
                 trace_ops_per_second=0.56),
    )
}
