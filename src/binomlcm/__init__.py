"""Exact lcm identities for binomial coefficient rows.

The lcm of the row C(k, 0), ..., C(k, k) equals lcm(1, ..., k+1) / (k+1);
this package computes both sides independently (a fast path dividing the
power-fit prime map of lcm(1..k+1) by k+1, and a big-integer fold oracle),
exposes the underlying p-adic valuation machinery, and ships a
verification harness plus CLI that sweep the identities and the classical
2^(n-1) <= lcm(1..n) <= 3^n bounds.
"""

# Each module's __all__ is its one list of public names; republish them.
from .errors import *
from .exact import *
from .identities import *
from .padic import *
from .verify import *

__version__ = "0.1.0"
