"""Open XXZ spin chain with diagonal boundaries: transfer matrices, a
convergent Q-operator on a truncated q-oscillator space, the functional
relation between them, and Bethe-root extraction cross-checked by the
algebraic Bethe ansatz."""

from .chain import ChainParams, sample_params
from .bethe import BetheRootSet, SpectrumRecord
from .verify import CheckResult, SUITES, run_suite

__all__ = [
    "ChainParams",
    "sample_params",
    "BetheRootSet",
    "SpectrumRecord",
    "CheckResult",
    "SUITES",
    "run_suite",
]
