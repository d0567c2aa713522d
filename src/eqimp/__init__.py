"""Decide implications between universally quantified equations over one
binary operation.

An implication "law A implies law B" holds when every magma satisfying A
satisfies B.  The package refutes implications with verified finite
countermodels, proves them with a unit-equality saturation prover, runs a
staged schedule of both engines over all ordered pairs of a corpus, closes
the results under implication transitivity, and reports summary tables and
runtime histograms.
"""

from .models import FOUND, find_countermodel
from .saturation import PROVED, replay_proof, saturate, saturate_many
from .terms import parse_equation
from .tptp import skolemize

__all__ = [
    "FOUND",
    "PROVED",
    "find_countermodel",
    "parse_equation",
    "replay_proof",
    "saturate",
    "saturate_many",
    "skolemize",
]
