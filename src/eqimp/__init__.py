"""Decide implications between universally quantified equations over one
binary operation.

An implication "law A implies law B" holds when every magma satisfying A
satisfies B.  The package refutes implications with verified finite
countermodels, proves them with a unit-equality saturation prover, runs a
staged schedule of both engines over all ordered pairs of a corpus, closes
the results under implication transitivity, and reports summary tables and
runtime histograms.
"""

import importlib

# each name the package exports, by the module that defines it; a name is
# imported when first asked for, so "import eqimp" loads no submodule and a
# command loads only the modules it runs
_EXPORTS = {
    "FOUND": "models",
    "PROVED": "saturation",
    "find_countermodel": "models",
    "parse_equation": "terms",
    "replay_proof": "saturation",
    "saturate": "saturation",
    "saturate_many": "saturation",
    "skolemize": "tptp",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
