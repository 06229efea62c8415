"""Feasibility analysis for approximate multi-metric group fairness.

Quantifies when FPR/FNR/ACC or FPR/FNR/PPV parity within tolerances is
achievable for binary classifiers: closed-form region sizing,
exhaustive discretized enumeration, dot-planimeter estimates, dataset
feasibility reports, and an exact resource-constrained selection
solver.

The submodules are the public surface; each object has one name,
`fairfeas.<module>.<name>` (for example `from fairfeas.region import
heatmap`). `import fairfeas` loads no submodule: `fairfeas.region` and
the others are imported on first attribute access, so a caller pays
for numpy only when it reaches `region`, `planimeter` or `pgm`.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "cli",
    "data",
    "errors",
    "metrics",
    "pgm",
    "planimeter",
    "region",
    "relations",
    "selection",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
