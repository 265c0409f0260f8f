"""Static analysis substrate: call graphs, Andersen points-to, and the
PM pointer classifiers feeding the hoisting heuristic."""

from .. import lazy_exports

_EXPORTS = {
    ".aliasing": ("PMClassification", "classify_full_aa", "classify_trace_aa"),
    ".andersen": ("AllocSite", "PointsTo", "UNKNOWN_SITE"),
    ".callgraph": ("CallGraph",),
    ".diskcache": ("AnalysisDiskCache",),
    ".manager": ("AnalysisManager", "CALLGRAPH", "POINTS_TO"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
