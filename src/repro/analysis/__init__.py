"""Static analysis substrate: call graphs, Andersen points-to, and the
PM pointer classifiers feeding the hoisting heuristic."""

from .aliasing import PMClassification, classify_full_aa, classify_trace_aa
from .andersen import AllocSite, PointsTo, UNKNOWN_SITE, analyze
from .callgraph import CallGraph
from .diskcache import AnalysisDiskCache
from .manager import (
    AnalysisManager,
    AnalysisStats,
    CALLGRAPH,
    LOCATOR,
    POINTS_TO,
    classification_key,
)

__all__ = [
    "AllocSite",
    "analyze",
    "AnalysisDiskCache",
    "AnalysisManager",
    "AnalysisStats",
    "CallGraph",
    "CALLGRAPH",
    "classification_key",
    "classify_full_aa",
    "classify_trace_aa",
    "LOCATOR",
    "PMClassification",
    "POINTS_TO",
    "PointsTo",
    "UNKNOWN_SITE",
]
