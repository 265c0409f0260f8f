"""The bug corpus: the Fig. 1 study dataset and the 23 reproduced,
executable durability bugs with developer-fix metadata."""

from .. import lazy_exports

_EXPORTS = {
    ".bugs": (
        "BugCase", "all_cases", "memcached_case", "pclht_case", "pmdk_cases",
        "total_expected_bugs",
    ),
    # The fix-kind vocabulary lives with the fix classes it describes.
    "..core.fixes": (
        "EQUIVALENT_PORTABLE", "IDENTICAL", "INTERPROC_FLUSH",
        "INTERPROC_FLUSH_FENCE", "INTRAPROC_FENCE", "INTRAPROC_FLUSH",
        "INTRAPROC_FLUSH_FENCE", "classify_fix", "compare_fix_kinds",
    ),
    ".study": (
        "API_MISUSE", "CORE_LIBRARY", "REPRODUCED_ISSUES", "STUDY",
        "StudyRecord", "fig1_table", "group_stats", "overall_stats",
        "records_with_stats",
    ),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
__all__ = [name for names in _EXPORTS.values() for name in names]
