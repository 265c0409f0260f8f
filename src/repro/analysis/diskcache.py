"""Content-addressed on-disk analysis cache.

Batch repair runs the same whole-program analyses again and again: a
corpus batch rebuilds each case's module in a fresh worker process, and
``module:trace`` tasks repairing one module against many traces re-solve
the same Andersen fixpoint per task.  The fixpoint is a pure function of
module *content*, so its solution can be shared across processes through
a content-addressed store: ``<dir>/<module fingerprint>.json`` holds the
serialized points-to solution plus the call-graph edge summary, and any
worker whose module prints to the same bytes can reuse it.

Two representation problems make this more than ``json.dumps``:

- **Values are process-local.**  The solution maps IR values to site
  masks, and some sites are keyed by instruction id, but instruction
  ids depend on per-process allocation order.  Values are therefore
  serialized as stable *paths* — ``i:<fn>:<block#>:<instr#>`` for
  instructions, ``a:<fn>:<arg#>`` for arguments — and translated back
  to the loading process's local objects (and local ids) on restore.
  Identical fingerprints guarantee the paths resolve.
- **The UNKNOWN site is a singleton.**  Classifiers compare it by
  identity, so restore maps the ``unknown`` key back to
  :data:`~repro.analysis.andersen.UNKNOWN_SITE` itself, never a copy.

An entry stores the site list in bit order (UNKNOWN first) and every
mask as a lowercase hex string — the value masks under their paths, the
heap masks under their site's bit position — so restoring is
``int(text, 16)`` per mask, with no set to rebuild.  Globals are not
stored: every global points to its own site, re-derived on restore.

Writes go through :func:`~repro.fsutil.atomic_write_text`, so two
workers racing to populate the same fingerprint both land a complete
entry and a crash mid-write never tears one.  A corrupt, stale-schema,
malformed or mismatched entry loads as a miss, never an error: the
loader checks the shape of every field, so a bad mask fails the load
rather than a later query.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional, Tuple

from ..fsutil import atomic_write_text
from ..ir.module import Module
from ..ir.values import GlobalVariable, Value
from .andersen import AllocSite, PointsTo, UNKNOWN_SITE
from .callgraph import CallGraph

#: on-disk schema tag (bump on any format change; old entries become misses)
SCHEMA = "repro-analysis-cache-v2"

#: allocation-site keys that embed a process-local instruction id
_IID_SITE = re.compile(r"^(alloca|call):(\d+)$")

#: a serialized mask: nonempty lowercase hex, so never negative
_HEX = re.compile(r"[0-9a-f]+")


class _Unserializable(Exception):
    """The solution references values outside the module (uncacheable)."""


def _value_index(module: Module):
    """Stable path maps for a module's values.

    Returns ``(to_path, from_path, iid_to_path)`` where paths are
    ``a:<fn>:<arg#>`` / ``i:<fn>:<block#>:<instr#>`` — positional, so
    equal-content modules in different processes agree on them.
    """
    to_path: Dict[int, str] = {}
    from_path: Dict[str, Value] = {}
    iid_to_path: Dict[int, str] = {}
    for fn in module.functions.values():
        for ai, arg in enumerate(fn.args):
            path = f"a:{fn.name}:{ai}"
            to_path[id(arg)] = path
            from_path[path] = arg
        for bi, block in enumerate(fn.blocks):
            for ii, instr in enumerate(block.instructions):
                path = f"i:{fn.name}:{bi}:{ii}"
                to_path[id(instr)] = path
                from_path[path] = instr
                iid_to_path[instr.iid] = path
    return to_path, from_path, iid_to_path


def serialize_points_to(points_to: PointsTo) -> Dict:
    """The JSON form of a solved :class:`PointsTo` (see module docs)."""
    to_path, _, iid_to_path = _value_index(points_to.module)

    def descriptor(site: AllocSite) -> List[str]:
        match = _IID_SITE.match(site.key)
        if match:
            path = iid_to_path.get(int(match.group(2)))
            if path is None:
                raise _Unserializable(f"site {site.key} not in module")
            return ["instr", match.group(1), path, site.space]
        return ["key", site.key, site.space]

    var: Dict[str, str] = {}
    for value, mask in points_to._var.items():
        if isinstance(value, GlobalVariable):
            continue
        path = to_path.get(id(value))
        if path is None:
            raise _Unserializable(f"value {value!r} not in module")
        var[path] = format(mask, "x")
    return {
        "sites": [descriptor(site) for site in points_to._site_list],
        "var": var,
        "heap": [
            [bit, format(mask, "x")]
            for bit, mask in sorted(points_to._heap.items())
        ],
    }


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(f"malformed analysis-cache entry: {what}")


def _is_strings(row, length: int) -> bool:
    return (
        isinstance(row, list)
        and len(row) == length
        and all(isinstance(item, str) for item in row)
    )


def _restore_site(desc, from_path: Dict[str, Value]) -> AllocSite:
    if _is_strings(desc, 4) and desc[0] == "instr":
        _, prefix, path, space = desc
        _expect(prefix in ("alloca", "call"), f"site prefix {prefix!r}")
        _expect(path.startswith("i:"), f"site path {path!r}")
        return AllocSite(f"{prefix}:{from_path[path].iid}", space)
    _expect(_is_strings(desc, 3) and desc[0] == "key", f"site {desc!r}")
    _, key, space = desc
    _expect(not _IID_SITE.match(key), f"site key {key!r} names an iid")
    if key == UNKNOWN_SITE.key:
        _expect(space == UNKNOWN_SITE.space, "UNKNOWN site space")
        return UNKNOWN_SITE
    return AllocSite(key, space)


def _restore_mask(text, width: int) -> int:
    _expect(isinstance(text, str) and _HEX.fullmatch(text) is not None, "mask")
    mask = int(text, 16)
    _expect(mask >> width == 0, "mask names a bit past the site list")
    return mask


def restore_points_to(module: Module, data: Dict) -> PointsTo:
    """Translate a serialized solution back onto ``module``'s values.

    Raises ValueError (or KeyError, for a path or global the module
    lacks) on a malformed entry, so a bad mask can never surface later
    as a wrong or failing query.
    """
    _expect(isinstance(data, dict), "points_to is not an object")
    site_rows, var_rows, heap_rows = data["sites"], data["var"], data["heap"]
    _expect(isinstance(site_rows, list), "sites is not a list")
    _expect(isinstance(var_rows, dict), "var is not an object")
    _expect(isinstance(heap_rows, list), "heap is not a list")
    _, from_path, _ = _value_index(module)
    sites = [_restore_site(desc, from_path) for desc in site_rows]
    _expect(bool(sites) and sites[0] is UNKNOWN_SITE, "UNKNOWN is not bit 0")
    _expect(len({site.key for site in sites}) == len(sites), "duplicate site")
    width = len(sites)
    points_to = PointsTo.__new__(PointsTo)
    points_to._reset(module, sites)
    for path, text in var_rows.items():
        points_to._var[from_path[path]] = _restore_mask(text, width)
    for row in heap_rows:
        _expect(isinstance(row, list) and len(row) == 2, f"heap row {row!r}")
        bit, text = row
        _expect(type(bit) is int and 0 <= bit < width, f"heap bit {bit!r}")
        points_to._heap[bit] = _restore_mask(text, width)
    return points_to


def _restore_summary(summary) -> Dict[str, List[str]]:
    _expect(isinstance(summary, dict), "callgraph is not an object")
    for callees in summary.values():
        _expect(
            isinstance(callees, list)
            and all(isinstance(name, str) for name in callees),
            "callgraph callees",
        )
    return summary


class AnalysisDiskCache:
    """A directory of ``<fingerprint>.json`` analysis entries."""

    def __init__(self, directory: str):
        self.directory = directory

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, f"{fingerprint}.json")

    def load(self, module: Module) -> Optional[Tuple[PointsTo, CallGraph]]:
        """The cached ``(points_to, callgraph)`` for this module's
        content, or None (missing, corrupt, or stale schema)."""
        try:
            with open(self._path(module.fingerprint())) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) or data.get("schema") != SCHEMA:
            return None
        try:
            points_to = restore_points_to(module, data["points_to"])
            summary = _restore_summary(data["callgraph"])
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        return points_to, CallGraph.from_summary(module, summary)

    def store(
        self, module: Module, points_to: PointsTo, callgraph: CallGraph
    ) -> bool:
        """Persist one solved entry; returns False if uncacheable."""
        fingerprint = module.fingerprint()
        try:
            payload = {
                "schema": SCHEMA,
                "fingerprint": fingerprint,
                "points_to": serialize_points_to(points_to),
                "callgraph": callgraph.summary(),
            }
        except _Unserializable:
            return False
        os.makedirs(self.directory, exist_ok=True)
        atomic_write_text(
            self._path(fingerprint), json.dumps(payload, sort_keys=True)
        )
        return True
