"""Multidimensional indexing: the paper's R-tree and a linear baseline.

Neither sits on the query path (searches scan the packed store, see
:mod:`repro.search.engine`); they back the paper's index-efficiency
experiments and the R-tree tests.
"""

from .bruteforce import LinearScanIndex
from .rect import Rect, bounding_rect
from .rtree import DEFAULT_MAX_ENTRIES, RTree

__all__ = [
    "Rect",
    "bounding_rect",
    "RTree",
    "LinearScanIndex",
    "DEFAULT_MAX_ENTRIES",
]
