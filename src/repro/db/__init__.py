"""Database tier: shape records, persistence, the packed feature store."""

from .database import BulkInsertError, BulkInsertResult, ShapeDatabase
from .matrix_store import ColumnView, FeatureMatrixStore
from .quantized import QuantizedColumn, approx_weighted_sq_distances, quantize_matrix
from .records import ShapeRecord
from .storage import (
    DroppedRecord,
    PackedColumn,
    QuantizedSidecar,
    StorageError,
    load_packed_features,
    load_quantized_features,
    load_records,
    salvage_records,
    save_records,
    verify_database,
)

__all__ = [
    "ShapeDatabase",
    "ShapeRecord",
    "BulkInsertError",
    "BulkInsertResult",
    "FeatureMatrixStore",
    "ColumnView",
    "QuantizedColumn",
    "QuantizedSidecar",
    "approx_weighted_sq_distances",
    "quantize_matrix",
    "save_records",
    "load_records",
    "salvage_records",
    "verify_database",
    "load_packed_features",
    "load_quantized_features",
    "PackedColumn",
    "DroppedRecord",
    "StorageError",
]
