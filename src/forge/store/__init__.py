from forge.store.store import CommitGroupOp, PutOp, Store, StoreOp
from forge.store.types import (
    CHUNK_SIZE,
    CODEC_NONE,
    CODEC_ZLIB,
    DEFAULT_INLINE_THRESHOLD,
    SYSTEM_PREFIX,
    BlobPointer,
    Document,
    ScanCursor,
)

__all__ = [
    "BlobPointer",
    "CHUNK_SIZE",
    "CODEC_NONE",
    "CODEC_ZLIB",
    "CommitGroupOp",
    "DEFAULT_INLINE_THRESHOLD",
    "Document",
    "PutOp",
    "ScanCursor",
    "Store",
    "StoreOp",
    "SYSTEM_PREFIX",
]
