"""Exception hierarchy shared by every subsystem.

Each error carries a stable string ``code`` so the wire protocol can pass
failures between processes without losing their identity: the client looks
the code up in ``ERROR_BY_CODE`` and re-raises the same class the local
engine would have raised.
"""

from __future__ import annotations


class ForgeError(Exception):
    """Base class for all domain errors."""

    code = "error"

    def __init__(self, message: str = "", **data):
        super().__init__(message)
        self.message = message
        self.data = data


class InvalidArgument(ForgeError):
    code = "invalid_argument"


class DuplicateKey(ForgeError):
    code = "duplicate_key"


class NotFound(ForgeError):
    code = "not_found"


class PayloadTooLarge(ForgeError):
    code = "payload_too_large"


class ReservedKey(InvalidArgument):
    code = "reserved_key"


class StorageFull(ForgeError):
    code = "storage_full"


class EmptyBlob(InvalidArgument):
    code = "empty_blob"


class ChecksumMismatch(ForgeError):
    """Blob bytes on disk do not match the pointer's digest; never silent."""

    code = "checksum_mismatch"


class CorruptStore(ForgeError):
    code = "corrupt_store"


class StoreLocked(ForgeError):
    code = "store_locked"


class QuerySyntaxError(ForgeError):
    """Parse failure; ``offset`` is the byte offset into the UTF-8 source."""

    code = "query_syntax"

    def __init__(self, message: str, offset: int = 0, expected: tuple[str, ...] = ()):
        super().__init__(message, offset=offset, expected=list(expected))
        self.offset = offset
        self.expected = tuple(expected)


class MixedVariantSet(QuerySyntaxError):
    code = "mixed_variant_set"


class ViewNotFound(ForgeError):
    code = "view_not_found"


class AlreadyAttached(ForgeError):
    code = "already_attached"


class ModelNotFound(ForgeError):
    code = "model_not_found"


class VersionNotFound(ForgeError):
    code = "version_not_found"


class ShapeMismatch(ForgeError):
    code = "shape_mismatch"


class InvalidSpec(ForgeError):
    code = "invalid_spec"


class DuplicateName(ForgeError):
    code = "duplicate_name"


class MissingBackward(ForgeError):
    code = "missing_backward"


class NonFiniteLoss(ForgeError):
    code = "non_finite_loss"


class CycleDetected(ForgeError):
    code = "cycle_detected"


class StaleLease(ForgeError):
    """The caller's lease expired or was superseded; its work must be discarded."""

    code = "stale_lease"


class TaskNotFound(ForgeError):
    code = "task_not_found"


class PlanNotFound(ForgeError):
    code = "plan_not_found"


class ConnectionLost(ForgeError):
    code = "connection_lost"


class ProtocolError(ForgeError):
    code = "protocol_error"


class FrameTooLarge(ProtocolError):
    code = "frame_too_large"


def _collect(cls, acc):
    for sub in cls.__subclasses__():
        acc[sub.code] = sub
        _collect(sub, acc)
    return acc


ERROR_BY_CODE: dict[str, type[ForgeError]] = _collect(ForgeError, {ForgeError.code: ForgeError})


def from_code(code: str, message: str, data: dict | None = None) -> ForgeError:
    """Rebuild an error from its wire representation."""
    cls = ERROR_BY_CODE.get(code, ForgeError)
    data = data or {}
    if issubclass(cls, QuerySyntaxError):
        return cls(message, offset=int(data.get("offset", 0)),
                   expected=tuple(data.get("expected", ())))
    err = cls(message)
    err.data = data
    return err
