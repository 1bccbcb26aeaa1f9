"""Independent reference implementations the tests check the engine against.

These deliberately share no code with the package: a straight-line predicate
evaluator, brute-force document filters, a version chain of every write, a
model of the store's reads, and central finite differences.
Expected values in the test suite come from these, never from the code under
test.
"""

from __future__ import annotations

import numpy as np


def variant(v):
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, float):
        return "float"
    return "str"


class OracleTypeError(Exception):
    pass


def oracle_predicate(tags: dict, tag: str, op: str, value) -> bool:
    """Straightforward re-implementation of predicate semantics."""
    if tag not in tags:
        return False
    actual = tags[tag]
    ref = value[0] if op == "IN" else value
    if variant(actual) != variant(ref):
        raise OracleTypeError(tag)
    if op == "IN":
        return any(actual == candidate for candidate in value)
    if op == "=":
        return actual == ref
    if op == "!=":
        return actual != ref
    if op == "<":
        return actual < ref
    if op == "<=":
        return actual <= ref
    if op == ">":
        return actual > ref
    if op == ">=":
        return actual >= ref
    raise AssertionError(f"bad op {op}")


def oracle_evaluate(preds: list[tuple], tags: dict) -> bool:
    """Conjunction with the same eager type-check-all-predicates rule."""
    mismatch = False
    result = True
    for tag, op, value in preds:
        try:
            if not oracle_predicate(tags, tag, op, value):
                result = False
        except OracleTypeError:
            mismatch = True
    if mismatch:
        raise OracleTypeError()
    return result


def brute_force_filter(docs: dict[str, dict], preds: list[tuple]) -> list[str]:
    """Keys of matching docs in ascending key order; docs is key -> tag map."""
    out = []
    for key in sorted(docs):
        if oracle_evaluate(preds, docs[key]):
            out.append(key)
    return out


def brute_force_scan(docs: dict[str, dict], preds: list[tuple]) -> list[str]:
    """Keys a scan returns: like brute_force_filter, but a document whose tag
    holds another variant than the literal does not match instead of
    raising."""
    out = []
    for key in sorted(docs):
        try:
            if oracle_evaluate(preds, docs[key]):
                out.append(key)
        except OracleTypeError:
            pass
    return out


class VersionChain:
    """Every version ever written of every key, read as a snapshot.

    Seqs are counted here, one per document put and one per group commit,
    as the store hands them out. A commit folds in the versions still
    pending under its group, and only those: a version staged under the
    group after it waits for the group's next commit. At a snapshot a key
    shows its newest version written at or before it; a staged version
    shows only once the commit that folded it is at or before the snapshot
    too.
    """

    def __init__(self):
        self.seq = 0
        # key -> [seq, group, seq of the commit that folded it in or None]
        self.versions: dict[str, list[list]] = {}

    def put(self, key: str, group: str | None = None) -> None:
        self.seq += 1
        self.versions.setdefault(key, []).append([self.seq, group, None])

    def commit(self, group: str) -> None:
        self.seq += 1
        for versions in self.versions.values():
            for version in versions:
                if version[1] == group and version[2] is None:
                    version[2] = self.seq

    def visible_keys(self, snapshot: int) -> list[str]:
        out = []
        for key in sorted(self.versions):
            newest = None
            for version in self.versions[key]:
                if version[0] <= snapshot:
                    newest = version
            if newest is None:
                continue
            _, group, folded = newest
            if group is None or (folded is not None and folded <= snapshot):
                out.append(key)
        return out


class StoreModel:
    """A document store's reads, kept as a map of each key's newest version.

    The write rule, one op at a time: a reserved key (``__sys/``) is never
    staged and every put replaces it; any other key takes an unstaged put
    only when it holds no version, and a staged put only when it holds none
    or one still staged. Seqs are counted one per document put and one per
    group commit. A commit folds every version still staged under its group
    into a visible one that takes the commit's seq. Records replayed from an
    older log (``replay_put``, ``replay_delete``) carry their own seq and
    bypass the rule.
    """

    RESERVED = "__sys/"

    def __init__(self):
        self.seq = 0
        # key -> [document, staging group or None, seq, arrived_ms]; None once deleted
        self.versions: dict[str, list | None] = {}

    def accepts(self, ops: list[tuple]) -> bool:
        """Whether the rule takes ``ops`` (``("put", group, docs)`` or
        ``("commit", group)``) applied in turn."""
        staged = {key: v[1] for key, v in self.versions.items() if v is not None}
        for op in ops:
            if op[0] == "commit":
                staged = {key: None if group == op[1] else group
                          for key, group in staged.items()}
                continue
            _, group, docs = op
            for doc in docs:
                if doc.key.startswith(self.RESERVED):
                    if group is not None:
                        return False
                    continue
                if doc.key in staged and (group is None or staged[doc.key] is None):
                    return False
                staged[doc.key] = group
        return True

    def apply(self, ops: list[tuple], arrived_ms: int) -> None:
        for op in ops:
            if op[0] == "commit":
                self.seq += 1
                for version in self.versions.values():
                    if version is not None and version[1] == op[1]:
                        version[1], version[2] = None, self.seq
                continue
            _, group, docs = op
            for doc in docs:
                self.seq += 1
                self.versions[doc.key] = [doc, group, self.seq, arrived_ms]

    def replay_put(self, seq: int, arrived_ms: int, group, doc) -> None:
        self.versions[doc.key] = [doc, group, seq, arrived_ms]
        self.seq = max(self.seq, seq)

    def replay_delete(self, seq: int, key: str) -> None:
        if key in self.versions:
            self.versions[key] = None
        self.seq = max(self.seq, seq)

    def visible(self, key: str):
        version = self.versions.get(key)
        return version if version is not None and version[1] is None else None

    def staged_keys(self, group: str) -> list[str]:
        return sorted(key for key, v in self.versions.items()
                      if v is not None and v[1] == group)

    def keys_with_prefix(self, prefix: str) -> list[str]:
        return sorted(key for key in self.versions
                      if key.startswith(prefix) and self.visible(key) is not None)

    def scan(self, preds: list[tuple]) -> list[str]:
        docs = {key: self.visible(key)[0].tags for key in self.versions
                if not key.startswith(self.RESERVED) and self.visible(key) is not None}
        return brute_force_scan(docs, preds)


def finite_difference_grads(loss_of_params, params: dict[str, np.ndarray],
                            h: float = 1e-4) -> dict[str, np.ndarray]:
    """Central differences of a scalar function of named parameter arrays.

    ``loss_of_params(params) -> float`` must not mutate its argument.
    """
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_of_params(params)
            flat[i] = orig - h
            down = loss_of_params(params)
            flat[i] = orig
            gflat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1e-6, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
