"""Project-wide deterministic PRNG (xorshift64*).

Pure integer arithmetic so streams are identical across platforms and numpy
versions. Substreams are derived by hashing the parent seed with string
labels, which makes parameter initialization independent of layer order and
dropout masks a pure function of (seed, step, layer name).

``next_u64`` and ``random`` define the stream one draw at a time. The trainer
draws through ``fill_random`` and ``fill_uniform``, which return the same
values as n calls of ``random`` but compute them as numpy ``uint64`` blocks:

* **Layout.** A block of n draws is cut into chunks of ``LANES * STEPS``.
  In a chunk, lane j owns draws ``j*STEPS`` to ``j*STEPS + STEPS - 1``. All
  lanes step together ``STEPS`` times; the last chunk uses only the lanes it
  needs and keeps only the draws it asked for. Each chunk starts from the
  state where the last lane of the one before stopped, and after the block
  ``state`` is the state after the n-th draw, as if drawn one by one.
* **Why it is bit-exact.** The state update (three shift-xors) is linear
  over GF(2): with M its 64x64 bit matrix, the state after k draws is
  ``M^k s``. Lane j starts at ``M^(j*STEPS) s``, the xor of the columns
  ``M^(j*STEPS) e_b`` over the set bits b of s, read from a jump table
  (Haramoto et al. 2008, "Efficient jump ahead for F2-linear random number
  generators"). The multiply by ``_MULT`` mod 2^64, the ``>> 11`` and the
  exact scaling by 2^-53 act on each state alone, and ``lo + (hi - lo) * u``
  is the same float64 arithmetic numpy and Python both do.
* **The jump table** (``LANES`` x 64 words) is built by doubling on the first
  block draw in a process, not at import, in a few milliseconds. Two threads
  that race to build it build the same table, and either one may be kept.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717

STEPS = 16   # draws per lane in a chunk
LANES = 256  # lanes in a full chunk; a power of two

_BIT = np.arange(64, dtype=np.uint64)
_jumps: np.ndarray | None = None  # _jumps[j, b] = M^(j*STEPS) e_b


class XorShift64(object):
    def __init__(self, seed: int):
        seed &= _MASK
        if seed == 0:
            seed = 0x9E3779B97F4A7C15
        self.state = seed

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * _MULT) & _MASK

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def fill_random(self, n: int) -> np.ndarray:
        """The next n values of ``random()`` as one float64 array."""
        return (self._block(n) >> 11) * (2.0 ** -53)

    def fill_uniform(self, n: int, lo: float, hi: float) -> np.ndarray:
        """The next n values of ``lo + (hi - lo) * random()``."""
        return lo + (hi - lo) * self.fill_random(n)

    def _block(self, n: int) -> np.ndarray:
        """The next n values of ``next_u64()`` as one uint64 array."""
        table = _jump_table()
        out = np.empty(n, dtype=np.uint64)
        s = self.state
        for start in range(0, n, LANES * STEPS):
            count = min(LANES * STEPS, n - start)
            lanes = -(-count // STEPS)
            bits = ((np.uint64(s) >> _BIT) & 1).astype(bool)
            x = np.bitwise_xor.reduce(table[:lanes, bits], axis=1)  # M^(j*STEPS) s
            states = np.empty((lanes, STEPS), dtype=np.uint64)
            for t in range(STEPS):
                _step(x)
                states[:, t] = x
            out[start:start + count] = states.reshape(-1)[:count]
            s = int(out[start + count - 1])
        self.state = s
        out *= np.uint64(_MULT)
        return out


def _step(x: np.ndarray) -> None:
    """One xorshift state update of every word of ``x``, in place."""
    x ^= x >> 12
    x ^= x << 25
    x ^= x >> 27


def _apply(images: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``A v`` for each word v of ``vecs``, where ``images[b] = A e_b``, by
    byte tables: ``tables[k, c] = A (c << 8k)``, so ``A v`` is the xor of
    ``tables[k, byte k of v]`` over the 8 bytes."""
    bit_on = ((np.arange(256)[:, None] >> np.arange(8)) & 1).astype(bool)
    tables = np.bitwise_xor.reduce(
        np.where(bit_on, images.reshape(8, 1, 8), np.uint64(0)), axis=2)
    raw = np.ascontiguousarray(vecs, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = np.zeros(len(raw), dtype=np.uint64)
    for k in range(8):
        out ^= tables[k, raw[:, k]]
    return out.reshape(vecs.shape)


def _jump_table() -> np.ndarray:
    global _jumps
    if _jumps is None:
        basis = np.uint64(1) << _BIT
        jump = basis.copy()
        for _ in range(STEPS):
            _step(jump)  # the columns of M^STEPS
        table = basis[None, :]
        while len(table) < LANES:
            # rows m..2m-1 are M^(m*STEPS) times rows 0..m-1
            table = np.concatenate([table, _apply(jump, table)])
            jump = _apply(jump, jump)
        _jumps = table
    return _jumps


def derive_seed(*parts: int | str) -> int:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, int):
            h.update(b"i")
            h.update((part & _MASK).to_bytes(8, "little"))
        else:
            raw = part.encode("utf-8")
            h.update(b"s")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
    return int.from_bytes(h.digest()[:8], "little")
