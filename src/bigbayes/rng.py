"""Counter-based splittable random streams.

Every chain, worker, or speculative node owns a stream derived from a root
seed and a stable key, so draws are a function of (seed, key) alone and never
of evaluation order. This is what makes prefetched MH bit-exact with serial
MH and the simulated cluster deterministic.

Stream version 2: the stream of ``(seed, key)`` is a Philox4x64 generator
keyed by the first 128 bits of the sha256 fold of the seed and the key parts,
with counter 0, i.e. ``Generator(Philox(key=_fold(seed, key)))``. Each
``derive`` returns a fresh generator with its own bit generator.
"""

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["KeyedRng"]

_INT128_MIN, _INT128_END = -(2 ** 127), 2 ** 127
_WORD = 2 ** 64 - 1


def _int128(value, what: str, kinds: str = "an int") -> int:
    """``value`` as a Python int, if it is an integer (not a bool) in the
    signed 128-bit range; otherwise an error naming ``what`` and the value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be {kinds}, got {value!r} ({type(value).__name__})")
    v = int(value)
    if not _INT128_MIN <= v < _INT128_END:
        raise ValueError(f"{what} {value!r} is outside the signed 128-bit range")
    return v


def _key_bytes(part) -> bytes:
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, bytes):
        return b"b" + part
    v = _int128(part, "rng key part", "an int, str or bytes")
    return b"i" + v.to_bytes(16, "little", signed=True)


def _fold(seed: int, parts: tuple) -> int:
    h = hashlib.sha256()
    h.update(int(seed).to_bytes(16, "little", signed=True))
    for p in parts:
        b = _key_bytes(p)
        h.update(len(b).to_bytes(4, "little"))
        h.update(b)
    return int.from_bytes(h.digest()[:16], "little")


class _FoldedKey(ISeedSequence):
    """Hands a 128-bit folded key to ``Philox`` as its two 64-bit key words.

    ``Philox(_FoldedKey(k))`` is ``Philox(key=k)`` without the OS-entropy
    ``SeedSequence`` that the ``key=`` form builds and then ignores.
    """

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a folded rng key gives only generate_state(2, uint64), "
                             f"asked for generate_state({n_words!r}, {dtype!r})")
        return np.array([self.key & _WORD, self.key >> 64], dtype=np.uint64)


class KeyedRng:
    """Factory of independent ``numpy`` generators keyed by stable identifiers.

    ``derive(*key)`` returns a fresh generator on every call:
    ``Generator(Philox(key=_fold(seed, base + key)))`` at counter 0 (stream
    version 2, see the module docstring). Its stream depends only on the root
    seed and the accumulated key, so the same key yields bit-identical draws
    no matter how many times or in what order it is derived, and no two live
    generators share a bit generator.

    The seed must be an int or ``np.integer`` in the signed 128-bit range;
    key parts must be such ints, ``str`` or ``bytes``. Bools are rejected.
    """

    def __init__(self, seed: int, _base: tuple = ()):
        self.seed = _int128(seed, "KeyedRng seed")
        self._base = tuple(_base)

    def child(self, *key_parts) -> "KeyedRng":
        """Namespace: a KeyedRng whose keys are all prefixed by ``key_parts``."""
        for p in key_parts:
            _key_bytes(p)  # a bad part fails here, not at the first derive
        return KeyedRng(self.seed, self._base + key_parts)

    def derive(self, *key_parts) -> np.random.Generator:
        key = _FoldedKey(_fold(self.seed, self._base + key_parts))
        return np.random.Generator(np.random.Philox(key))

    def generator(self) -> np.random.Generator:
        """Single sequential stream for this key prefix."""
        return self.derive("__stream__")

    def __repr__(self):
        return f"KeyedRng(seed={self.seed}, base={self._base!r})"
