"""Counter-based splittable random streams.

Every chain, worker, or speculative node owns a stream derived from a root
seed and a stable key, so draws are a function of (seed, key) alone and never
of evaluation order. This is what makes prefetched MH bit-exact with serial
MH and the simulated cluster deterministic.

Stream version 2: the stream of ``(seed, key)`` is a Philox4x64 generator
keyed by the first 128 bits of the sha256 fold of the seed and the key parts,
with counter 0, i.e. ``Generator(Philox(key=_fold(seed, key)))``. Each
``derive`` returns a fresh generator with its own bit generator.

``_LazyPermutation`` draws a uniform random permutation from one such
generator only as far as it is read.
"""

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["KeyedRng"]

_INT128_MIN, _INT128_END = -(2 ** 127), 2 ** 127
_WORD = 2 ** 64 - 1
# A _LazyPermutation draws its next block lazily only while more than
# _EAGER_FACTOR * (block + 1024) indices are unread; below that, one shuffle
# of everything unread is cheaper than rejecting the indices already drawn.
_EAGER_FACTOR = 4


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


class _LazyPermutation:
    """A uniform random permutation of ``range(n)``, drawn from ``gen`` only
    as far as it has been read.

    ``drawn`` is the prefix drawn so far; ``draw_to(stop)`` extends it to at
    least ``min(stop, n)`` entries and returns it.

    Law: each block is a uniform random subset of the indices not yet drawn,
    in uniform random order, so every prefix is distributed as the same
    prefix of ``gen.permutation(n)``. A block of k is drawn by rejection:
    draw k candidates with ``gen.integers``, drop those already drawn (an
    n-byte mask) and the repeats, mark the rest and redraw only the
    shortfall. Every step treats the undrawn indices alike, so the kept set
    is a uniform subset of its size and no trimming is needed; the block is
    then shuffled.

    Schedule: blocks of ``block`` indices, then doubling, until at most
    ``_EAGER_FACTOR * (block + 1024)`` indices (or fewer than a block) are
    unread; then all the unread indices are shuffled at once. Block sizes
    never depend on the stop asked for, so the permutation is a function of
    ``gen``'s stream alone, whatever prefixes are asked for in whatever
    order.

    Small n: where ``n <= _EAGER_FACTOR * (block + 1024)`` the first and
    only draw is ``gen.permutation(n)``, bit for bit the eager permutation.
    """

    __slots__ = ("drawn", "_n", "_gen", "_block", "_mask")

    def __init__(self, n: int, block: int, gen: np.random.Generator):
        self._n, self._block, self._gen = n, block, gen
        self.drawn = np.empty(0, dtype=np.int64)
        self._mask = None  # marks the drawn indices while the draw is lazy

    def draw_to(self, stop: int) -> np.ndarray:
        stop = min(stop, self._n)
        while len(self.drawn) < stop:
            self._draw_block()
        return self.drawn

    def _draw_block(self):
        gen, n, k = self._gen, self._n, self._block
        unread = n - len(self.drawn)
        if unread <= max(k, _EAGER_FACTOR * (k + 1024)):
            if self._mask is None:  # nothing drawn yet
                self.drawn = gen.permutation(n)
            else:
                rest = np.flatnonzero(~self._mask)
                gen.shuffle(rest)
                self.drawn = np.concatenate([self.drawn, rest])
                self._mask = None
            return
        if self._mask is None:
            self._mask = np.zeros(n, dtype=bool)
        mask = self._mask
        parts, short = [], k
        while short:
            c = np.sort(gen.integers(0, n, short))
            keep = ~mask[c]
            keep[1:] &= c[1:] != c[:-1]
            c = c[keep]
            mask[c] = True
            parts.append(c)
            short -= len(c)
        block = np.concatenate(parts)
        gen.shuffle(block)
        self.drawn = np.concatenate([self.drawn, block])
        self._block = 2 * k
