"""Counter-based splittable random streams.

Every chain, worker, or speculative node owns a stream derived from a root
seed and a stable key, so draws are a function of (seed, key) alone and never
of evaluation order. This is what makes prefetched MH bit-exact with serial
MH and the simulated cluster deterministic.

Stream version 2: the stream of ``(seed, key)`` is a Philox4x64 generator
keyed by the first 128 bits of the sha256 fold of the seed and the key parts,
with counter 0, i.e. ``Generator(Philox(key=_fold(seed, key)))``. Each
``derive`` returns a fresh generator with its own bit generator. A
``KeyedRng`` hashes its seed and key prefix once; ``derive`` hashes only its
own key parts, into a copy of that sha256 state, and hands Philox the two
key words and a shared read-only zero counter, so no call converts counter 0
from a Python int.

``_LazyPermutation`` draws a uniform random order of ``range(n)`` from one
such generator, in shuffled doubling blocks, only as far as it is read, so
every prefix it has drawn is distributed as the same prefix of
``permutation(n)``. SGLD's epochs and subsampling MH's tests both read it.
"""

import bisect
import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["KeyedRng"]

_INT128_MIN, _INT128_END = -(2 ** 127), 2 ** 127
# Philox's counter for every derived stream; read-only, so no stream can move it
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False
_INT_RECORD = (17).to_bytes(4, "little") + b"i"  # an int part's length and tag
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


def _key_record(part) -> bytes:
    """A key part as the fold hashes it: a type tag and the part's bytes (an
    int as 16 signed little-endian bytes), after their 4-byte length."""
    if type(part) is int and _INT128_MIN <= part < _INT128_END:  # the cheap case first
        return _INT_RECORD + part.to_bytes(16, "little", signed=True)
    if isinstance(part, str):
        b = b"s" + part.encode("utf-8")
    elif isinstance(part, bytes):
        b = b"b" + part
    else:  # an np.integer, or a bad part that _int128 names
        return _key_record(_int128(part, "rng key part", "an int, str or bytes"))
    return len(b).to_bytes(4, "little") + b


def _seeded(seed: int):
    """A sha256 that has hashed the seed: where every fold starts."""
    return hashlib.sha256(int(seed).to_bytes(16, "little", signed=True))


def _absorb(h, parts: tuple):
    """Hash the records of the key parts into ``h``; returns ``h``."""
    for p in parts:
        h.update(_key_record(p))
    return h


def _fold(seed: int, parts: tuple, prefix=None) -> int:
    """The 128-bit key of the stream ``(seed, parts)``: the first 16 bytes,
    read little-endian, of the sha256 of the seed's 16 bytes and then each
    part's ``_key_record``.

    ``prefix``, if given, is a sha256 that has already hashed ``seed`` and
    the leading key parts (``KeyedRng`` keeps one for its seed and base);
    ``parts`` are then only the parts after those, hashed into a copy of it.
    """
    h = _seeded(seed) if prefix is None else prefix.copy()
    return int.from_bytes(_absorb(h, parts).digest()[:16], "little")


class _FoldedKey(ISeedSequence):
    """Hands a 128-bit folded key to ``Philox`` as its two 64-bit key words.

    ``Philox(_FoldedKey(k))`` is ``Philox(key=k)`` without the OS-entropy
    ``SeedSequence`` that the ``key=`` form builds and then ignores.
    """

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError(f"a folded rng key gives only generate_state(2, uint64), "
                             f"asked for generate_state({n_words!r}, {dtype!r})")
        # the low word first, as Philox(key=k) splits k
        return np.frombuffer(self.key.to_bytes(16, "little"), dtype="<u8")


class KeyedRng:
    """Factory of independent ``numpy`` generators keyed by stable identifiers.

    ``derive(*key)`` returns a fresh generator on every call:
    ``Generator(Philox(key=_fold(seed, base + key)))`` at counter 0 (stream
    version 2, see the module docstring). Its stream depends only on the root
    seed and the accumulated key, so the same key yields bit-identical draws
    no matter how many times or in what order it is derived, and no two live
    generators share a bit generator.

    The seed must be an int or ``np.integer`` in the signed 128-bit range;
    key parts must be such ints, ``str`` or ``bytes``. Bools are rejected. A
    bad ``child`` prefix fails when the child is made, not at its first
    derive. The seed and base are read-only: the sha256 state that every
    ``derive`` copies is made from them once, at construction.
    """

    def __init__(self, seed: int, _base: tuple = ()):
        seed = _int128(seed, "KeyedRng seed")
        _base = tuple(_base)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "_base", _base)
        object.__setattr__(self, "_prefix", _absorb(_seeded(seed), _base))

    def __setattr__(self, name, value):
        raise AttributeError(f"KeyedRng is read-only: cannot set {name!r}")

    def __reduce__(self):
        return KeyedRng, (self.seed, self._base)

    def child(self, *key_parts) -> "KeyedRng":
        """Namespace: a KeyedRng whose keys are all prefixed by ``key_parts``."""
        return KeyedRng(self.seed, self._base + key_parts)

    def derive(self, *key_parts) -> np.random.Generator:
        key = _FoldedKey(_fold(self.seed, key_parts, self._prefix))
        return np.random.Generator(np.random.Philox(key, counter=_ZERO_COUNTER))

    def generator(self) -> np.random.Generator:
        """Single sequential stream for this key prefix."""
        return self.derive("__stream__")

    def __repr__(self):
        return f"KeyedRng(seed={self.seed}, base={self._base!r})"


class _LazyPermutation:
    """A uniform random order of ``range(n)``, drawn from ``gen`` only as far
    as it has been read.

    ``read(start, stop)`` returns the entries ``start:stop`` of the order
    (``stop`` capped at n), drawing blocks as needed. No read reorders what
    an earlier read returned. A read that lies inside one block is a view
    of it.

    Blocks: ``block`` indices, then doubling. A block is a uniform random
    subset of the indices not yet drawn, shuffled, so every prefix is
    distributed as the same prefix of ``gen.permutation(n)``. Below the
    eager threshold (more than ``_EAGER_FACTOR * (block + 1024)`` indices,
    and more than a block, unread) it is drawn by rejection: draw k
    candidates with ``gen.integers``, sort them, drop the repeats and those
    already drawn (an n-byte mask, made at the second block; the first
    block is checked only against itself) and redraw only the shortfall.
    Every step treats the undrawn indices alike, so the kept set is a
    uniform subset of its size and no trimming is needed. At the eager
    threshold all the unread indices are shuffled at once, as the last
    block. Blocks are kept apart, so drawing one copies none of those
    before it. Block sizes never depend on the reads asked for, so the
    order is a function of ``gen``'s stream alone, whatever is read in
    whatever order.

    Small n: where ``n <= _EAGER_FACTOR * (block + 1024)`` the first and
    only draw is ``gen.permutation(n)``, bit for bit the eager permutation.
    """

    __slots__ = ("_n", "_gen", "_block", "_mask", "_blocks", "_ends")

    def __init__(self, n: int, block: int, gen: np.random.Generator):
        self._n, self._block, self._gen = n, block, gen
        self._mask = None  # marks the drawn indices, from the second lazy block on
        self._blocks = []  # the drawn blocks, in order
        self._ends = []    # where each block ends in the order

    def read(self, start: int, stop: int) -> np.ndarray:
        stop = min(stop, self._n)
        if start >= stop:
            return np.empty(0, dtype=np.int64)
        ends = self._ends
        while not ends or ends[-1] < stop:
            self._draw_block()
        first = bisect.bisect_right(ends, start)
        last = first if stop <= ends[first] else bisect.bisect_left(ends, stop, first)
        lo = ends[first - 1] if first else 0
        if first == last:
            return self._blocks[first][start - lo:stop - lo]
        return np.concatenate([self._blocks[first][start - lo:]] + self._blocks[first + 1:last]
                              + [self._blocks[last][:stop - ends[last - 1]]])

    def _draw_block(self):
        gen, n, k = self._gen, self._n, self._block
        start = self._ends[-1] if self._ends else 0
        self._block = 2 * k
        if n - start > max(k, _EAGER_FACTOR * (k + 1024)):
            block = self._reject(k)
            gen.shuffle(block)
        elif not start:
            block = gen.permutation(n)
        else:
            block = np.flatnonzero(~self._drawn_mask())
            gen.shuffle(block)
        self._blocks.append(block)
        self._ends.append(start + len(block))

    def _drawn_mask(self) -> np.ndarray:
        if self._mask is None:
            self._mask = np.zeros(self._n, dtype=bool)
            for block in self._blocks:
                self._mask[block] = True
        return self._mask

    def _reject(self, k: int) -> np.ndarray:
        """k distinct undrawn indices by rejection, marked in the mask (the
        first block, drawn before there is one, is checked against its own
        earlier rounds by binary search): the sorted parts of successive
        rounds, concatenated in the order drawn."""
        gen, n = self._gen, self._n
        mask = self._drawn_mask() if self._blocks else None
        parts, short = [], k
        while short:
            c = np.sort(gen.integers(0, n, short))
            keep = np.ones(len(c), dtype=bool) if mask is None else ~mask[c]
            keep[1:] &= c[1:] != c[:-1]
            if mask is None and parts:
                seen = np.sort(np.concatenate(parts))
                keep &= seen[np.searchsorted(seen, c).clip(max=len(seen) - 1)] != c
            c = c.compress(keep)
            if mask is not None:
                mask[c] = True
            parts.append(c)
            short -= len(c)
        return np.concatenate(parts)
