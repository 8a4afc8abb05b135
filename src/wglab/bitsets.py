"""Bit-parallel sumset arithmetic on bitmasks.

Sets of residues (cyclic, mod q) or of nonnegative integers (half-line,
clipped at a bound) are stored as int bitmasks; sumset addition is a
shift-or over the set bits of the sparser operand.  Every s-fold sumset
adds its base set s - 1 times.  Cyclic sums stay on ints, whose widths
are q bits, and stop at the first addition that leaves the size
unchanged: the rest is a rotation.  Half-line sums run on uint64 word
arrays of hi // 64 + 1 words: the denser operand is shifted once per
distinct bit offset r mod 64 among the sparser one's elements r, and each
shifted copy is OR-ed in at word offset r >> 6, one aligned slice per
element.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bits_from",
    "bit_positions",
    "window_flags",
    "cyclic_add",
    "cyclic_power",
    "cyclic_power_stepwise",
    "line_add",
    "line_power",
]


def bits_from(values) -> int:
    mask = 0
    for v in values:
        mask |= 1 << v
    return mask


def bit_positions(mask: int) -> list[int]:
    return list(_iter_bits(mask))


def window_flags(mask: int, lo: int, hi: int) -> np.ndarray:
    """Bits lo..hi of a nonnegative bitmask as a bool array of length
    hi - lo + 1, by one byte unpacking instead of one shift per bit."""
    width = hi - lo + 1
    window = (mask >> lo) & ((1 << width) - 1)
    raw = np.frombuffer(window.to_bytes((width + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=width, bitorder="little").view(bool)


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cyclic_add(X: int, Y: int, q: int) -> int:
    """Sumset {x + y mod q} of two residue bitmasks of width q."""
    if X == 0 or Y == 0:
        return 0
    if X.bit_count() < Y.bit_count():
        X, Y = Y, X
    full = (1 << q) - 1
    out = 0
    for r in _iter_bits(Y):
        out |= (X << r) | (X >> (q - r)) if r else X
    return out & full


def cyclic_power(B: int, s: int, q: int) -> int:
    """s-fold sumset of a residue bitmask mod q by successive additions of
    B, cut at the first addition that leaves the size unchanged.

    If |S + B| = |S| then S + B = S + b for every b in B, since each S + b
    lies in S + B and has |S| elements.  So every later addition turns the
    sumset by b0, the least element of B, and the s-fold sumset is the
    stalled one rotated by the remaining folds times b0 mod q.  B = 0
    gives 0.  At q = 81, k = 2 a majority subset of the unit squares fills
    its admissible class in 2 folds, so the second addition stalls.  The
    fast path of every covering scan; cyclic_power_stepwise re-checks it.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    result, size = B, B.bit_count()
    for i in range(1, s):
        result = cyclic_add(result, B, q)
        if result.bit_count() == size:
            b0 = (B & -B).bit_length() - 1
            return cyclic_add(result, 1 << ((s - 1 - i) * b0 % q), q)
        size = result.bit_count()
    return result


def cyclic_power_stepwise(B: int, s: int, q: int) -> int:
    """s-fold sumset by all s - 1 single additions of B, with no stall exit:
    the independent re-check of cyclic_power, which re-verifies every
    covering witness and is the reference of its tests."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    result = B
    for _ in range(s - 1):
        result = cyclic_add(result, B, q)
    return result


def _words(mask: int, hi: int) -> np.ndarray:
    """Bits 0..hi of a nonnegative bitmask as hi // 64 + 1 little-endian
    uint64 words."""
    clipped = mask & ((1 << (hi + 1)) - 1)
    return np.frombuffer(clipped.to_bytes(8 * (hi // 64 + 1), "little"), dtype="<u8").copy()


def _from_words(words: np.ndarray, hi: int) -> int:
    """The bitmask of a word array's bits 0..hi; clears the last word's
    bits above hi in place."""
    if len(words):
        words[-1] &= (1 << (hi % 64 + 1)) - 1
    return int.from_bytes(words.tobytes(), "little")


def _offset_classes(words: np.ndarray) -> list[tuple[int, list[int]]]:
    """The set bits r of a word array grouped by bit offset r mod 64: each
    offset, ascending, with the word offsets r >> 6 of its elements,
    ascending.  One byte unpacking of the nonzero words finds the bits."""
    nonzero = np.flatnonzero(words)
    bits = np.flatnonzero(np.unpackbits(words[nonzero].view(np.uint8), bitorder="little"))
    classes: dict[int, list[int]] = {}
    for b, w in zip((bits & 63).tolist(), nonzero[bits >> 6].tolist()):
        classes.setdefault(b, []).append(w)
    return sorted(classes.items())


def _word_add(x: np.ndarray, classes) -> np.ndarray:
    """Sumset of the word array x with the set of _offset_classes classes,
    in len(x) words: x shifted once per offset b, each copy OR-ed in at
    every word offset w of its class."""
    n = len(x)
    out = np.zeros_like(x)
    for b, word_offsets in classes:
        if b:
            shifted = x << b
            shifted[1:] |= x[:-1] >> (64 - b)
        else:
            shifted = x
        for w in word_offsets:
            out[w:] |= shifted[: n - w]
    return out


def line_add(X: int, Y: int, hi: int) -> int:
    """Sumset {x + y} of two integer bitmasks, clipped to [0, hi]."""
    if X == 0 or Y == 0:
        return 0
    if X.bit_count() < Y.bit_count():
        X, Y = Y, X
    return _from_words(_word_add(_words(X, hi), _offset_classes(_words(Y, hi))), hi)


def line_power(B: int, s: int, hi: int) -> int:
    """s-fold integer sumset clipped to [0, hi], by s - 1 additions of B.

    B goes to words once and its set bits are grouped by offset once; each
    addition shifts the running sumset once per distinct offset r mod 64
    of the elements r of B and ORs a shifted copy in once per element:
    about (s - 1)(3 #offsets + |B|) word-array operations of hi / 64 words
    each, linear in hi.  With s = 1, B is returned unchanged.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    if s == 1:
        return B
    result = _words(B, hi)
    classes = _offset_classes(result)
    for _ in range(s - 1):
        result = _word_add(result, classes)
    return _from_words(result, hi)
