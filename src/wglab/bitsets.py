"""Bit-parallel sumset arithmetic on arbitrary-precision integers.

Sets of residues (cyclic, mod q) or of nonnegative integers (half-line,
clipped at a bound) are stored as bitmasks; sumset addition is a shift-or
over the set bits of the sparser operand.  Cyclic s-fold sumsets use
repeated doubling on the binary expansion of s; half-line ones add the
sparse base set s - 1 times, because a doubled half-line operand is dense.
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
    """s-fold sumset of a residue bitmask mod q by repeated doubling."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    result = None
    cur = B
    while s:
        if s & 1:
            result = cur if result is None else cyclic_add(result, cur, q)
        s >>= 1
        if s:
            cur = cyclic_add(cur, cur, q)
    return result


def cyclic_power_stepwise(B: int, s: int, q: int) -> int:
    """s-fold sumset by s-1 single additions; slow, used to re-verify."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    result = B
    for _ in range(s - 1):
        result = cyclic_add(result, B, q)
    return result


def line_add(X: int, Y: int, hi: int) -> int:
    """Sumset {x + y} of two integer bitmasks, clipped to [0, hi]."""
    if X == 0 or Y == 0:
        return 0
    if X.bit_count() < Y.bit_count():
        X, Y = Y, X
    full = (1 << (hi + 1)) - 1
    out = 0
    for r in _iter_bits(Y):
        out |= X << r
    return out & full


def line_power(B: int, s: int, hi: int) -> int:
    """s-fold integer sumset clipped to [0, hi], by s - 1 additions of B.

    Each addition shifts the running sumset once per element of B, so the
    cost is about s |B| hi / 64 word operations, linear in hi.
    """
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    result = B
    for _ in range(s - 1):
        result = line_add(result, B, hi)
    return result
