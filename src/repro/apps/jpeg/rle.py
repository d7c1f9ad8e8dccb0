"""Run-length coding of quantized zig-zag blocks (JPEG-style).

Per block: the DC coefficient is delta-coded against the previous
block's DC; AC coefficients become ``(zero_run, value)`` pairs with an
end-of-block marker once the tail is all zeros.  Symbols are Python
ints/tuples here; the Huffman stage turns them into bits.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

__all__ = ["EOB", "encode_blocks", "decode_blocks"]

#: end-of-block marker symbol
EOB = ("EOB",)


def encode_blocks(zz: np.ndarray) -> list:
    """Encode a (n_blocks, 64) integer zig-zag stack into a flat symbol
    list of tuples of Python ints (and :data:`EOB`)."""
    if zz.ndim != 2 or zz.shape[1] != 64:
        raise ValueError("expected (n_blocks, 64) zig-zag vectors")
    # every nonzero AC coefficient, block by block in scan order, with
    # the zero run since the previous one in its block
    blk, pos = np.nonzero(zz[:, 1:])
    prev = np.full_like(pos, -1)
    same = blk[1:] == blk[:-1]
    prev[1:][same] = pos[:-1][same]
    acs = list(zip(repeat("AC"), (pos - prev - 1).tolist(),
                   zz[:, 1:][blk, pos].tolist()))
    symbols: list = []
    prev_dc = start = 0
    for dc, n_ac in zip(zz[:, 0].tolist(),
                        np.bincount(blk, minlength=len(zz)).tolist()):
        symbols.append(("DC", dc - prev_dc))
        prev_dc = dc
        symbols += acs[start:start + n_ac]
        start += n_ac
        symbols.append(EOB)
    return symbols


def decode_blocks(symbols: Iterable, n_blocks: int) -> np.ndarray:
    """Inverse of :func:`encode_blocks`."""
    out = np.zeros((n_blocks, 64), dtype=np.int32)
    it: Iterator = iter(symbols)
    prev_dc = 0
    for b in range(n_blocks):
        sym = next(it)
        if not (isinstance(sym, tuple) and sym[0] == "DC"):
            raise ValueError(f"block {b}: expected DC symbol, got {sym!r}")
        prev_dc += sym[1]
        out[b, 0] = prev_dc
        pos = 1
        while True:
            sym = next(it)
            if sym == EOB:
                break
            if not (isinstance(sym, tuple) and sym[0] == "AC"):
                raise ValueError(f"block {b}: expected AC symbol, got {sym!r}")
            _, run, value = sym
            pos += run
            if pos >= 64:
                raise ValueError(f"block {b}: AC run overflows the block")
            out[b, pos] = value
            pos += 1
    return out
