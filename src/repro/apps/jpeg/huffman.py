"""Canonical Huffman coding over arbitrary hashable symbols.

The JPEG codec entropy-codes its RLE symbol stream with a canonical
Huffman code built from the stream's own symbol frequencies (the table
travels with the compressed data, as a real JFIF file's DHT segments
do).  Encoding joins each symbol's code string and converts the whole
stream once; decoding peeks a fixed-width window and looks the symbol
up in a table, walking the canonical first-code/count tables only for
codes longer than the window.  Includes a bit-level writer/reader pair.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Any, Iterable

__all__ = ["HuffmanCode", "BitWriter", "BitReader", "PEEK_BITS"]

#: width of the decode peek table (at most 2**PEEK_BITS entries):
#: codes this long or shorter decode with one lookup
PEEK_BITS = 12


class BitWriter:
    """Accumulates bits msb-first into a bytearray."""

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        if nbits < 0 or (nbits and value >> nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        """Flush (zero-padded) and return the bitstream."""
        if self._nbits:
            pad = 8 - self._nbits
            return bytes(self._out) + bytes(
                [(self._acc << pad) & 0xFF])
        return bytes(self._out)

    @property
    def bit_length(self) -> int:
        return len(self._out) * 8 + self._nbits


class BitReader:
    """Reads bits msb-first from a bytes object."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, nbits: int) -> int:
        end = self._pos + nbits
        if end > 8 * len(self._data):
            raise EOFError("bitstream exhausted")
        first, last = self._pos >> 3, (end + 7) >> 3
        window = int.from_bytes(self._data[first:last], "big")
        self._pos = end
        return (window >> (8 * last - end)) & ((1 << nbits) - 1)

    def read_bit(self) -> int:
        return self.read(1)


class HuffmanCode:
    """A canonical Huffman code over a symbol alphabet."""

    def __init__(self, lengths: dict[Any, int]):
        if not lengths:
            raise ValueError("empty alphabet")
        self.lengths = dict(lengths)
        self.codes = self._canonical_codes(self.lengths)
        self.max_len = max(self.lengths.values())
        self._bits = {s: format(c, f"0{l}b")
                      for s, (c, l) in self.codes.items()}
        # decode: a peek table of (symbol, length) for codes of up to
        # _peek_bits bits, length 0 marking a window no short code
        # starts; longer codes per length as (first code, symbols)
        self._peek_bits = k = min(self.max_len, PEEK_BITS)
        self._table: list = [(None, 0)] * (1 << k)
        self._long: dict[int, tuple[int, list]] = {}
        for sym, (code, length) in self.codes.items():
            if length <= k:
                shift = k - length
                self._table[code << shift:(code + 1) << shift] = \
                    [(sym, length)] * (1 << shift)
            else:
                self._long.setdefault(length, (code, []))[1].append(sym)

    # ------------------------------------------------------------ building
    @classmethod
    def from_symbols(cls, symbols: Iterable[Any]) -> "HuffmanCode":
        freqs = Counter(symbols)
        if not freqs:
            raise ValueError("cannot build a code from an empty stream")
        return cls(cls._code_lengths(freqs))

    @staticmethod
    def _code_lengths(freqs: Counter) -> dict[Any, int]:
        if len(freqs) == 1:
            return {next(iter(freqs)): 1}
        heap = [(f, i, (sym,)) for i, (sym, f) in enumerate(
            sorted(freqs.items(), key=lambda kv: repr(kv[0])))]
        heapq.heapify(heap)
        depths: Counter = Counter()
        counter = len(heap)
        while len(heap) > 1:
            f1, _, s1 = heapq.heappop(heap)
            f2, _, s2 = heapq.heappop(heap)
            for s in s1 + s2:
                depths[s] += 1
            counter += 1
            heapq.heappush(heap, (f1 + f2, counter, s1 + s2))
        return dict(depths)

    @staticmethod
    def _canonical_codes(lengths: dict[Any, int]) -> dict[Any, tuple[int, int]]:
        """Codes in canonical order: by length, then by symbol repr."""
        ordered = sorted(lengths.items(), key=lambda kv: (kv[1], repr(kv[0])))
        codes = {}
        code = 0
        prev_len = ordered[0][1]
        for sym, length in ordered:
            code <<= (length - prev_len)
            if code >> length:
                raise ValueError("code lengths over-subscribe the code "
                                 f"space at {length} bits")
            codes[sym] = (code, length)
            code += 1
            prev_len = length
        return codes

    # ------------------------------------------------------------- encoding
    def encode(self, symbols: Iterable[Any]) -> bytes:
        """The msb-first bitstream of ``symbols``, zero-padded to bytes."""
        bits = self._bits
        try:
            stream = "".join([bits[s] for s in symbols])
        except KeyError as exc:
            raise KeyError(f"symbol {exc.args[0]!r} not in code") from None
        pad = -len(stream) % 8
        return (int(stream or "0", 2) << pad).to_bytes(
            (len(stream) + pad) // 8, "big")

    def decode(self, data: bytes, n_symbols: int) -> list:
        """The first ``n_symbols`` symbols of ``data``.

        Raises :class:`EOFError` when a symbol needs bits past the end
        of ``data`` and :class:`ValueError` when no code matches.
        """
        k, table, max_len = self._peek_bits, self._table, self.max_len
        mask = (1 << k) - 1
        total = 8 * len(data)
        # bits past the end read as zeros: slices beyond buf are empty,
        # and the pad keeps every 8-byte refill holding real data whole;
        # whether a symbol used those bits is checked against total
        buf = bytes(data) + bytes(8)
        acc = have = pos = 0        # the `have` low bits of acc are unread
        out: list = []
        append = out.append
        for _ in range(n_symbols):
            while have < max_len:
                if 8 * pos - have > total:
                    raise EOFError("bitstream exhausted")
                acc = ((acc & ((1 << have) - 1)) << 64
                       | int.from_bytes(buf[pos:pos + 8], "big"))
                pos += 8
                have += 64
            sym, length = table[(acc >> (have - k)) & mask]
            if not length:
                sym, length = self._decode_long(
                    (acc >> (have - max_len)) & ((1 << max_len) - 1),
                    total - (8 * pos - have))
            have -= length
            append(sym)
        if 8 * pos - have > total:
            raise EOFError("bitstream exhausted")
        return out

    def _decode_long(self, window: int, remaining: int) -> tuple[Any, int]:
        """Match a code longer than the peek table against the next
        ``max_len`` bits, ``remaining`` of which are real data."""
        for length in range(self._peek_bits + 1, self.max_len + 1):
            first, syms = self._long.get(length, (0, ()))
            i = (window >> (self.max_len - length)) - first
            if 0 <= i < len(syms):
                return syms[i], length
        # a bit-serial decoder gives up after max_len + 1 bits
        if remaining > self.max_len:
            raise ValueError("invalid bitstream (no code matches)")
        raise EOFError("bitstream exhausted")

    def encoded_bit_length(self, symbols: Iterable[Any]) -> int:
        return sum(self.codes[s][1] for s in symbols)
