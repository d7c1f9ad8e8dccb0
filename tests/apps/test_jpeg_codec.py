"""Unit + property tests for the JPEG codec substrate."""

import hashlib
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.jpeg import (
    EOB, BitReader, BitWriter, HuffmanCode, LUMINANCE_TABLE, benchmark_image,
    blockify, compress, decompress, dct2, decode_blocks, dequantize,
    encode_blocks, from_zigzag, idct2, psnr, quality_table, quantize,
    to_zigzag, unblockify, zigzag_indices,
)
from repro.apps.jpeg.distributed import band_slices
from repro.apps.jpeg.huffman import PEEK_BITS


class TestDct:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(0)
        blocks = rng.normal(size=(10, 8, 8))
        assert np.allclose(idct2(dct2(blocks)), blocks)

    def test_dc_of_constant_block(self):
        block = np.full((1, 8, 8), 100.0)
        coeffs = dct2(block)
        assert coeffs[0, 0, 0] == pytest.approx(800.0)  # 8 * mean
        assert np.allclose(coeffs[0].flat[1:], 0.0, atol=1e-10)

    def test_orthonormality(self):
        from repro.apps.jpeg.dct import dct_matrix
        c = dct_matrix()
        assert np.allclose(c @ c.T, np.eye(8), atol=1e-12)

    def test_matches_scipy(self):
        scipy = pytest.importorskip("scipy.fft")
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 8))
        ours = dct2(x[None])[0]
        theirs = scipy.dctn(x, norm="ortho")
        assert np.allclose(ours, theirs)

    def test_blockify_roundtrip(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(32, 48))
        assert np.allclose(unblockify(blockify(img), 32, 48), img)

    def test_blockify_rejects_unaligned(self):
        with pytest.raises(ValueError):
            blockify(np.zeros((10, 16)))

    def test_blockify_order_row_major_blocks(self):
        img = np.arange(16 * 16).reshape(16, 16).astype(float)
        blocks = blockify(img)
        assert blocks[0, 0, 0] == 0
        assert blocks[1, 0, 0] == 8        # next block to the right
        assert blocks[2, 0, 0] == 8 * 16   # next block row


class TestQuantZigzag:
    def test_quality_table_monotone(self):
        t90 = quality_table(90)
        t10 = quality_table(10)
        assert np.all(t10 >= t90)

    def test_quality_bounds(self):
        with pytest.raises(ValueError):
            quality_table(0)
        with pytest.raises(ValueError):
            quality_table(101)

    def test_quantize_dequantize(self):
        rng = np.random.default_rng(3)
        coeffs = rng.normal(scale=100, size=(5, 8, 8))
        table = quality_table(75)
        q = quantize(coeffs, table)
        back = dequantize(q, table)
        assert np.max(np.abs(back - coeffs)) <= np.max(table) / 2 + 1e-9

    def test_zigzag_starts_dc_and_covers_all(self):
        zz = zigzag_indices()
        assert zz[0] == 0 and zz[1] in (1, 8)
        assert sorted(zz.tolist()) == list(range(64))

    def test_zigzag_roundtrip(self):
        rng = np.random.default_rng(4)
        blocks = rng.integers(-50, 50, size=(7, 8, 8))
        assert np.array_equal(from_zigzag(to_zigzag(blocks)), blocks)


class TestRle:
    def test_roundtrip_simple(self):
        zz = np.zeros((3, 64), dtype=np.int32)
        zz[0, 0] = 10
        zz[1, 0] = 12
        zz[1, 5] = -3
        zz[2, 63] = 7
        syms = encode_blocks(zz)
        assert np.array_equal(decode_blocks(syms, 3), zz)

    def test_dc_delta_coding(self):
        zz = np.zeros((2, 64), dtype=np.int32)
        zz[0, 0], zz[1, 0] = 100, 103
        syms = encode_blocks(zz)
        dcs = [s for s in syms if s[0] == "DC"]
        assert dcs == [("DC", 100), ("DC", 3)]

    @given(hnp.arrays(np.int32, (4, 64), elements=st.integers(-30, 30)))
    @settings(max_examples=40)
    def test_roundtrip_property(self, zz):
        assert np.array_equal(decode_blocks(encode_blocks(zz), 4), zz)


class TestHuffman:
    def test_bitwriter_reader_roundtrip(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b0110, 4)
        w.write(1, 1)
        data = w.getvalue()
        r = BitReader(data)
        assert r.read(3) == 0b101
        assert r.read(4) == 0b0110
        assert r.read(1) == 1

    def test_bitwriter_rejects_oversize(self):
        with pytest.raises(ValueError):
            BitWriter().write(4, 2)

    def test_roundtrip(self):
        symbols = list("abracadabra") * 5
        code = HuffmanCode.from_symbols(symbols)
        data = code.encode(symbols)
        assert code.decode(data, len(symbols)) == symbols

    def test_frequent_symbols_get_short_codes(self):
        symbols = ["a"] * 100 + ["b"] * 10 + ["c"]
        code = HuffmanCode.from_symbols(symbols)
        assert code.lengths["a"] <= code.lengths["b"] <= code.lengths["c"]

    def test_single_symbol_alphabet(self):
        code = HuffmanCode.from_symbols(["x"] * 10)
        data = code.encode(["x"] * 10)
        assert code.decode(data, 10) == ["x"] * 10

    def test_compresses_skewed_stream(self):
        symbols = ["common"] * 1000 + ["rare%d" % i for i in range(8)]
        code = HuffmanCode.from_symbols(symbols)
        bits = code.encoded_bit_length(symbols)
        assert bits < len(symbols) * 4  # far below fixed 4-bit coding

    @given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_roundtrip_property(self, symbols):
        code = HuffmanCode.from_symbols(symbols)
        assert code.decode(code.encode(symbols), len(symbols)) == symbols


class TestCodec:
    def test_roundtrip_quality(self):
        img = benchmark_image(64, 96)
        comp = compress(img)
        rec = decompress(comp)
        assert rec.shape == img.shape
        assert psnr(img, rec) > 30.0

    def test_compression_actually_compresses(self):
        img = benchmark_image(64, 96)
        comp = compress(img)
        assert comp.nbytes < img.nbytes / 3

    def test_quality_tradeoff(self):
        img = benchmark_image(64, 96)
        hi, lo = compress(img, 90), compress(img, 20)
        assert hi.nbytes > lo.nbytes
        assert psnr(img, decompress(hi)) > psnr(img, decompress(lo))

    def test_deterministic(self):
        img = benchmark_image(64, 64)
        assert compress(img).payload == compress(img).payload

    def test_uint8_required(self):
        with pytest.raises(TypeError):
            compress(np.zeros((8, 8), dtype=np.float64))

    def test_benchmark_image_is_600k(self):
        img = benchmark_image()
        assert img.nbytes == 600 * 1024
        assert img.dtype == np.uint8

    def test_flat_image_compresses_extremely(self):
        img = np.full((64, 64), 128, dtype=np.uint8)
        comp = compress(img)
        assert comp.nbytes < 600
        assert np.array_equal(decompress(comp), img)


# ----------------------------------------------------------------------
# Reference implementations: the bit-serial coder and per-coefficient
# RLE the table-driven codec replaced.  Both must agree with it exactly.

def reference_encode(code, symbols):
    w = BitWriter()
    for sym in symbols:
        c, length = code.codes[sym]
        w.write(c, length)
    return w.getvalue()


def reference_decode(code, data, n_symbols):
    table = {(length, c): s for s, (c, length) in code.codes.items()}
    pos = 0
    out = []
    for _ in range(n_symbols):
        c = length = 0
        while True:
            if pos >> 3 >= len(data):
                raise EOFError("bitstream exhausted")
            c = (c << 1) | (data[pos >> 3] >> (7 - (pos & 7))) & 1
            pos += 1
            length += 1
            if (length, c) in table:
                out.append(table[(length, c)])
                break
            if length > code.max_len:
                raise ValueError("invalid bitstream (no code matches)")
    return out


def reference_encode_blocks(zz):
    symbols = []
    prev_dc = 0
    for vec in zz:
        dc = int(vec[0])
        symbols.append(("DC", dc - prev_dc))
        prev_dc = dc
        nonzero = np.nonzero(vec)[0]
        last = int(nonzero.max()) if len(nonzero) else 0
        run = 0
        for i in range(1, last + 1):
            v = int(vec[i])
            if v == 0:
                run += 1
            else:
                symbols.append(("AC", run, v))
                run = 0
        symbols.append(EOB)
    return symbols


def decode_outcome(fn, *args):
    """``fn``'s result, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (EOFError, ValueError) as exc:
        return type(exc)


def skewed_code(steps):
    """A Huffman code over frequencies 2**e, e the running sum of
    ``steps``: every step >= 1 deepens the tree by one level, so long
    step lists give codes far longer than the peek table."""
    freqs = Counter({f"s{i}": 2 ** e + i
                     for i, e in enumerate(accumulate(steps))})
    return HuffmanCode(HuffmanCode._code_lengths(freqs))


#: exponent steps of skewed_code, sized uniformly up to 48 symbols
skew_steps = st.integers(1, 48).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n))


def fibonacci_stream(n):
    """Symbol i appears fib(i) times: the deepest Huffman tree, with
    max_len n - 1."""
    a, b = 1, 1
    out = []
    for i in range(n):
        out += [("AC", i, -i)] * a
        a, b = b, a + b
    return out


class TestEntropyCoderProperties:
    def test_fibonacci_alphabet_exceeds_peek_table(self):
        symbols = fibonacci_stream(20)
        code = HuffmanCode.from_symbols(symbols)
        assert code.max_len > PEEK_BITS
        data = code.encode(symbols)
        assert data == reference_encode(code, symbols)
        assert code.decode(data, len(symbols)) == symbols

    @given(skew_steps, st.data())
    @settings(max_examples=60, deadline=None)
    def test_skewed_roundtrip_matches_reference(self, steps, data):
        code = skewed_code(steps)
        alphabet = sorted(code.lengths)
        symbols = data.draw(st.lists(st.sampled_from(alphabet),
                                     min_size=0, max_size=300))
        payload = code.encode(symbols)
        assert payload == reference_encode(code, symbols)
        assert code.decode(payload, len(symbols)) == symbols

    @given(skew_steps, st.sets(st.integers(0, 47)), st.binary(max_size=24),
           st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_decode_like_reference(self, steps, drop, data,
                                                   n):
        """Garbage and truncated input fail exactly as the bit-serial
        decoder does: same symbols, or the same exception type.
        Dropping symbols leaves codes that do not cover every bit
        pattern, so some streams match no code."""
        lengths = skewed_code(steps).lengths
        code = HuffmanCode({s: length for i, (s, length)
                            in enumerate(sorted(lengths.items()))
                            if i not in drop} or lengths)
        assert (decode_outcome(code.decode, data, n)
                == decode_outcome(reference_decode, code, data, n))

    def test_codes_longer_than_the_read_ahead(self):
        """Codes of up to 99 bits, longer than one 64-bit refill."""
        code = HuffmanCode({f"s{i}": min(i + 1, 99) for i in range(100)})
        symbols = ["s99", "s98", "s0", "s13", "s99"]
        payload = code.encode(symbols)
        assert payload == reference_encode(code, symbols)
        assert code.decode(payload, len(symbols)) == symbols
        with pytest.raises(EOFError):
            code.decode(payload[:-1], len(symbols))

    def test_long_code_no_match_raises_value_error(self):
        code = HuffmanCode({"a": 1, "b": PEEK_BITS + 3})
        assert code.decode(b"\x00", 8) == ["a"] * 8
        with pytest.raises(ValueError):
            code.decode(b"\xff" * 4, 1)
        with pytest.raises(EOFError):      # fewer than max_len + 1 bits
            code.decode(b"\xff", 1)

    def test_single_symbol_alphabet_errors(self):
        code = HuffmanCode({"x": 1})
        assert code.encode(["x"] * 9) == b"\x00\x00"
        assert code.decode(b"\x00", 8) == ["x"] * 8
        with pytest.raises(ValueError):    # code 0 meets a 1 bit
            code.decode(b"\x80", 1)
        with pytest.raises(EOFError):
            code.decode(b"\x00", 9)
        with pytest.raises(EOFError):
            code.decode(b"", 1)

    def test_no_match_raises_value_error(self):
        code = HuffmanCode({"a": 1, "b": 2})    # 0, 10: 11 is unused
        with pytest.raises(ValueError):
            code.decode(b"\xff", 1)
        # a bit-serial decoder reads max_len + 1 bits before it gives up
        with pytest.raises(ValueError):
            code.decode(b"\x06", 6)            # 00000 11 0
        with pytest.raises(EOFError):
            code.decode(b"\x03", 7)            # 000000 11

    def test_truncated_payload_raises_eof(self):
        comp = compress(benchmark_image(64, 96))
        code = HuffmanCode(comp.code_lengths)
        assert len(code.decode(comp.payload, comp.n_symbols)) \
            == comp.n_symbols
        for cut in (1, 2, len(comp.payload) // 2):
            with pytest.raises(EOFError):
                code.decode(comp.payload[:-cut], comp.n_symbols)

    def test_unknown_symbol_and_oversubscribed_lengths(self):
        code = HuffmanCode({"a": 1, "b": 1})
        with pytest.raises(KeyError, match="'c'"):
            code.encode(["a", "c"])
        with pytest.raises(ValueError):
            HuffmanCode({"a": 1, "b": 1, "c": 1})

    @given(st.lists(st.tuples(st.integers(0, 40), st.data()), max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_bitwriter_reader_roundtrip_property(self, fields):
        values = [(d.draw(st.integers(0, 2 ** n - 1)), n) for n, d in fields]
        w = BitWriter()
        for v, n in values:
            w.write(v, n)
        r = BitReader(w.getvalue())
        assert [r.read(n) for _, n in values] == [v for v, _ in values]
        pad = -w.bit_length % 8
        assert r.read(pad) == 0
        with pytest.raises(EOFError):
            r.read(1)


class TestRleReference:
    @given(hnp.arrays(np.int32, st.tuples(st.integers(0, 12), st.just(64)),
                      elements=st.sampled_from([0, 0, 0, -2, 5])))
    @settings(max_examples=80, deadline=None)
    def test_encode_blocks_matches_per_coefficient_reference(self, zz):
        for arr in (zz, zz.astype(np.int64)):
            syms = encode_blocks(arr)
            ref = reference_encode_blocks(arr)
            assert syms == ref
            assert ([tuple(type(v) for v in s) for s in syms]
                    == [tuple(type(v) for v in s) for s in ref])
            assert all(s is EOB for s in syms if s[0] == "EOB")

    def test_full_image_symbols_match_reference(self):
        img = benchmark_image(64, 96).astype(np.float64) - 128.0
        zz = to_zigzag(quantize(dct2(blockify(img)), quality_table(75)))
        assert encode_blocks(zz) == reference_encode_blocks(zz)


class TestBenchmarkImageCache:
    def test_memoized_read_only(self):
        assert benchmark_image() is benchmark_image()
        img = benchmark_image(64, 96, seed=7)
        assert benchmark_image(64, 96, seed=7) is img
        assert not img.flags.writeable
        with pytest.raises(ValueError):
            img[0, 0] = 1
        assert not np.array_equal(benchmark_image(64, 96, seed=8), img)


# ----------------------------------------------------------------------
# Golden bitstreams: per band of every Table 2 band split, the sha256 of
# the payload, the symbol count and the sha256 of the sorted code-length
# table (whose repr also pins the symbols' element types).  Wire sizes,
# and so every Table 2 makespan, follow from these bytes.

GOLDEN_BANDS = {
    (1995, 1): [
        ("c7d6876acaefe9d7e56c8ff9553dea4474fef3d737d178978e03e635ee11e923",
         66416, "23cad85642616d0d123f7ca3ad0180fde27b1b089fcf3b7757bfb4bd4604deb7"),
    ],
    (1995, 2): [
        ("d40270c523e20a9a493c452803c3aabb87257394defc8649f77a0284714c5820",
         32460, "9a3ae45c5b0444976d16860915b9066081177e18745ef5a46471957c34499ddb"),
        ("bb0c0d1e5b96f1eb57311ff52e8aaa404c6bb977c4b51d82fad3d894a2ab1fd7",
         33956, "52bc7b571da950cf62cae84b8423959ed042749944f6543f81e62aeb5decd38e"),
    ],
    (1995, 4): [
        ("57cfc7243da3179e5e438e116f6603c383175c9621dc6f0f9b7396dc88aaecee",
         16047, "d61bb5e7c5a406bf7839320a759144d08fee5754b1bdd7845f496a39a1cd0f8a"),
        ("e8c6982597ec3f14783f08acbd79c0782e521f36db1d8b736fb3b1ab4ae61187",
         16413, "44cfeabb297295ffc8380241008b40879309237e79042fa0bd6dfd77057e30dc"),
        ("565079bc62084c3d2680073cf3fb15905e8ee70db316e584592b4cae27ed7d9b",
         16796, "bd319fac04396645b987924449a42a95d1cf46fa8be0a500c1b00e1b8c90d583"),
        ("1bde60ca1860e0407ef3b16b554b0725d75c3fe0be84a7f49fd4977b6670e54b",
         17160, "81d21d2c6617fc9f14c8daa7f58e49b5a46a1266f3a6fcb6470bcb157bb61a4f"),
    ],
    (1995, 8): [
        ("4e28586e13a1d47a65bf0840ccae8791e85dde7aef3f275eaa571bae4f1eeb14",
         8136, "8d606c3350b5993ad27040f26035e80fef9121d32bd7d3f31f1b82a2c069c404"),
        ("05822f0a793710148ac75d750cb2c4928f7fa87da5142a8734cb50140f5d591c",
         7911, "9511c7ca943215f8de89543bd12ed80e946ee3c6605a7f177c5ea26e286fa3f5"),
        ("65ac493339cb4dcf2a47c769f5a47a13b8924a368dea3e05c36af6fb52ad00ff",
         8328, "7303b56f60bf4d8af66552ff7e78546816e5e2a9e8675e537f4a901944fac84b"),
        ("f4fa89c89281a1aaf3be817ce030a9d1fd84762bc4e102ca858b4ee5e39336e9",
         8085, "f76526155ccdf71c02b72df6c08ca26ec9f99055b41085c52caa2f659046ad84"),
        ("57b4022a33d5e753ae8e3db73c72888979e96f8e87a5eae6bbcf606377dad890",
         8324, "153529a8913ba284fadd943baf7de679311431ad28077482b503c3cc8bd4cd92"),
        ("369e47d6b0dc767f2baa433a95056e79b350cf9a6e4be6c7bd02df01292ec744",
         8472, "b396c08cabdbf10e00645a20488f3fbd7ba8e0d59aaef9278947b0a88255cdab"),
        ("4d0a17fa21ffc88c3bfaac3081baa93c38e0a1b53b405695dc51c227cb6e54cc",
         8493, "ca7b0b6699d86ef475110080af1c2e9a33d22bb02612c6d7321d5a09c167f54e"),
        ("4cd69c5287f7b6e70f007b0cef78fec38b060888beb2f6561875a70ee804041f",
         8667, "5448fd27a98d24572851d17ecf4675c28a041c0f5f0016193fdd35db5cda6eba"),
    ],
    (1996, 1): [
        ("1938d210fa4930c753b51f25cca0f37b38564f12055fd82aab573374cd51e389",
         66386, "3e09c7caa893178b63de734060ae39279c6ea5f32aa3b154f6b3681cb694242f"),
    ],
    (1996, 2): [
        ("5c1f9f41faf45387ced6e43f114f04cf75b780f2f662500b612716c70006f6ad",
         32416, "effabb4a95fadfd53f15bff36921f6eb861f2e4c5aa57c288b53a989f4a369ac"),
        ("2cf250de1866d8126fc6695cbd9e87daf977de82ce8d1a5646dc383cc070dde9",
         33970, "d806cb6e5a6472bfd28c1ffaf077f2e1049937356b2c1dde2e7daf7f5753a8df"),
    ],
    (1996, 4): [
        ("2e46cf606a08fdd70ee49863f17717ac0d2799e71a1b3899d6e090fbdd579bc1",
         15956, "ef876d86c1ab26658be4f6f22a84a7232c636353f8963de8dfa073628346f726"),
        ("fe0c13df938f6c698164ed697ed9ff6c99ead8d37128bdc3f31dbf8f2af4c216",
         16460, "72a04c616cdde230ff6b1bf8652715984602931bdff28a13a83660637bcd83f0"),
        ("9cc585d3ab2a9f340389edf7c889d5d3feae5ce57b8eed427df46780784070f1",
         16774, "df082b4889e58418dc4a043460071d790cbe23333ab2499d4f6b63e79cdf67e3"),
        ("e2b3944cb8f2f9bb3ebce1b7ef721359512b9b3de231613c7ab422fa8958a05a",
         17196, "9db32e52b2d44dbde59f5a39f08b6cbb5e599e3713ff946a3be90a96bf2e46bc"),
    ],
    (1996, 8): [
        ("02abe97a7dafa7c586bd3a2d2fc46ffa13547a2f7346b671f04a8492c07a27ee",
         8103, "612ceec7fc99e2d927c305f87de4ac3eeb1854d12654a23986ab58ba7f1f18e2"),
        ("a4481162e634413443ccfb20cec66bd431bcec44d2d621d81cb61672529dab8a",
         7853, "d9c1cbeeb85ba7143627a9fbf9b960a0aa601981b0c038e36d4b79583dd221f3"),
        ("332cad0d6d80bde4241ab27ca06384937396cf981613e3549dd3f6e46d395c42",
         8294, "b852d5381526f482ba69acdad5edb1aab73cb661590ba38f2803a6f36e80b609"),
        ("03fbd5d687cea630b23f876d4bc5326364cb5af7144df30b283933adf109a8c4",
         8166, "6d19eecefb548e1d409846ffae97cef4c03fff9d71d9126b070d7db4794296e8"),
        ("efdf1fa61d5b1ecce41378df9eff4fdf0c3181645cc259dd0e8b4a3bf4d1b7ab",
         8290, "11f4b85cbba45a0d06239b2d5daf7cad85ce82e230b5fad3d2a22288e027710f"),
        ("d25bf4a430d5edd0db5b82d955b6f00fc4d1f0af52193a9826944031dbf51fa4",
         8484, "227657b860004b70b14b8bc27ef70493bd8fbeaea3abc33fb488142474a96db4"),
        ("61c3002ba222c895a3c287efadcb2b16014f01ba5f9b71907d45885c4d1213e3",
         8596, "eacb890ea6e6f617fccd4db6adfb043e2932db1d2129871d1a87a5ebf07a2043"),
        ("ccaf96a3783a4aa1f0916e78ace681e454598c424a6544879e2b5b68ec91a530",
         8600, "3e8c1a6c35469d55072f1fab4b861030d09c45d764c4f0f2fcff325274c8123c"),
    ],
}


def _digest(obj) -> str:
    return hashlib.sha256(obj).hexdigest()


@pytest.mark.parametrize("seed,parts", sorted(GOLDEN_BANDS))
def test_golden_band_payloads(seed, parts):
    image = benchmark_image(seed=seed)
    got = []
    for sl in band_slices(image.shape[0], parts):
        comp = compress(image[sl], 75)
        lengths = repr(sorted(comp.code_lengths.items(), key=repr))
        got.append((_digest(comp.payload), comp.n_symbols,
                    _digest(lengths.encode())))
    assert got == GOLDEN_BANDS[(seed, parts)]
