import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padc import (
    ContainerError,
    ContainerHeader,
    DigitReader,
    DigitWriter,
    GridParams,
    read_container,
    write_container,
)
from padc.cli import main
from padc.digitio import (
    MAGIC,
    MODEL_IDS,
    _HEADER,
    _block,
    _read_run,
    _write_run,
    payload_length,
)

P2N8 = GridParams(2, 8)
P3N6 = GridParams(3, 6)


class TestWriterReader:
    def test_roundtrip_small(self):
        w = DigitWriter(P2N8)
        w.push_digits([1, 0, 1, 0])
        r = DigitReader(P2N8, w.to_bytes(), w.digit_count)
        assert r.get_digits(4) == bytes([1, 0, 1, 0])

    def test_push_empty(self):
        w = DigitWriter(P2N8)
        w.push_digits([])
        assert w.digit_count == 0
        assert w.to_bytes() == b""

    def test_msb_first_packing(self):
        w = DigitWriter(P2N8)
        w.push_digits([1, 0, 0, 0, 0, 0, 0, 0])
        assert w.to_bytes() == b"\x80"

    def test_final_byte_zero_padded(self):
        w = DigitWriter(P2N8)
        w.push_digits([1, 1, 1])
        assert w.to_bytes() == bytes([0b11100000])

    def test_zero_extension(self):
        r = DigitReader.from_digits(P2N8, [1, 0, 1])
        assert r.get_digits(5) == bytes([1, 0, 1, 0, 0])
        assert r.get_digits(0) == b""
        assert r.consumed == 5

    def test_rejects_bad_digit(self):
        w = DigitWriter(P2N8)
        with pytest.raises(ValueError):
            w.push_digits([2])
        with pytest.raises(ValueError):
            w.push_number(3, 1)

    def test_base_beyond_a_byte_rejected(self):
        # Digits travel as byte values, so no base above 256 fits.
        with pytest.raises(ValueError, match="byte"):
            DigitWriter(GridParams(257, 3))
        with pytest.raises(ValueError, match="byte"):
            DigitReader(GridParams(257, 3), b"", 0)
        r = DigitReader.from_digits(GridParams(251, 3), [250, 0, 7])
        assert r.get_digits(3) == bytes([250, 0, 7])

    def test_base3_final_block_padding(self):
        # 201 in base 3 is 19; three digits take one byte, zero-padded to
        # the five digits that fit in it: 19 * 3**2.
        w = DigitWriter(P3N6)
        w.push_digits([2, 0, 1])
        assert w.to_bytes() == bytes([19 * 9])
        r = DigitReader(P3N6, w.to_bytes(), 3)
        assert r.get_digits(4) == bytes([2, 0, 1, 0])

    def test_large_roundtrip(self):
        rng = random.Random(0)
        digits = [rng.randrange(2) for _ in range(10_000)]
        r = DigitReader.from_digits(P2N8, digits)
        assert r.get_digits(len(digits)) == bytes(digits)

    @given(
        st.sampled_from([2, 3, 5, 251]),
        st.lists(st.integers(0, 250), max_size=600),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, p, raw):
        params = GridParams(p, 4)
        digits = [d % p for d in raw]
        r = DigitReader.from_digits(params, digits)
        assert r.get_digits(len(digits)) == bytes(digits)

    @given(
        st.sampled_from([2, 3, 5, 251]),
        st.lists(st.integers(0, 250), max_size=1000),
        st.lists(st.integers(0, 500), max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_reads_in_pieces_match_one_read(self, p, raw, sizes):
        """get_digits in pieces shorter and longer than a block, also past
        the declared count, gives the digits of one read."""
        digits = bytes(d % p for d in raw)
        r = DigitReader.from_digits(GridParams(p, 4), digits)
        got = b"".join([r.get_digits(n) for n in sizes])
        assert got == digits[: sum(sizes)].ljust(sum(sizes), b"\0")
        assert r.consumed == sum(sizes)

    @pytest.mark.parametrize("p", [2, 3])
    def test_get_digits_peak_under_three_bytes_a_digit(self, p):
        # The digits themselves take one byte each; converting them may
        # hold about as much again, but no list of ints (8 bytes a digit).
        rng = random.Random(p)
        count = 100_003
        digits = bytes(rng.randrange(p) for _ in range(count))
        r = DigitReader.from_digits(GridParams(p, 4), digits)
        tracemalloc.start()
        try:
            got = r.get_digits(count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * count
        assert got == digits

    @given(
        st.sampled_from([2, 3, 5]),
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 40), st.integers(0, 2**64)),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_push_number_roundtrip(self, p, pushes):
        """push_number(v, n), mixed with push_digits, reads back as v."""
        params = GridParams(p, 4)
        w = DigitWriter(params)
        spans = []
        for as_number, n, raw in pushes:
            v = raw % p**n
            start = w.digit_count
            if as_number:
                w.push_number(v, n)
            else:
                w.push_digits([v // p**i % p for i in range(n - 1, -1, -1)])
            spans.append((start, n, v))
        assert w.digit_count == sum(n for _, n, _ in spans)
        r = DigitReader(params, w.to_bytes(), w.digit_count)
        for start, n, v in spans:
            assert r.value(start, n) == v
        for v, n in ((p**3, 3), (1, 0), (-1, 5)):
            with pytest.raises(ValueError):
                w.push_number(v, n)


def pack_bits(digits):
    """Reference P=2 layout: one bit per digit, first digit in the most
    significant bit, final byte zero-padded."""
    out = bytearray((len(digits) + 7) // 8)
    for i, d in enumerate(digits):
        out[i >> 3] |= d << (7 - (i & 7))
    return bytes(out)


def pack_blocks(digits, P, B):
    """Reference block layout for P <= 10: each B-digit piece as a
    big-endian number in the fewest bytes that hold any such piece; a
    shorter final piece is zero-padded to the digits its bytes can hold."""
    out = b""
    for i in range(0, len(digits), B):
        piece = digits[i : i + B]
        k = ((P ** len(piece) - 1).bit_length() + 7) // 8
        d = len(piece)
        while len(piece) < B and P ** (d + 1) <= 256**k:
            d += 1
        text = "".join(map(str, piece)) + "0" * (d - len(piece))
        out += int(text, P).to_bytes(k, "big")
    return out


def push_in_pieces(w, digits, sizes, as_number):
    """Push digits to w in pieces of the given sizes (the rest in one
    piece), alternating push_number and push_digits."""
    P, i = w.params.P, 0
    for n in sizes + [len(digits)]:
        piece = digits[i : i + n]
        if as_number:
            w.push_number(int("0" + "".join(map(str, piece)), P), len(piece))
        else:
            w.push_digits(piece)
        as_number = not as_number
        i += len(piece)


class TestBlockLayout:
    def test_block_sizes(self):
        assert [_block(P) for P in (2, 3, 5, 7)] == [
            (8, 1),
            (429, 85),
            (410, 119),
            (379, 133),
        ]
        for P in (2, 3, 5, 7, 11):
            # least bytes per digit, ties to the smaller block
            size = {b: ((P**b - 1).bit_length() + 7) // 8 for b in range(1, 513)}
            best = min(size, key=lambda b: (Fraction(size[b], b), b))
            assert _block(P) == (best, size[best])

    @given(
        st.lists(st.integers(0, 1), max_size=300),
        st.lists(st.integers(0, 70), max_size=8),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_base2_bytes_are_plain_bit_packing(self, digits, sizes, as_number):
        w = DigitWriter(P2N8)
        push_in_pieces(w, digits, sizes, as_number)
        assert w.to_bytes() == pack_bits(digits)
        assert len(w.to_bytes()) == payload_length(P2N8, len(digits))

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 1400), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_dense_blocks_roundtrip(self, P, count, rng):
        params = GridParams(P, 4)
        B = _block(P)[0]
        digits = [rng.randrange(P) for _ in range(count)]
        sizes = [rng.randrange(B + 40) for _ in range(rng.randrange(8))]
        w = DigitWriter(params)
        push_in_pieces(w, digits, sizes, rng.random() < 0.5)
        payload = w.to_bytes()
        assert payload == pack_blocks(digits, P, B)
        assert len(payload) == payload_length(params, count)
        assert w.digits() == bytes(digits)
        r = DigitReader(params, payload, count)
        padded = digits + [0] * (B + 60)
        # windows across every block boundary, then random ones; both
        # run past the declared count
        windows = [(max(b - 7, 0), rng.randrange(8, B + 50)) for b in range(B, count + B, B)]
        windows += [(rng.randrange(count + 10), rng.randrange(B + 50)) for _ in range(12)]
        for start, n in windows:
            want = int("0" + "".join(map(str, padded[start : start + n])), P)
            assert r.value(start, n) == want
        cut = rng.randrange(count + 1)
        assert r.get_digits(cut) + r.get_digits(count - cut + 5) == bytes(padded[: count + 5])


def header_for(params, **kw):
    defaults = dict(
        params=params,
        ar=True,
        flush="min",
        model_kind="adaptive",
        alphabet_size=256,
        model_data=[],
        digit_count=0,
    )
    defaults.update(kw)
    return ContainerHeader(**defaults)


def decode_exit_code(tmp_path, capsys, blob):
    packed = tmp_path / "packed.padc"
    packed.write_bytes(blob)
    code = main(["decode", str(packed), str(tmp_path / "out")])
    assert "bad container" in capsys.readouterr().err
    return code


class TestContainerHeader:
    def test_eq_and_repr(self):
        header = header_for(P2N8, model_kind="static", model_data=[1, 2])
        assert header == header_for(P2N8, model_kind="static", model_data=[1, 2])
        assert header != header_for(P2N8, model_kind="static", model_data=[1, 3])
        assert header != header_for(GridParams(2, 9), model_kind="static", model_data=[1, 2])
        assert header.__eq__(tuple(vars(header).values())) is NotImplemented
        assert repr(header) == (
            "ContainerHeader(params=GridParams(P=2, N=8), ar=True, flush='min', "
            "model_kind='static', alphabet_size=256, model_data=[1, 2], "
            "digit_count=0)"
        )
        with pytest.raises(TypeError):
            hash(header)

    def test_mutable(self):
        header = header_for(P2N8)
        header.digit_count = 12
        assert header == header_for(P2N8, digit_count=12)
        assert header != header_for(P2N8)


class TestContainer:
    def test_adaptive_roundtrip(self):
        params = GridParams(2, 31)
        digits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1]
        w = DigitWriter(params)
        w.push_digits(digits)
        header = header_for(params, digit_count=17)
        blob = write_container(header, w.to_bytes())
        got, reader = read_container(blob)
        assert got == header
        assert reader.get_digits(17) == bytes(digits)

    def test_static_roundtrip(self):
        params = GridParams(3, 10)
        counts = [7, 3, 2, 1, 1]
        header = header_for(
            params, model_kind="static", alphabet_size=4, model_data=counts
        )
        got, _ = read_container(write_container(header, b""))
        assert got.model_data == counts

    def test_huffman_roundtrip(self):
        params = GridParams(2, 12)
        lengths = [0, 3, 1, 0, 2, 3]
        header = header_for(
            params, model_kind="huffman", alphabet_size=6, model_data=lengths
        )
        got, _ = read_container(write_container(header, b""))
        assert got.model_data == lengths

    def test_unary_roundtrip(self):
        params = GridParams(2, 4)
        w = DigitWriter(params)
        w.push_digits([1, 0, 1, 0])
        header = header_for(
            params,
            model_kind="unary",
            alphabet_size=1,
            model_data=[65],
            flush="left",
            digit_count=4,
        )
        got, reader = read_container(write_container(header, w.to_bytes()))
        assert got.model_data == [65]
        assert got.flush == "left"
        assert reader.get_digits(4) == bytes([1, 0, 1, 0])

    def test_bad_magic(self):
        blob = bytearray(write_container(header_for(P2N8), b""))
        blob[0] = ord("X")
        with pytest.raises(ContainerError, match="magic"):
            read_container(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(write_container(header_for(P2N8), b""))
        blob[4] = 9
        with pytest.raises(ContainerError, match="version"):
            read_container(bytes(blob))

    def test_version_1_rejected(self, tmp_path, capsys):
        # Versions 1 and 2 stored the model payload and digit count as
        # fixed-width fields; neither is read.
        for version in (1, 2):
            blob = bytearray(write_container(header_for(P2N8), b""))
            blob[4] = version
            with pytest.raises(ContainerError, match=f"unsupported version {version}"):
                read_container(bytes(blob))
            assert decode_exit_code(tmp_path, capsys, bytes(blob)) == 3

    def test_nonprime_base(self):
        blob = bytearray(write_container(header_for(P2N8), b""))
        blob[5] = 6
        with pytest.raises(ContainerError):
            read_container(bytes(blob))

    def test_bad_level(self):
        blob = bytearray(write_container(header_for(P2N8), b""))
        blob[6] = 0
        with pytest.raises(ContainerError):
            read_container(bytes(blob))

    def test_unknown_flags(self):
        blob = bytearray(write_container(header_for(P2N8), b""))
        blob[7] |= 0x80
        with pytest.raises(ContainerError, match="flag"):
            read_container(bytes(blob))

    def test_unknown_model_id(self, tmp_path, capsys):
        blob = bytearray(write_container(header_for(P2N8), b""))
        blob[8] = max(MODEL_IDS.values()) + 1
        with pytest.raises(ContainerError, match="unknown model id"):
            read_container(bytes(blob))
        assert decode_exit_code(tmp_path, capsys, bytes(blob)) == 3

    def test_huffman_header_at_p3(self, tmp_path, capsys):
        header = header_for(
            P2N8, model_kind="huffman", alphabet_size=2, model_data=[1, 1]
        )
        blob = bytearray(write_container(header, b""))
        blob[5] = 3
        with pytest.raises(ContainerError, match="P=2 only"):
            read_container(bytes(blob))
        assert decode_exit_code(tmp_path, capsys, bytes(blob)) == 3

    def test_truncated(self):
        blob = write_container(
            header_for(P2N8, digit_count=12), bytes([0xAA, 0xA0])
        )
        for cut in (3, 10, len(blob) - 1):
            with pytest.raises(ContainerError, match="truncated"):
                read_container(blob[:cut])

    @pytest.mark.parametrize(
        "params, kind, size, model_data",
        [
            (P3N6, "static", 4, [7, 3, 2, 1, 1]),
            (P2N8, "huffman", 6, [0, 3, 1, 0, 2, 3]),
            (P2N8, "unary", 1, [65]),
        ],
        ids=["static", "huffman", "unary"],
    )
    def test_truncated_model_payload_and_count(self, params, kind, size, model_data):
        payload = bytes(payload_length(params, 12))
        header = header_for(
            params,
            model_kind=kind,
            alphabet_size=size,
            model_data=model_data,
            digit_count=12,
        )
        blob = write_container(header, payload)
        # 11 fixed header bytes: magic, version, P, N, flags, model id, S
        for cut in range(11, len(blob) - len(payload)):
            with pytest.raises(ContainerError, match="truncated"):
                read_container(blob[:cut])

    @pytest.mark.parametrize(
        "params, kind, size, model_data",
        [
            (P2N8, "static", 2, [1, 0, 1]),
            (P2N8, "static", 2, [1, 2**32, 1]),
            (P2N8, "static", 2, [1, 1]),
            (P2N8, "huffman", 2, [1, 256]),
            (P3N6, "huffman", 2, [1, 1]),
            (P2N8, "unary", 1, [256]),
            (P2N8, "adaptive", 0x10000, []),
            (P2N8, "fenwick", 256, []),
        ],
        ids=[
            "count-0",
            "count-2**32",
            "S-counts",
            "length-256",
            "huffman-p3",
            "unary-256",
            "alphabet-0x10000",
            "unknown-kind",
        ],
    )
    def test_write_rejects_out_of_range(self, params, kind, size, model_data):
        header = header_for(
            params, model_kind=kind, alphabet_size=size, model_data=model_data
        )
        with pytest.raises(ValueError):
            write_container(header, b"")

    @pytest.mark.parametrize(
        "flags",
        [{"flush": "bogus"}, {"flush": None}, {"ar": 1}, {"ar": "yes"}, {"ar": None}],
        ids=["flush-bogus", "flush-none", "ar-1", "ar-str", "ar-none"],
    )
    def test_write_rejects_flags_that_would_not_read_back(self, flags):
        with pytest.raises(ValueError, match="flags"):
            write_container(header_for(P2N8, **flags), b"")

    def test_trailing_garbage(self):
        blob = write_container(header_for(P2N8), b"")
        with pytest.raises(ContainerError, match="trailing"):
            read_container(blob + b"\x00")

    @pytest.mark.parametrize(
        "P, count, payload, match",
        [
            # a full block of 3**429, then a final 1 padded to five digits
            (3, 430, (3**429).to_bytes(85, "big") + bytes([81]), "block outside"),
            # ten final digits fill two bytes with no padding; 3**10 is
            # one past the largest
            (3, 429 + 10, bytes(85) + (3**10).to_bytes(2, "big"), "final digit block"),
            # three final digits padded to five: 201 then 01, not 00
            (3, 429 + 3, bytes(85) + bytes([19 * 9 + 1]), "padding"),
            (2, 12, bytes([0xAA, 0xA1]), "padding"),
        ],
        ids=["full-block", "final-block", "p3-padding", "p2-padding"],
    )
    def test_corrupt_payload_rejected(self, tmp_path, capsys, P, count, payload, match):
        header = header_for(GridParams(P, 10), digit_count=count)
        blob = write_container(header, payload)
        with pytest.raises(ContainerError, match=match):
            read_container(blob)
        assert decode_exit_code(tmp_path, capsys, blob) == 3

    def test_payload_length_mismatch_rejected_on_write(self):
        with pytest.raises(ValueError):
            write_container(header_for(P2N8, digit_count=9), b"\x00")

    def test_payload_length_rule(self):
        assert payload_length(GridParams(2, 8), 17) == 3
        # 3**17 - 1 needs 27 bits; 429 digits make one 85-byte block.
        assert payload_length(GridParams(3, 4), 17) == 4
        assert payload_length(GridParams(3, 4), 429 + 17) == 85 + 4

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_header_roundtrip(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        n = data.draw(st.integers(2, 31 if p == 2 else 12))
        params = GridParams(p, n)
        kind = data.draw(st.sampled_from(["static", "adaptive", "huffman", "unary"]))
        if kind == "huffman" and p != 2:
            kind = "adaptive"
        if kind == "static":
            s = data.draw(st.integers(1, 40))
            model_data = [data.draw(st.integers(1, 1000)) for _ in range(s + 1)]
        elif kind == "huffman":
            s = data.draw(st.integers(1, 40))
            model_data = [data.draw(st.integers(0, min(n, 255))) for _ in range(s)]
        elif kind == "unary":
            s = 1
            model_data = [data.draw(st.integers(0, 255))]
        else:
            s = data.draw(st.integers(1, 300))
            model_data = []
        digits = data.draw(st.lists(st.integers(0, p - 1), max_size=64))
        w = DigitWriter(params)
        w.push_digits(digits)
        header = header_for(
            params,
            ar=data.draw(st.booleans()),
            flush=data.draw(st.sampled_from(["min", "left"])),
            model_kind=kind,
            alphabet_size=s,
            model_data=model_data,
            digit_count=len(digits),
        )
        got, reader = read_container(write_container(header, w.to_bytes()))
        assert got == header
        assert reader.get_digits(len(digits)) == bytes(digits)


def gamma_values():
    """Run values, weighted towards the edges of each bit width."""
    return st.one_of(
        st.sampled_from([1, 2, 3, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
        st.integers(0, 64).map(lambda k: 2**k),
        st.integers(1, 65).map(lambda k: 2**k - 1),
        st.integers(1, 2**65 - 1),
    )


def fixed_header(kind, S, N=31):
    """The 11 fixed bytes of a version 3 container at P=2."""
    return _HEADER.pack(MAGIC, 3, 2, N, 0x01, MODEL_IDS[kind], S)


class TestGammaRun:
    @given(st.lists(gamma_values(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, values):
        run = _write_run(values)
        assert len(run) == (sum(2 * v.bit_length() - 1 for v in values) + 7) // 8
        assert _read_run(run, 0, len(values)) == (values, len(run))
        # bytes after the run are not read as part of it
        assert _read_run(run + b"\xff" * 3, 0, len(values)) == (values, len(run))

    @given(st.lists(gamma_values(), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_every_cut_is_truncated(self, values):
        run = _write_run(values)
        for cut in range(len(run)):
            with pytest.raises(ContainerError, match="truncated"):
                _read_run(run[:cut], 0, len(values))

    def test_codes_spelled_out(self):
        # 1 -> 1, 2 -> 010, 5 -> 00101, 2**64 -> 64 zeros then 1 and 64 zeros
        assert _write_run([1, 2, 5]) == bytes([0b10100010, 0b10000000])
        assert _write_run([2**64]) == (1 << 64 + 7).to_bytes(17, "big")

    def test_wider_than_65_bits_rejected(self):
        with pytest.raises(ContainerError, match="too wide"):
            _read_run(_write_run([2**65]), 0, 1)
        assert _read_run(_write_run([2**65 - 1]), 0, 1)[0] == [2**65 - 1]

    def test_static_table_of_ones_size_pinned(self):
        header = header_for(
            GridParams(2, 31), model_kind="static", model_data=[1] * 257
        )
        blob = write_container(header, b"")
        # 11 fixed bytes, then 258 one-bit codes padded to 33 bytes
        assert blob == fixed_header("static", 256) + b"\xff" * 32 + b"\xc0"
        assert len(blob) == 44
        assert read_container(blob)[0] == header

    def test_stored_values_spelled_out(self):
        header = header_for(
            P2N8,
            model_kind="huffman",
            alphabet_size=3,
            model_data=[1, 0, 1],
            digit_count=4,
        )
        # lengths plus 1: 010 1 010; digit count plus 1: 00101; padding 0000
        run = bytes([0b01010100, 0b01010000])
        blob = write_container(header, b"\xa0")
        assert blob == fixed_header("huffman", 3, N=8) + run + b"\xa0"
        unary = header_for(P2N8, model_kind="unary", alphabet_size=1, model_data=[0])
        # byte value plus 1: 1; digit count plus 1: 1
        assert write_container(unary, b"") == fixed_header(
            "unary", 1, N=8
        ) + bytes([0b11000000])

    def test_nonzero_padding_rejected(self, tmp_path, capsys):
        blob = bytearray(write_container(header_for(P2N8, digit_count=9), b"\xff\x80"))
        # the run is one code, 0001010 for a digit count of 9, then one
        # padding bit
        assert blob[11] == 0b00010100
        blob[11] |= 0b00000001
        with pytest.raises(ContainerError, match="padding"):
            read_container(bytes(blob))
        assert decode_exit_code(tmp_path, capsys, bytes(blob)) == 3

    def test_write_rejects_digit_count_beyond_u64(self):
        with pytest.raises(ValueError, match="digit count"):
            write_container(header_for(P2N8, digit_count=2**64), b"")

    @pytest.mark.parametrize(
        "fill, match", [(b"\x00", "too wide"), (b"\x01", "padding")], ids=["00", "01"]
    )
    def test_long_garbage_after_header_rejected_quickly(self, fill, match):
        # 0x00 bytes: the first value has over 64 leading zeros.  0x01
        # bytes: the values alternate 128 and 1, and the last ends on a
        # byte's next-to-last bit, leaving a 1 in the padding.
        blob = fixed_header("static", 65535) + fill * 2**20
        start = time.perf_counter()
        with pytest.raises(ContainerError, match=match):
            read_container(blob)
        assert time.perf_counter() - start < 1

    def test_hostile_huffman_lengths_rejected_before_any_codebook(
        self, tmp_path, capsys
    ):
        # 65,535 code lengths of 255 at N=31: a codebook of them would
        # take seconds and over 100 MiB.
        blob = fixed_header("huffman", 65535) + _write_run([256] * 65535 + [1])
        with pytest.raises(ContainerError, match="above 31"):
            read_container(blob)
        start = time.perf_counter()
        assert decode_exit_code(tmp_path, capsys, blob) == 3
        assert time.perf_counter() - start < 1
        tracemalloc.start()
        try:
            assert decode_exit_code(tmp_path, capsys, blob) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_incomplete_huffman_book_rejected_before_any_codebook(
        self, tmp_path, capsys
    ):
        # 65,535 code lengths of 31 at N=31: each is in range, but their
        # Kraft sum is far below 1.  A codebook of them would take most of
        # a second and about 40 MiB; the alphabet check stops them first.
        blob = fixed_header("huffman", 65535) + _write_run([32] * 65535 + [1])
        read_container(blob)
        start = time.perf_counter()
        assert decode_exit_code(tmp_path, capsys, blob) == 3
        assert time.perf_counter() - start < 1
        tracemalloc.start()
        try:
            assert decode_exit_code(tmp_path, capsys, blob) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_alphabet_above_the_kind_rejected_before_any_codebook(
        self, tmp_path, capsys
    ):
        # 65,535 code lengths at N=31, one of 15 and the rest 16: a complete
        # code, so its cells would tile the grid, over an alphabet of 65,535
        # where the CLI's huffman kind has 256 symbols.  With no digits a
        # codebook of it would decode to nothing and exit 0.
        blob = fixed_header("huffman", 65535) + _write_run([16] + [17] * 65534 + [1])
        assert len(read_container(blob)[0].model_data) == 65535
        start = time.perf_counter()
        assert decode_exit_code(tmp_path, capsys, blob) == 3
        assert time.perf_counter() - start < 1
        tracemalloc.start()
        try:
            assert decode_exit_code(tmp_path, capsys, blob) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize(
        "lengths, message",
        [
            ([1, 2, 0], "codebook cells do not tile the grid"),
            ([1, 1, 1], "count total exceeds ring size"),
            ([0, 0, 0], "empty codebook"),
            ([1, 1, 31], "count total exceeds ring size"),  # by one point of 2**31
        ],
        ids=["incomplete", "over-full", "all-absent", "over-full-by-one"],
    )
    def test_huffman_book_not_complete_rejected(
        self, tmp_path, capsys, lengths, message
    ):
        # HuffmanModel's own checks reject the table: the CLI adds none,
        # and reports it as a header fault, not a stream fault.
        blob = fixed_header("huffman", 3) + _write_run([n + 1 for n in lengths] + [1])
        packed = tmp_path / "packed.padc"
        packed.write_bytes(blob)
        assert main(["decode", str(packed), str(tmp_path / "out")]) == 3
        assert f"padc: bad container: {message}" in capsys.readouterr().err

    def test_adaptive_header_beyond_the_grid_cap_is_a_bad_container(
        self, tmp_path, capsys
    ):
        # 256 symbols plus the end marker need P**(N-2) >= 257: at N=8 the
        # cap is 64, and AdaptiveModel refuses the header's alphabet.
        packed = tmp_path / "packed.padc"
        packed.write_bytes(fixed_header("adaptive", 256, N=8) + _write_run([1]))
        assert main(["decode", str(packed), str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("padc: bad container: alphabet of 256 symbols (+EOM)")
        assert "exceeds grid cap 64" in err

    @pytest.mark.parametrize(
        "kind, S, values, match",
        [
            ("static", 1, [1, 2**32, 1], "static model value 4294967296 above"),
            ("huffman", 2, [1, 33, 1], "huffman model value 32 above 31"),
            ("unary", 1, [257, 1], "unary model value 256 above 255"),
        ],
        ids=["count-2**32", "length-above-N", "unary-256"],
    )
    def test_read_rejects_out_of_range(self, kind, S, values, match):
        with pytest.raises(ContainerError, match=match):
            read_container(fixed_header(kind, S) + _write_run(values))
