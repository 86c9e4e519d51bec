import random

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
from padc.digitio import payload_length

P2N8 = GridParams(2, 8)
P3N6 = GridParams(3, 6)


class TestWriterReader:
    def test_roundtrip_small(self):
        w = DigitWriter(P2N8)
        w.push_digits([1, 0, 1, 0])
        r = DigitReader(P2N8, w.to_bytes(), w.digit_count)
        assert r.get_digits(4) == [1, 0, 1, 0]

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
        assert r.get_digits(5) == [1, 0, 1, 0, 0]
        assert r.get_digits(0) == []
        assert r.consumed == 5

    def test_rejects_bad_digit(self):
        w = DigitWriter(P2N8)
        with pytest.raises(ValueError):
            w.push_digits([2])
        with pytest.raises(ValueError):
            w.push_number(3, 1)

    def test_base3_byte_per_digit(self):
        w = DigitWriter(P3N6)
        w.push_digits([2, 0, 1])
        assert w.to_bytes() == bytes([2, 0, 1])
        r = DigitReader(P3N6, w.to_bytes(), 3)
        assert r.get_digits(4) == [2, 0, 1, 0]

    def test_large_roundtrip(self):
        rng = random.Random(0)
        digits = [rng.randrange(2) for _ in range(10_000)]
        r = DigitReader.from_digits(P2N8, digits)
        assert r.get_digits(len(digits)) == digits

    @given(
        st.sampled_from([2, 3, 5]),
        st.lists(st.integers(0, 4), max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, p, raw):
        params = GridParams(p, 4)
        digits = [d % p for d in raw]
        r = DigitReader.from_digits(params, digits)
        assert r.get_digits(len(digits)) == digits

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


def header_for(params, **kw):
    defaults = dict(
        params=params,
        ar=True,
        flush="min",
        model_kind="adaptive",
        alphabet_size=256,
        model_data=None,
        digit_count=0,
    )
    defaults.update(kw)
    return ContainerHeader(**defaults)


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
        assert reader.get_digits(17) == digits

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
            model_data=65,
            flush="left",
            digit_count=4,
        )
        got, reader = read_container(write_container(header, w.to_bytes()))
        assert got.model_data == 65
        assert got.flush == "left"
        assert reader.get_digits(4) == [1, 0, 1, 0]

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

    def test_truncated(self):
        blob = write_container(
            header_for(P2N8, digit_count=12), bytes([0xAA, 0xA0])
        )
        for cut in (3, 10, len(blob) - 1):
            with pytest.raises(ContainerError, match="truncated"):
                read_container(blob[:cut])

    def test_trailing_garbage(self):
        blob = write_container(header_for(P2N8), b"")
        with pytest.raises(ContainerError, match="trailing"):
            read_container(blob + b"\x00")

    def test_payload_length_mismatch_rejected_on_write(self):
        with pytest.raises(ValueError):
            write_container(header_for(P2N8, digit_count=9), b"\x00")

    def test_payload_length_rule(self):
        assert payload_length(GridParams(2, 8), 17) == 3
        assert payload_length(GridParams(3, 4), 17) == 17

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
            model_data = data.draw(st.integers(0, 255))
        else:
            s = data.draw(st.integers(1, 300))
            model_data = None
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
        assert reader.get_digits(len(digits)) == digits
