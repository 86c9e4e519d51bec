"""Ordered base-P digit streams and the self-describing container format.

For P = 2 digits are packed eight per byte, first-pushed digit in the
most significant bit, final byte zero-padded; the padding is invisible
because readers zero-extend past the declared digit count anyway.  For
P > 2 each digit occupies one byte (clarity over density; those grids
are an experimental mode).  This packing rule lives here alone: the
coder hands runs of digits over as one base-P number
(DigitWriter.push_number) and reads them back in chunks the same way
(DigitReader.value).

Container layout (multi-byte integers little-endian):

    bytes 0-3   magic "PADC"
    byte  4     version (1)
    byte  5     P
    byte  6     N
    byte  7     flags: bit0 = midpoint renorm enabled, bit1 = flush mode
                (0 = shortest point, trimmed; 1 = left edge, full path)
    byte  8     model id: 0 static, 1 adaptive, 2 huffman, 3 unary
    bytes 9-10  alphabet size S (u16, excluding the end marker)
    ...         model payload:
                  static   -> (S+1) u32 counts, end marker last
                  huffman  -> S u8 canonical code lengths (P=2 only,
                              0 = symbol absent)
                  adaptive -> empty
                  unary    -> 1 byte, the repeated symbol's value
    ...         u64 digit count
    ...         packed digits

Writers and readers are single-owner objects; distinct instances are
independent.
"""

import math
import struct
from dataclasses import dataclass
from functools import cache
from itertools import product

from .core import GridParams

MAGIC = b"PADC"
VERSION = 1

FLAG_AR = 0x01
FLAG_FLUSH_LEFT = 0x02

MODEL_IDS = {"static": 0, "adaptive": 1, "huffman": 2, "unary": 3}
MODEL_KINDS = {v: k for k, v in MODEL_IDS.items()}

_HEADER = struct.Struct("<4sBBBBBH")
_COUNT = struct.Struct("<Q")


class ContainerError(ValueError):
    """Raised for malformed or unsupported container bytes."""


# P=2 digit values -> ASCII "0"/"1", for reading a digit list as a number.
_TO_CHARS = bytes.maketrans(b"\x00\x01", b"01")


@cache
def _digit_table(P):
    """(k, table) for the largest k >= 1 with P**k <= 256: table[v] is the
    k-byte digit string of v < P**k, first digit first."""
    k = max(1, int(math.log(256, P)))
    return k, [bytes(t) for t in product(range(P), repeat=k)]


class DigitWriter:
    def __init__(self, params: GridParams):
        self.params = params
        self.digit_count = 0
        self._buf = bytearray()
        self._acc = 0
        self._nbits = 0

    def push_number(self, value: int, n: int):
        """Append the n base-P digits of value, first digit most
        significant; the inverse of DigitReader.value."""
        P = self.params.P
        if not 0 <= value < P**n:
            raise ValueError(f"value {value} does not fit {n} base-{P} digits")
        self.digit_count += n
        if P > 2:
            k, table = _digit_table(P)
            q, head = divmod(n, k)
            parts = []
            for _ in range(q):
                value, low = divmod(value, len(table))
                parts.append(table[low])
            parts.append(table[value][k - head :])
            self._buf += b"".join(reversed(parts))
            return
        acc = (self._acc << n) | value
        nbits = self._nbits + n
        keep = nbits & 7
        if nbits > 7:
            self._buf += (acc >> keep).to_bytes(nbits >> 3, "big")
        self._acc = acc & ((1 << keep) - 1)
        self._nbits = keep

    def push_digits(self, digits):
        digits = bytes(digits)  # ValueError for values outside 0..255
        if digits and max(digits) >= self.params.P:
            raise ValueError(f"digit {max(digits)} out of range for P={self.params.P}")
        if self.params.P == 2:
            self.push_number(int(b"0" + digits.translate(_TO_CHARS), 2), len(digits))
        else:
            self.digit_count += len(digits)
            self._buf += digits

    def digits(self) -> list:
        """Every digit pushed so far, in order."""
        if self.params.P > 2:
            return list(self._buf)
        v = int.from_bytes(self._buf, "big") << self._nbits | self._acc
        return list(map(int, format(v | 1 << self.digit_count, "b")[1:]))

    def to_bytes(self) -> bytes:
        out = bytes(self._buf)
        if self._nbits:
            out += bytes([self._acc << (8 - self._nbits)])
        return out


class DigitReader:
    """Sequential digit reader; reads past the declared count return 0."""

    def __init__(self, params: GridParams, payload: bytes, declared_count: int):
        if params.P > 2 and payload[:declared_count].translate(None, bytes(range(params.P))):
            raise ContainerError(f"payload holds a digit outside base {params.P}")
        self.params = params
        self.payload = payload
        self.declared_count = declared_count
        self.consumed = 0

    @classmethod
    def from_digits(cls, params: GridParams, digits) -> "DigitReader":
        w = DigitWriter(params)
        w.push_digits(digits)
        return cls(params, w.to_bytes(), w.digit_count)

    def get_digit(self) -> int:
        self.consumed += 1
        return self.value(self.consumed - 1, 1)

    def get_digits(self, n: int):
        return [self.get_digit() for _ in range(n)]

    def value(self, start: int, n: int) -> int:
        """Digits start .. start+n-1 read as one base-P number, first digit
        most significant; digits at or past the declared count read as
        zero.  Does not move the read position."""
        P = self.params.P
        end = max(start, min(start + n, self.declared_count))
        if P == 2:
            lo, hi = start >> 3, (end + 7) >> 3
            v = int.from_bytes(self.payload[lo:hi], "big") >> ((hi << 3) - end)
            return (v & ((1 << (end - start)) - 1)) << (start + n - end)
        v = 0
        for d in self.payload[start:end]:
            v = v * P + d
        return v * P ** (start + n - end)


def payload_length(params: GridParams, digit_count: int) -> int:
    if params.P == 2:
        return (digit_count + 7) // 8
    return digit_count


@dataclass
class ContainerHeader:
    params: GridParams
    ar: bool
    flush: str  # "min" or "left"
    model_kind: str
    alphabet_size: int
    model_data: object  # counts / lengths / symbol byte / None
    digit_count: int


def write_container(header: ContainerHeader, digit_payload: bytes) -> bytes:
    params = header.params
    if header.model_kind not in MODEL_IDS:
        raise ValueError(f"unknown model kind {header.model_kind!r}")
    if not 0 <= header.alphabet_size <= 0xFFFF:
        raise ValueError("alphabet size out of range")
    flags = (FLAG_AR if header.ar else 0) | (
        FLAG_FLUSH_LEFT if header.flush == "left" else 0
    )
    out = bytearray(
        _HEADER.pack(
            MAGIC,
            VERSION,
            params.P,
            params.N,
            flags,
            MODEL_IDS[header.model_kind],
            header.alphabet_size,
        )
    )
    if header.model_kind == "static":
        counts = list(header.model_data)
        if len(counts) != header.alphabet_size + 1:
            raise ValueError("static model needs S+1 counts")
        for c in counts:
            if not 1 <= c <= 0xFFFFFFFF:
                raise ValueError(f"count {c} does not fit u32")
            out += struct.pack("<I", c)
    elif header.model_kind == "huffman":
        if params.P != 2:
            raise ValueError("huffman containers support P=2 only")
        lengths = list(header.model_data)
        if len(lengths) != header.alphabet_size:
            raise ValueError("huffman model needs S code lengths")
        for ln in lengths:
            if not 0 <= ln <= 0xFF:
                raise ValueError(f"code length {ln} does not fit u8")
            out.append(ln)
    elif header.model_kind == "unary":
        sym = int(header.model_data or 0)
        if not 0 <= sym <= 0xFF:
            raise ValueError("unary symbol value must fit one byte")
        out.append(sym)
    # adaptive: empty payload
    out += _COUNT.pack(header.digit_count)
    expected = payload_length(params, header.digit_count)
    if len(digit_payload) != expected:
        raise ValueError(
            f"digit payload of {len(digit_payload)} bytes, expected {expected}"
        )
    out += digit_payload
    return bytes(out)


def read_container(data: bytes):
    """Parse container bytes into (ContainerHeader, DigitReader)."""
    if len(data) < _HEADER.size:
        raise ContainerError("truncated header")
    magic, version, p, n, flags, model_id, alphabet_size = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ContainerError("bad magic")
    if version != VERSION:
        raise ContainerError(f"unsupported version {version}")
    if flags & ~(FLAG_AR | FLAG_FLUSH_LEFT):
        raise ContainerError(f"unknown flag bits 0x{flags:02x}")
    if model_id not in MODEL_KINDS:
        raise ContainerError(f"unknown model id {model_id}")
    try:
        params = GridParams(p, n)
    except ValueError as e:
        raise ContainerError(str(e)) from None
    kind = MODEL_KINDS[model_id]
    pos = _HEADER.size
    if kind == "static":
        want = 4 * (alphabet_size + 1)
        if len(data) < pos + want:
            raise ContainerError("truncated model payload")
        counts = list(
            struct.unpack_from(f"<{alphabet_size + 1}I", data, pos)
        )
        if any(c < 1 for c in counts):
            raise ContainerError("static model count below 1")
        pos += want
        model_data = counts
    elif kind == "huffman":
        if p != 2:
            raise ContainerError("huffman containers support P=2 only")
        if len(data) < pos + alphabet_size:
            raise ContainerError("truncated model payload")
        model_data = list(data[pos : pos + alphabet_size])
        pos += alphabet_size
    elif kind == "unary":
        if len(data) < pos + 1:
            raise ContainerError("truncated model payload")
        model_data = data[pos]
        pos += 1
    else:
        model_data = None
    if len(data) < pos + _COUNT.size:
        raise ContainerError("truncated digit count")
    (digit_count,) = _COUNT.unpack_from(data, pos)
    pos += _COUNT.size
    expected = payload_length(params, digit_count)
    payload = data[pos:]
    if len(payload) < expected:
        raise ContainerError("truncated payload")
    if len(payload) > expected:
        raise ContainerError("trailing bytes after payload")
    header = ContainerHeader(
        params=params,
        ar=bool(flags & FLAG_AR),
        flush="left" if flags & FLAG_FLUSH_LEFT else "min",
        model_kind=kind,
        alphabet_size=alphabet_size,
        model_data=model_data,
        digit_count=digit_count,
    )
    return header, DigitReader(params, payload, digit_count)
