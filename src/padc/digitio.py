"""Ordered base-P digit streams and the self-describing container format.

Digits are stored in blocks, under one rule for every P.  A block holds
B digits, stored as one big-endian base-P number in
K = ceil(bitlen(P**B - 1) / 8) bytes, first digit most significant; B
is the smallest B in 1..512 that minimises K/B.  That gives
(B, K) = (8, 1), (429, 85), (410, 119), (379, 133) for P = 2, 3, 5, 7,
so P = 2 packs eight digits per byte, first digit in the most
significant bit.  The last r = count mod B digits take
k_r = ceil(bitlen(P**r - 1) / 8) bytes: they are zero-padded at the low
end to the d_r digits that fit, d_r the largest d with
P**d <= 256**k_r, so the padding reads as the zeros readers return past
the declared digit count anyway.  Readers reject a block outside its
range and nonzero padding.  This packing rule lives here alone: the
coder hands runs of digits over as one base-P number
(DigitWriter.push_number) and reads them back in chunks the same way
(DigitReader.value).  Digit strings, one byte per digit (push_digits
takes any sequence of ints; digits and get_digits return bytes),
convert block by block at every P; only those two per-chunk calls keep
a byte path for P = 2, where a block is one byte.

Container layout:

    bytes 0-3   magic "PADC"
    byte  4     version (3; readers refuse versions 1 and 2, which
                stored the model payload and digit count as fixed-width
                fields, and version 1 also P > 2 digits one per byte)
    byte  5     P
    byte  6     N
    byte  7     flags: bit0 = midpoint renorm enabled, bit1 = flush mode
                (0 = shortest point, trimmed; 1 = left edge, full path)
    byte  8     model id: 0 static, 1 adaptive, 2 huffman, 3 unary
    bytes 9-10  alphabet size S (u16, little-endian, excluding the end
                marker)
    ...         one run of Elias gamma codes, zero-padded to a whole
                byte; each value v >= 1 is bitlen(v) - 1 zeros, then v
                in binary.  The run holds the model payload, each value
                plus the bias that _MODEL_LAYOUTS gives its kind:
                  static   -> the S+1 counts (1 .. 2**32-1), end marker
                              last
                  huffman  -> each of the S canonical code lengths plus
                              1 (P=2 only, 0 = symbol absent, at most N)
                  adaptive -> nothing
                  unary    -> the repeated symbol's byte value plus 1
                then the digit count plus 1 (count < 2**64), so no value
                is wider than 65 bits
    ...         digit blocks, then the final partial block (big-endian)

ContainerHeader.model_data holds the payload's values without their
bias, always as a list: [] for adaptive, [byte] for unary.  Each model
kind is one _MODEL_LAYOUTS row, its id and payload layout; the one rule
about a kind's meaning here is the format's own: huffman is P=2 only.

Writers and readers are single-owner objects; distinct instances are
independent.
"""

import math
import struct
from functools import cache
from itertools import product

from .core import GridParams, _Record

MAGIC = b"PADC"
VERSION = 3

FLAG_AR = 0x01
FLAG_FLUSH_LEFT = 0x02

# kind -> (model id, layout): layout(S, N) is the (values, bias, top) of
# its payload at alphabet size S and grid level N: the number of values,
# what is added to each to store it, and the largest value allowed.
_MODEL_LAYOUTS = {
    "static": (0, lambda S, N: (S + 1, 0, 2**32 - 1)),
    "adaptive": (1, lambda S, N: (0, 1, 0)),
    "huffman": (2, lambda S, N: (S, 1, N)),
    "unary": (3, lambda S, N: (1, 1, 255)),
}
MODEL_IDS = {kind: row[0] for kind, row in _MODEL_LAYOUTS.items()}
MODEL_KINDS = {v: k for k, v in MODEL_IDS.items()}

_HEADER = struct.Struct("<4sBBBBBH")
_MAX_BLOCK = 512
_JOIN_RUN = 512  # table entries _base_digits joins at a time
_MAX_GAMMA = 65  # bits in the widest run value, a digit count of 2**64 - 1 plus 1


class ContainerError(ValueError):
    """Raised for malformed or unsupported container bytes."""


def _nbytes(v):
    return (v.bit_length() + 7) // 8


@cache
def _block(P):
    """(B, K): B digits per block in K bytes, the B in 1..512 with the
    least K/B, ties to the smaller B."""
    if P > 256:
        raise ValueError(f"base-{P} digits do not fit in a byte")
    best = (1, _nbytes(P - 1))
    top = P
    for b in range(2, _MAX_BLOCK + 1):
        top *= P
        k = _nbytes(top - 1)
        if k * best[0] < best[1] * b:
            best = (b, k)
    return best


@cache
def _tail(P, r):
    """(k_r, d_r) for a final block of r digits: its bytes, and the
    digits it is zero-padded to."""
    k = _nbytes(P**r - 1)
    d = r
    while P ** (d + 1) <= 256**k:
        d += 1
    return k, d


@cache
def _powers(P):
    """P**i for i = 0 .. B."""
    return tuple([P**i for i in range(_block(P)[0] + 1)])


@cache
def _digit_table(P):
    """(k, table) for the largest k >= 1 with P**k <= 256: table[v] is the
    k-byte digit string of v < P**k, first digit first."""
    k = max(1, int(math.log(256, P)))
    return k, [bytes(t) for t in product(range(P), repeat=k)]


def _base_digits(values, n, P):
    """The n base-P digits of each v < P**n in values, first most
    significant, joined in order as bytes."""
    k, table = _digit_table(P)
    if n == k:  # in runs, so that join's per-item buffers stay bounded
        get, runs = table.__getitem__, range(0, len(values), _JOIN_RUN)
        return b"".join([b"".join(map(get, values[i : i + _JOIN_RUN])) for i in runs])
    q, head = divmod(n, k)
    out = []
    for v in values:
        parts = []
        for _ in range(q):
            v, low = divmod(v, len(table))
            parts.append(table[low])
        parts.append(table[v][k - head :])
        out.append(b"".join(reversed(parts)))
    return b"".join(out)


class DigitWriter:
    def __init__(self, params: GridParams):
        self.params = params
        self.digit_count = 0
        self._B, self._K = _block(params.P)
        self._buf = bytearray()  # the full blocks
        self._acc = 0  # the digit_count % B digits after them, as a number

    def push_number(self, value: int, n: int):
        """Append the n base-P digits of value, first digit most
        significant; the inverse of DigitReader.value."""
        P, B, K = self.params.P, self._B, self._K
        pn = P**n
        if not 0 <= value < pn:
            raise ValueError(f"value {value} does not fit {n} base-{P} digits")
        q, rest = divmod(self.digit_count % B + n, B)
        self.digit_count += n
        acc = self._acc * pn + value
        if not q:
            self._acc = acc
            return
        acc, self._acc = divmod(acc, P**rest)
        if P == 2:  # 8-digit blocks are bytes: q of them convert at once
            self._buf += acc.to_bytes(q, "big")
            return
        top = _powers(P)[B]
        blocks = []
        for _ in range(q):
            acc, v = divmod(acc, top)
            blocks.append(v.to_bytes(K, "big"))
        self._buf += b"".join(reversed(blocks))

    def push_digits(self, digits):
        digits = bytes(digits)  # ValueError for values outside 0..255
        P, B = self.params.P, self._B
        if digits and max(digits) >= P:
            raise ValueError(f"digit {max(digits)} out of range for P={P}")
        for i in range(0, len(digits), B):
            piece = digits[i : i + B]
            v = 0
            for d in piece:
                v = v * P + d
            self.push_number(v, len(piece))

    def digits(self) -> bytes:
        """Every digit pushed so far, in order, one byte each."""
        P, B, K, buf = self.params.P, self._B, self._K, self._buf
        blocks = [int.from_bytes(buf[i : i + K], "big") for i in range(0, len(buf), K)]
        tail = _base_digits([self._acc], self.digit_count % B, P)
        return _base_digits(blocks, B, P) + tail

    def to_bytes(self) -> bytes:
        P, r = self.params.P, self.digit_count % self._B
        k, d = _tail(P, r)
        return bytes(self._buf) + (self._acc * P ** (d - r)).to_bytes(k, "big")


class DigitReader:
    """Sequential digit reader; reads past the declared count return 0.

    Raises ContainerError for a block outside its range and for nonzero
    padding digits."""

    def __init__(self, params: GridParams, payload: bytes, declared_count: int):
        P = params.P
        B, K = _block(P)
        full, r = divmod(declared_count, B)
        k, d = _tail(P, r)
        last = int.from_bytes(payload[full * K : full * K + k], "big")
        if last >= P**d:
            raise ContainerError(f"final digit block outside base {P}")
        if last % P ** (d - r):
            raise ContainerError("nonzero padding digits after the final digit")
        # Every block as a B-digit number, the final one zero-extended.
        self._pw = pw = _powers(P)
        if K == 1:  # then d = B: the bytes are the blocks, the final one too
            blocks = payload[: full + k]
        else:
            blocks = [
                int.from_bytes(payload[i : i + K], "big") for i in range(0, full * K, K)
            ]
            if r:
                blocks.append(last // P ** (d - r) * pw[B - r])
        if pw[B] < 256**K and max(blocks, default=0) >= pw[B]:
            raise ContainerError(f"digit block outside base {P}")
        self._blocks = blocks
        self._B = B
        self.params = params
        self.payload = payload
        self.declared_count = declared_count
        self.consumed = 0

    @classmethod
    def from_digits(cls, params: GridParams, digits) -> "DigitReader":
        w = DigitWriter(params)
        w.push_digits(digits)
        return cls(params, w.to_bytes(), w.digit_count)

    def get_digits(self, n: int) -> bytes:
        """The next n digits, one byte each; moves the read position."""
        start = self.consumed
        self.consumed += n
        P, B, blocks = self.params.P, self._B, self._blocks
        if n < B:  # fewer than a block: convert only these
            return _base_digits((self.value(start, n),), n, P)
        i = start // B
        out = _base_digits(blocks[i : (start + n + B - 1) // B], B, P)
        out = out[start - i * B : start - i * B + n]
        return out.ljust(n, b"\0")

    def value(self, start: int, n: int) -> int:
        """Digits start .. start+n-1 read as one base-P number, first digit
        most significant; digits at or past the declared count read as
        zero.  Does not move the read position."""
        P = self.params.P
        if P == 2:
            end = max(start, min(start + n, self.declared_count))
            lo, hi = start >> 3, (end + 7) >> 3
            v = int.from_bytes(self.payload[lo:hi], "big") >> ((hi << 3) - end)
            return (v & ((1 << (end - start)) - 1)) << (start + n - end)
        B, blocks, pw = self._B, self._blocks, self._pw
        end = min(start + n, len(blocks) * B)
        if end <= start:
            return 0
        i, j = divmod(start, B)
        v = blocks[i] % pw[B - j]  # digits start .. e-1
        e = start - j + B
        while e < end:
            v = v * pw[B] + blocks[e // B]
            e += B
        return v // pw[e - end] * P ** (start + n - end)


def payload_length(params: GridParams, digit_count: int) -> int:
    B, K = _block(params.P)
    full, r = divmod(digit_count, B)
    return full * K + _tail(params.P, r)[0]


class ContainerHeader(_Record):
    """A container's header fields: mutable, so an encoder can fill in
    digit_count once the payload is done."""

    _fields = (
        "params",
        "ar",
        "flush",
        "model_kind",
        "alphabet_size",
        "model_data",
        "digit_count",
    )

    def __init__(
        self,
        params: GridParams,
        ar: bool,
        flush: str,  # "min" or "left"
        model_kind: str,
        alphabet_size: int,
        model_data: list,  # the model payload's values, without their bias
        digit_count: int,
    ):
        self.params = params
        self.ar = ar
        self.flush = flush
        self.model_kind = model_kind
        self.alphabet_size = alphabet_size
        self.model_data = model_data
        self.digit_count = digit_count


def _run_values(header: ContainerHeader):
    """The values of header's gamma run, each at least 1: the model
    payload's, then the digit count plus 1.  Raises ValueError for a
    payload or digit count outside its range."""
    kind, model = header.model_kind, header.model_data
    count, bias, top = _MODEL_LAYOUTS[kind][1](header.alphabet_size, header.params.N)
    if len(model) != count:
        raise ValueError(f"{kind} model needs {count} values, got {len(model)}")
    for v in model:
        if not 1 - bias <= v <= top:
            raise ValueError(f"{kind} model value {v} outside {1 - bias}..{top}")
    if not 0 <= header.digit_count < 2**64:
        raise ValueError(f"digit count {header.digit_count} outside 0..2**64-1")
    return [v + bias for v in model] + [header.digit_count + 1]


def model_bytes(header: ContainerHeader) -> int:
    """The byte length of header's gamma run in its container."""
    return len(_write_run(_run_values(header)))


def _write_run(values) -> bytes:
    """Elias gamma codes of values >= 1, zero-padded to whole bytes."""
    bits = "".join([format(v, "b").zfill(2 * v.bit_length() - 1) for v in values])
    return (int(bits, 2) << -len(bits) % 8).to_bytes((len(bits) + 7) // 8, "big")


def _read_run(data: bytes, start: int, n: int):
    """(values, end): the n gamma values from byte start of data, and the
    byte after their padding.  No value is wider than _MAX_GAMMA bits, so
    only the (2 * _MAX_GAMMA - 1) * n bits from start are read."""
    window = data[start : start + ((2 * _MAX_GAMMA - 1) * n + 7) // 8]
    bits = format(int.from_bytes(window, "big") | 1 << 8 * len(window), "b")[1:]
    values = []
    pos = 0
    for _ in range(n):
        one = bits.find("1", pos, pos + _MAX_GAMMA)
        if one < 0:
            if len(bits) - pos < _MAX_GAMMA:
                raise ContainerError("truncated model payload or digit count")
            raise ContainerError(f"gamma value too wide (over {_MAX_GAMMA} bits)")
        end = 2 * one - pos + 1
        if end > len(bits):
            raise ContainerError("truncated model payload or digit count")
        values.append(int(bits[one:end], 2))
        pos = end
    if "1" in bits[pos : -pos % 8 + pos]:
        raise ContainerError("nonzero padding bits after the model payload")
    return values, start + (pos + 7) // 8


def write_container(header: ContainerHeader, digit_payload: bytes) -> bytes:
    params, kind = header.params, header.model_kind
    if kind not in MODEL_IDS:
        raise ValueError(f"unknown model kind {kind!r}")
    if kind == "huffman" and params.P != 2:
        raise ValueError("huffman containers support P=2 only")
    if header.flush not in ("min", "left") or not isinstance(header.ar, bool):
        raise ValueError(f"bad flags: flush={header.flush!r}, ar={header.ar!r}")
    flags = (FLAG_AR if header.ar else 0) | (
        FLAG_FLUSH_LEFT if header.flush == "left" else 0
    )
    try:
        fixed = _HEADER.pack(
            MAGIC,
            VERSION,
            params.P,
            params.N,
            flags,
            MODEL_IDS[kind],
            header.alphabet_size,
        )
    except struct.error as e:
        raise ValueError(f"{kind} container header does not fit: {e}") from None
    run = _write_run(_run_values(header))
    expected = payload_length(params, header.digit_count)
    if len(digit_payload) != expected:
        raise ValueError(
            f"digit payload of {len(digit_payload)} bytes, expected {expected}"
        )
    return fixed + run + digit_payload


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
    if kind == "huffman" and p != 2:
        raise ContainerError("huffman containers support P=2 only")
    count, bias, top = _MODEL_LAYOUTS[kind][1](alphabet_size, n)
    values, pos = _read_run(data, _HEADER.size, count + 1)
    model = [v - bias for v in values[:-1]]
    if max(model, default=0) > top:
        raise ContainerError(f"{kind} model value {max(model)} above {top}")
    digit_count = values[-1] - 1
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
        model_data=model,
        digit_count=digit_count,
    )
    return header, DigitReader(params, payload, digit_count)
