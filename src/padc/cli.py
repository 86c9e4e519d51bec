"""Command-line front end: file encode/decode over the byte alphabet,
container inspection, and a corpus benchmark harness.

Exit codes: 0 success, 1 usage or model misconfiguration, 2 I/O failure,
3 bad container format or corrupt stream.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

from .codec import Decoder, Encoder, MalformedStreamError
from .core import GridParams
from .digitio import ContainerError, ContainerHeader, DigitWriter, model_bytes
from .digitio import read_container, write_container
from .models import AdaptiveModel, HuffmanModel, StaticModel, UnaryModel
from .models import canonical_codebook, huffman_code_lengths

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3

BYTE_ALPHABET = 256  # symbols are byte values; the end marker is index 256


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_USAGE)


def _check_grid(p, n):
    try:
        params = GridParams(p, n)
    except ValueError as e:
        raise CliError(str(e), EXIT_USAGE) from None
    if p > 255:
        raise CliError(f"P must fit the container's one-byte field, got {p}", EXIT_USAGE)
    if p == 2 and not 4 <= n <= 31:
        raise CliError(f"N must be in [4, 31] for P=2, got {n}", EXIT_USAGE)
    if n < 2:
        raise CliError("N must be at least 2 for coding", EXIT_USAGE)
    return params


def _scaled_counts(counts, cap):
    """Halve counts, each at least 1, until their total fits cap."""
    while sum(counts) > cap:
        shrunk = [max(1, c // 2) for c in counts]
        if shrunk == counts:
            raise CliError("cannot fit frequency table into grid", EXIT_USAGE)
        counts = shrunk
    return counts


def _read(path, what="input"):
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise CliError(f"cannot read {what}: {e}", EXIT_IO) from None


def _read_freq_file(path):
    fields = _read(path, "frequency file").split()
    if len(fields) != BYTE_ALPHABET + 1:
        raise CliError(
            f"frequency file needs {BYTE_ALPHABET + 1} counts, got {len(fields)}",
            EXIT_USAGE,
        )
    try:
        counts = [int(f) for f in fields]
    except ValueError:
        raise CliError("frequency file has non-integer entries", EXIT_USAGE) from None
    if any(c < 1 for c in counts):
        raise CliError("frequency counts must be >= 1", EXIT_USAGE)
    return counts


def _static_payload(data, params, freq_file):
    if freq_file is None:
        hist = Counter(data)
        counts = [hist[b] + 1 for b in range(BYTE_ALPHABET)] + [1]  # end marker last
    else:
        counts = _read_freq_file(freq_file)
    return _scaled_counts(counts, params.powers[params.N - 2])


def _adaptive_payload(data, params, freq_file):
    if BYTE_ALPHABET + 1 > params.powers[params.N - 2]:
        raise CliError("adaptive byte model needs P**(N-2) >= 257", EXIT_USAGE)
    return []


def _huffman_payload(data, params, freq_file):
    if params.P != 2:
        raise CliError("huffman mode supports P=2 only", EXIT_USAGE)
    hist = Counter(data)
    present = sorted(hist)
    if len(present) < 2:
        # A degenerate book takes a neighbouring byte, for a depth-1 tree.
        first = present[0] if present else 0
        present = sorted({first, (first + 1) % BYTE_ALPHABET})
    lens = huffman_code_lengths([hist[s] or 1 for s in present], max_len=params.N)
    book = dict(zip(present, lens))
    return [book.get(b, 0) for b in range(BYTE_ALPHABET)]


def _huffman_model(header):
    # Kraft equality, in O(S) before any codebook is built: only a
    # complete code tiles the grid.
    lengths, params = header.model_data, header.params
    if sum(params.powers[params.N - ln] for ln in lengths if ln) != params.size:
        raise ContainerError("huffman code lengths do not form a complete code")
    return HuffmanModel(canonical_codebook(lengths), params)


def _unary_payload(data, params, freq_file):
    if len(set(data)) > 1:
        raise ValueError("unary model needs a single repeated byte")
    return list(data[:1]) or [0]


class _Kind(NamedTuple):
    """A --model choice: payload(data, params, freq_file) gives the
    header's model_data, model(header) the model, and tables(model_data)
    the bytes.translate tables byte -> symbol and symbol -> byte."""

    payload: Callable
    model: Callable
    alphabet_size: int = BYTE_ALPHABET
    tables: Callable = lambda model_data: (None, None)  # identity


_KINDS = {
    "static": _Kind(_static_payload, lambda h: StaticModel(h.model_data, h.params)),
    "adaptive": _Kind(
        _adaptive_payload, lambda h: AdaptiveModel(h.alphabet_size, h.params)
    ),
    "huffman": _Kind(_huffman_payload, _huffman_model),
    "unary": _Kind(  # one symbol, 0, which stands for the stored byte
        _unary_payload, lambda h: UnaryModel(h.params), alphabet_size=1,
        tables=lambda model_data: (bytes(256), bytes(model_data) * 256),
    ),
}


def _model_from_header(header):
    """The model of a container header, and its kind's translate tables."""
    kind = _KINDS[header.model_kind]
    if header.alphabet_size > kind.alphabet_size:
        raise ContainerError(f"alphabet of {header.alphabet_size} symbols is too large")
    return kind.model(header), kind.tables(header.model_data)


def _encode_container(data, params, args, freq_file=None):
    """Encode a byte message with the coding flags of args; returns the
    container bytes."""
    kind = _KINDS[args.model]
    header = ContainerHeader(
        params=params,
        ar=not args.no_ar,
        flush=args.flush,
        model_kind=args.model,
        alphabet_size=kind.alphabet_size,
        model_data=kind.payload(data, params, freq_file),
        digit_count=0,
    )
    # Built from the header, as padc decode does, so both ends agree.
    model, (to_symbols, _) = _model_from_header(header)
    writer = DigitWriter(params)
    enc = Encoder(model, ar=header.ar)
    enc.run(data.translate(to_symbols), writer)
    writer.push_digits(enc.finish(flush=header.flush))
    header.digit_count = writer.digit_count
    return write_container(header, writer.to_bytes())


def _decode_bytes(header, reader):
    model, (_, to_bytes) = _model_from_header(header)
    out = Decoder(reader, model, ar=header.ar).run(bytearray())
    return bytes(out).translate(to_bytes)


def cmd_encode(args):
    if args.freq_file is not None and args.model != "static":
        raise CliError("--freq-file applies to --model static only", EXIT_USAGE)
    params = _check_grid(args.P, args.N)
    data = _read(args.input)
    try:
        blob = _encode_container(data, params, args, args.freq_file)
    except ValueError as e:
        raise CliError(f"model misconfiguration: {e}", EXIT_USAGE) from None
    try:
        Path(args.output).write_bytes(blob)
    except OSError as e:
        raise CliError(f"cannot write output: {e}", EXIT_IO) from None
    print(f"original {len(data)} bytes, compressed {len(blob)} bytes")
    return EXIT_OK


def cmd_decode(args):
    blob = _read(args.input)
    try:
        header, reader = read_container(blob)
        data = _decode_bytes(header, reader)
    except ContainerError as e:
        raise CliError(f"bad container: {e}", EXIT_FORMAT) from None
    except (MalformedStreamError, ValueError) as e:
        raise CliError(f"corrupt stream: {e}", EXIT_FORMAT) from None
    try:
        Path(args.output).write_bytes(data)
    except OSError as e:
        raise CliError(f"cannot write output: {e}", EXIT_IO) from None
    return EXIT_OK


def cmd_stats(args):
    blob = _read(args.input)
    try:
        header, reader = read_container(blob)
    except ContainerError as e:
        raise CliError(f"bad container: {e}", EXIT_FORMAT) from None
    print(f"P: {header.params.P}")
    print(f"N: {header.params.N}")
    print(f"ar: {'on' if header.ar else 'off'}")
    print(f"flush: {header.flush}")
    print(f"model: {header.model_kind}")
    print(f"alphabet_size: {header.alphabet_size}")
    print(f"model_bytes: {model_bytes(header)}")
    print(f"digit_count: {header.digit_count}")
    print(f"payload_bytes: {len(reader.payload)}")
    print(f"container_bytes: {len(blob)}")
    return EXIT_OK


def cmd_bench(args):
    params = _check_grid(args.P, args.N)
    root = Path(args.directory)
    if not root.is_dir():
        raise CliError(f"not a directory: {root}", EXIT_IO)
    files = sorted(p for p in root.iterdir() if p.is_file())
    print("name,original_bytes,compressed_bytes,bits_per_byte,seconds,status")
    total_in = total_out = 0
    total_time = 0.0
    for path in files:
        try:
            data = path.read_bytes()
            start = time.perf_counter()
            blob = _encode_container(data, params, args)
            elapsed = time.perf_counter() - start
        except (OSError, ValueError) as e:
            print(f"{path.name},,,,,failed: {e}", file=sys.stderr)
            print(f"{path.name},0,0,,0.000,failed")
            continue
        bpb = 8 * len(blob) / len(data) if data else 0.0
        total_in += len(data)
        total_out += len(blob)
        total_time += elapsed
        print(
            f"{path.name},{len(data)},{len(blob)},{bpb:.4f},{elapsed:.3f},ok"
        )
    total_bpb = 8 * total_out / total_in if total_in else 0.0
    print(f"TOTAL,{total_in},{total_out},{total_bpb:.4f},{total_time:.3f},ok")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="padc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def coding_flags(p):
        p.add_argument(
            "--model",
            choices=list(_KINDS),
            default="adaptive",
        )
        p.add_argument("-P", type=int, default=2, help="prime grid base")
        p.add_argument("-N", type=int, default=31, help="grid level")
        p.add_argument("--no-ar", action="store_true", help="disable straddle renorm")
        p.add_argument("--flush", choices=["min", "left"], default="min")

    enc = sub.add_parser("encode", help="compress a file into a container")
    coding_flags(enc)
    enc.add_argument("--freq-file", help="static model: 257 whitespace-separated counts")
    enc.add_argument("input")
    enc.add_argument("output")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="reconstruct a file from a container")
    dec.add_argument("input")
    dec.add_argument("output")
    dec.set_defaults(func=cmd_decode)

    st = sub.add_parser("stats", help="print container header fields")
    st.add_argument("input")
    st.set_defaults(func=cmd_stats)

    bench = sub.add_parser("bench", help="compress every file in a directory, CSV out")
    coding_flags(bench)
    bench.add_argument("directory")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as e:
        print(f"padc: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
