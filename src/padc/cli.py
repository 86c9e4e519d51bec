"""Command-line front end: file encode/decode over the byte alphabet,
container inspection, and a corpus benchmark harness.

Exit codes: 0 success, 1 usage or model misconfiguration, 2 I/O failure,
3 bad container format or corrupt stream.
"""

import argparse
import sys
import time
from itertools import repeat
from pathlib import Path

from .codec import Decoder, Encoder, MalformedStreamError
from .core import GridParams
from .digitio import (
    ContainerError,
    ContainerHeader,
    DigitWriter,
    read_container,
    write_container,
)
from .models import (
    AdaptiveModel,
    HuffmanModel,
    StaticModel,
    UnaryModel,
    canonical_codebook,
    huffman_code_lengths,
)

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
    if p == 2 and not 4 <= n <= 31:
        raise CliError(f"N must be in [4, 31] for P=2, got {n}", EXIT_USAGE)
    if n < 2:
        raise CliError("N must be at least 2 for coding", EXIT_USAGE)
    return params


def _scaled_counts(counts, cap):
    counts = [max(1, c) for c in counts]
    while sum(counts) > cap:
        shrunk = [max(1, c // 2) for c in counts]
        if shrunk == counts:
            raise CliError("cannot fit frequency table into grid", EXIT_USAGE)
        counts = shrunk
    return counts


def _read_freq_file(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(f"cannot read frequency file: {e}", EXIT_IO) from None
    fields = text.split()
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


def _build_encode_model(kind, data, params, freq_file):
    """Alphabet size and container descriptor of the model for a byte message."""
    cap = params.powers[params.N - 2]
    if kind == "adaptive":
        if BYTE_ALPHABET + 1 > cap:
            raise CliError(
                f"adaptive byte model needs P**(N-2) >= {BYTE_ALPHABET + 1}",
                EXIT_USAGE,
            )
        return BYTE_ALPHABET, None
    if kind == "static":
        if freq_file is not None:
            counts = _read_freq_file(freq_file)
        else:
            counts = [0] * BYTE_ALPHABET + [1]  # end marker owns the last slot
            for b in data:
                counts[b] += 1
            counts = [c + 1 for c in counts[:-1]] + [1]
        counts = _scaled_counts(counts, cap)
        return BYTE_ALPHABET, counts
    if kind == "huffman":
        if params.P != 2:
            raise CliError("huffman mode supports P=2 only", EXIT_USAGE)
        hist = [0] * BYTE_ALPHABET
        for b in data:
            hist[b] += 1
        present = [s for s, c in enumerate(hist) if c]
        if len(present) < 2:
            # Degenerate books are padded to a complete depth-1 tree.
            a = present[0] if present else 0
            b = (a + 1) % BYTE_ALPHABET
            lengths = [0] * BYTE_ALPHABET
            lengths[a] = lengths[b] = 1
        else:
            freqs = [hist[s] for s in present]
            lens = huffman_code_lengths(freqs, max_len=params.N)
            lengths = [0] * BYTE_ALPHABET
            for s, ln in zip(present, lens):
                lengths[s] = ln
        return BYTE_ALPHABET, lengths
    if kind == "unary":
        distinct = set(data)
        if len(distinct) > 1:
            raise ValueError("unary model needs a single repeated byte")
        sym = distinct.pop() if distinct else 0
        return 1, sym
    raise CliError(f"unknown model {kind!r}", EXIT_USAGE)


def _model_from_header(header):
    params = header.params
    kind = header.model_kind
    if kind == "adaptive":
        return AdaptiveModel(header.alphabet_size, params)
    if kind == "static":
        return StaticModel(header.model_data, params)
    if kind == "huffman":
        return HuffmanModel(canonical_codebook(header.model_data), params)
    if kind == "unary":
        return UnaryModel(params)
    raise ContainerError(f"unknown model kind {kind!r}")


def _encode_container(data, params, args, freq_file=None):
    """Encode a byte message with the coding flags of args; returns the
    container bytes."""
    alphabet_size, descriptor = _build_encode_model(args.model, data, params, freq_file)
    header = ContainerHeader(
        params=params,
        ar=not args.no_ar,
        flush=args.flush,
        model_kind=args.model,
        alphabet_size=alphabet_size,
        model_data=descriptor,
        digit_count=0,
    )
    # Built from the header, as padc decode does, so both ends agree.
    model = _model_from_header(header)
    writer = DigitWriter(params)
    enc = Encoder(model, ar=header.ar)
    enc.run(repeat(0, len(data)) if model.kind == "unary" else data, writer)
    writer.push_digits(enc.finish(flush=header.flush))
    header.digit_count = writer.digit_count
    return write_container(header, writer.to_bytes())


def _decode_bytes(header, reader):
    model = _model_from_header(header)
    out = Decoder(reader, model, ar=header.ar).run(bytearray())
    if model.kind == "unary":
        return bytes([header.model_data]) * len(out)
    return bytes(out)


def cmd_encode(args):
    params = _check_grid(args.P, args.N)
    try:
        data = Path(args.input).read_bytes()
    except OSError as e:
        raise CliError(f"cannot read input: {e}", EXIT_IO) from None
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
    try:
        blob = Path(args.input).read_bytes()
    except OSError as e:
        raise CliError(f"cannot read input: {e}", EXIT_IO) from None
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
    try:
        blob = Path(args.input).read_bytes()
    except OSError as e:
        raise CliError(f"cannot read input: {e}", EXIT_IO) from None
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
            choices=["static", "adaptive", "unary", "huffman"],
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
