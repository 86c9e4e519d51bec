"""Arithmetic coding over the finite ring of integers mod P**N.

Messages shrink an interval of grid indexes; the digits the coder emits
are the path digits shared by the interval edges, so output is built
least significant digit first and decoding is incremental.  Special
models reproduce Huffman and Golomb-Rice codes bit for bit.

The paper's digit-path notation and the per-event reference transitions
the coder is tested against live in padc.reference, which this package
does not re-export.
"""

from .codec import (
    CoderState,
    Decoder,
    Encoder,
    MalformedStreamError,
    decode,
    encode,
    width_floor,
)
from .core import GridParams, interval_width, shortest_path_point
from .digitio import (
    ContainerError,
    ContainerHeader,
    DigitReader,
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
    code_lengths,
    huffman_code_lengths,
)

__all__ = [
    "AdaptiveModel",
    "CoderState",
    "ContainerError",
    "ContainerHeader",
    "Decoder",
    "DigitReader",
    "DigitWriter",
    "Encoder",
    "GridParams",
    "HuffmanModel",
    "MalformedStreamError",
    "StaticModel",
    "UnaryModel",
    "canonical_codebook",
    "code_lengths",
    "decode",
    "encode",
    "huffman_code_lengths",
    "interval_width",
    "read_container",
    "shortest_path_point",
    "width_floor",
    "write_container",
]
