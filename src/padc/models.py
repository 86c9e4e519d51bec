"""Probability models: symbol -> cell of the current interval.

A model splits the width w of the coder's current interval into one
cell per symbol: code(s, w) returns the offsets (a, b) of symbol s's
cell, and decode(off, w) returns (a, b, s) for the cell that holds the
offset off, with 0 <= a <= off < b <= w.  The coder adds the interval's
left edge, wraps on the ring and rejects an empty cell or an offset
past the width; a model sees neither the interval's edges nor the ring.
Encoder and decoder must drive their models with the same symbol
sequence so that any internal updates stay in sync.  Static, Huffman
and unary models are immutable and shareable; an adaptive model
instance belongs to one coding session.

Table models subdivide with the integer form

    a = floor(w * C[i] / T),  b = floor(w * C[i+1] / T)

with C the cumulative count table and T its total, which tiles [0, w)
exactly: no gaps, no overlaps.  When w equals T the floors are exact,
a = C[i] and b = C[i+1], and the table models take that path without a
multiply or divide.  A Huffman model always does: its total is P**N and
every symbol starts from the full ring.  A coding static model never
does: its total is at most GridParams.cap, the one model cap, below the
width floor cap + 1.  The adaptive model reads C from a table built at
its last rebuild plus a sorted log of the symbols coded since then.
"""

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from itertools import accumulate

from .core import GridParams

# Symbols coded between rebuilds of the adaptive model's cumulative table.
_REBUILD_EVERY = 64


class StaticModel:
    """Fixed cumulative-frequency model; the last index is end-of-message.

    Counts must all be at least 1.  Full-stream coding additionally needs
    the total to fit the grid (total <= params.cap); that is checked when a
    coding session starts, not here, so narrow test tables stay usable.
    """

    def __init__(self, counts, params: GridParams):
        counts = list(counts)
        if not counts:
            raise ValueError("need at least one symbol count")
        if any(c < 1 for c in counts):
            raise ValueError("all symbol counts must be >= 1")
        self.params = params
        self.num_symbols = len(counts)
        self.cum = list(accumulate(counts, initial=0))
        self.total = self.cum[-1]
        if self.total > params.size:
            raise ValueError("count total exceeds ring size")
        self.eom = len(counts) - 1
        self.symbols = range(len(counts))  # row -> symbol
        self.rows = dict(zip(self.symbols, self.symbols))  # symbol -> row

    def validate_for_coding(self):
        if self.total > self.params.cap:
            raise ValueError(
                f"count total {self.total} exceeds grid cap {self.params.cap}"
                f" (P={self.params.P}, N={self.params.N})"
            )

    def code(self, symbol, w):
        i = self.rows.get(symbol)
        if i is None:
            raise ValueError(f"unknown symbol {symbol!r}")
        cum, total = self.cum, self.total
        if w == total:
            return cum[i], cum[i + 1]
        return w * cum[i] // total, w * cum[i + 1] // total

    def decode(self, off, w):
        cum, total = self.cum, self.total
        if w == total:
            i = bisect_right(cum, off) - 1
            return cum[i], cum[i + 1], self.symbols[i]
        # Row i has the largest C = cum[i] with floor(w*C/total) <= off, so
        # its cell holds off and is never empty.
        i = bisect_right(cum, (total * (off + 1) - 1) // w) - 1
        return w * cum[i] // total, w * cum[i + 1] // total, self.symbols[i]


class AdaptiveModel:
    """Order-0 adaptive model: every count starts at 1 and grows by 1 per
    coded symbol.  When the total would pass the grid cap (params.cap)
    all counts are halved (floor, clamped to 1).  Encoder and decoder apply
    the same updates, so their tables agree at every step.

    The exact counts sit in a plain list, beside a cumulative table from
    the last rebuild (cum[i] counts the symbols below i, for i < n) and
    the sorted log of symbols coded since then: the exact count below i
    is cum[i] + bisect_left(recent, i), two C-level lookups, and a coded
    symbol joins the log at that index.  The table is rebuilt when the
    total reaches _due: _REBUILD_EVERY symbols on, or past the cap.
    """

    def __init__(self, alphabet_size, params: GridParams):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        self.params = params
        if alphabet_size + 1 > params.cap:
            raise ValueError(
                f"alphabet of {alphabet_size} symbols (+EOM)"
                f" exceeds grid cap {params.cap}"
            )
        self.eom = alphabet_size
        self.num_symbols = self.total = alphabet_size + 1
        self._count = [1] * self.num_symbols
        self._rebuild()

    def counts(self):
        return list(self._count)

    def validate_for_coding(self):
        pass

    def _rebuild(self):
        if self.total > self.params.cap:
            self._count = [max(1, c // 2) for c in self._count]
            self.total = sum(self._count)
        self._cum = list(accumulate(self._count[:-1], initial=0))
        self._recent = []
        self._due = min(self.total + _REBUILD_EVERY, self.params.cap + 1)

    def code(self, symbol, w):
        if not 0 <= symbol < self.num_symbols:
            raise ValueError(f"unknown symbol {symbol!r}")
        count, recent, total = self._count, self._recent, self.total
        j = bisect_left(recent, symbol)
        lo = self._cum[symbol] + j
        c = count[symbol]
        count[symbol] = c + 1
        self.total = total + 1
        recent.insert(j, symbol)
        if total + 1 == self._due:
            self._rebuild()
        return w * lo // total, w * (lo + c) // total

    def decode(self, off, w):
        count, cum, recent, total = self._count, self._cum, self._recent, self.total
        # x is the largest cumulative count C with floor(w*C/total) <= off.
        # The stale table undercounts, so its symbol is an upper bound.
        x = (total * (off + 1) - 1) // w
        symbol = bisect_right(cum, x) - 1
        j = bisect_left(recent, symbol)
        while cum[symbol] + j > x:
            symbol -= 1
            j = bisect_left(recent, symbol)
        lo = cum[symbol] + j
        # lo <= x < lo + c, so the located cell holds off and is never empty.
        c = count[symbol]
        count[symbol] = c + 1
        self.total = total + 1
        recent.insert(j, symbol)
        if total + 1 == self._due:
            self._rebuild()
        return w * lo // total, w * (lo + c) // total, symbol


class HuffmanModel(StaticModel):
    """Static table model derived from a complete prefix-free base-P
    codebook.

    The rows go in codeword order and each spans P**(N - len) points,
    the grid cell of its codeword path lifted to level N, so the table
    total is P**N and every coded symbol leaves the coder back at the
    full interval.  With eom_symbol=None the model carries no terminator
    and streams are delimited by their digit count instead.
    """

    def __init__(self, codebook, params: GridParams, eom_symbol=None):
        if not codebook:
            raise ValueError("empty codebook")
        self.codebook = {s: tuple(cw) for s, cw in codebook.items()}
        if eom_symbol is not None and eom_symbol not in self.codebook:
            raise ValueError(f"eom symbol {eom_symbol!r} not in codebook")
        P, N, pw = params.P, params.N, params.powers
        order = sorted(self.codebook, key=self.codebook.get)
        widths, starts = [], []
        for s in order:
            cw = self.codebook[s]
            if len(cw) > N:
                raise ValueError(f"codeword for {s!r} longer than grid level {N}")
            if any(not 0 <= d < P for d in cw):
                raise ValueError(f"codeword for {s!r} has digits outside base {P}")
            start = 0
            for d in cw:
                start = start * P + d
            widths.append(pw[N - len(cw)])
            starts.append(start * widths[-1])
        super().__init__(widths, params)
        # The cells tile the grid exactly iff the code is complete and
        # prefix-free.
        if self.total != params.size or self.cum[:-1] != starts:
            raise ValueError(
                "codebook cells do not tile the grid (code not complete and prefix-free)"
            )
        self.eom = eom_symbol
        self.symbols = order
        self.rows = {s: i for i, s in enumerate(order)}

    def validate_for_coding(self):
        # Whole grid cells code at any total, but an empty codeword emits
        # no digits, so without an end marker its count would be lost.
        if self.eom is None and not all(self.codebook.values()):
            raise ValueError("delimiterless coding needs nonempty codewords")


class UnaryModel:
    """Single-symbol model: each symbol shaves one grid point off the
    right edge, end-of-message takes the last remaining point.  With a
    grid of 2**(N'+1) this reproduces Golomb-Rice codes of parameter N'."""

    num_symbols = 1
    eom = 1

    def __init__(self, params: GridParams):
        self.params = params

    def validate_for_coding(self):
        pass

    def code(self, symbol, w):
        if symbol == 0:
            return 0, w - 1
        if symbol == self.eom:
            return w - 1, w
        raise ValueError(f"unknown symbol {symbol!r}")

    def decode(self, off, w):
        if off == w - 1:
            return w - 1, w, self.eom
        return 0, w - 1, 0


def huffman_code_lengths(freqs, max_len=None):
    """Binary Huffman code lengths for positive frequencies.

    Merges the two lightest nodes in the two-queue order, through one heap
    keyed (weight, 0, symbol) for leaves and (weight, 1, node) for merged
    nodes, numbered n, n+1, ... as they are made.  A symbol's length is
    its depth, counted down the merged nodes' parent links.  If max_len
    is given and the optimal tree is deeper, frequencies are flattened
    (halved, floored at 1) until the tree fits.
    """
    freqs = list(freqs)
    if any(f < 1 for f in freqs):
        raise ValueError("frequencies must be >= 1")
    n = len(freqs)
    if n == 0:
        return []
    if n == 1:
        return [0]
    if max_len is not None and (n - 1).bit_length() > max_len:
        raise ValueError(f"{n} symbols cannot fit codes of length <= {max_len}")
    while True:
        heap = [(f, 0, s) for s, f in enumerate(freqs)]
        heapify(heap)
        parent = [0] * (2 * n - 1)
        for node in range(n, 2 * n - 1):
            fa, _, a = heappop(heap)
            fb, _, b = heappop(heap)
            parent[a] = parent[b] = node
            heappush(heap, (fa + fb, 1, node))
        depth = [0] * (2 * n - 1)  # the root, node 2n-2, is at depth 0
        for node in range(2 * n - 3, -1, -1):
            depth[node] = depth[parent[node]] + 1
        lengths = depth[:n]
        if max_len is None or max(lengths) <= max_len:
            return lengths
        freqs = [max(1, f // 2) for f in freqs]


def canonical_codebook(lengths):
    """Canonical binary codebook from per-symbol code lengths.

    Length 0 marks a symbol with no codeword.  Codes are assigned in
    (length, symbol) order, so the array of lengths fully determines the
    book and can serve as its serialized form.
    """
    order = sorted(
        (length, s) for s, length in enumerate(lengths) if length > 0
    )
    book = {}
    code = 0
    prev_len = order[0][0] if order else 0
    for length, s in order:
        code <<= length - prev_len
        prev_len = length
        book[s] = tuple([(code >> (length - 1 - j)) & 1 for j in range(length)])
        code += 1
    return book
