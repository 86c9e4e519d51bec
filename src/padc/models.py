"""Probability models: symbol -> subinterval subdivision over the grid.

A model turns the current interval (l, r) into the subinterval of an
incoming symbol (code) and back (decode).  Encoder and decoder must
drive their models with the same symbol sequence so that any internal
updates stay in sync.  Static, Huffman and unary models are immutable
and shareable; an adaptive model instance belongs to one coding session.

Intervals follow ring semantics: r = 0 stands for P**N, so (0, 0) is the
full interval.  Subdivision uses the integer form

    l_new = l + floor(w * C[i] / T),  r_new = l + floor(w * C[i+1] / T)

with w the interval width and C the cumulative count table, which tiles
[l, r) exactly: no gaps, no overlaps.  The adaptive model reads C from a
table built at its last rebuild plus a sorted log of the symbols coded
since then.
"""

from bisect import bisect_left, bisect_right, insort
from itertools import accumulate

from .core import GridParams, interval_width

# Symbols coded between rebuilds of the adaptive model's cumulative table.
_REBUILD_EVERY = 64


def _subdivide(l, lo, hi, w, total, size):
    l_new = (l + w * lo // total) % size
    r_new = (l + w * hi // total) % size
    if l_new == r_new and hi - lo != total:
        raise ValueError(
            f"empty symbol interval (width {w} too narrow for total {total})"
        )
    return l_new, r_new


class StaticModel:
    """Fixed cumulative-frequency model; the last index is end-of-message.

    Counts must all be at least 1.  Full-stream coding additionally needs
    the total to fit the grid (total <= P**(N-2)); that is checked when a
    coding session starts, not here, so narrow test tables stay usable.
    """

    kind = "static"

    def __init__(self, counts, params: GridParams):
        counts = list(counts)
        if not counts:
            raise ValueError("need at least one symbol count")
        if any(c < 1 for c in counts):
            raise ValueError("all symbol counts must be >= 1")
        self.params = params
        self.counts = counts
        self.cum = [0]
        for c in counts:
            self.cum.append(self.cum[-1] + c)
        self.total = self.cum[-1]
        if self.total > params.size:
            raise ValueError("count total exceeds ring size")
        self.eom = len(counts) - 1
        self.symbols = range(len(counts))  # row -> symbol
        self.rows = dict(zip(self.symbols, self.symbols))  # symbol -> row

    @property
    def num_symbols(self):
        return len(self.counts)

    def validate_for_coding(self):
        cap = self.params.powers[self.params.N - 2] if self.params.N >= 2 else 0
        if self.total > cap:
            raise ValueError(
                f"count total {self.total} exceeds grid cap {cap}"
                f" (P={self.params.P}, N={self.params.N})"
            )

    def code(self, symbol, l, r):
        i = self.rows.get(symbol)
        if i is None:
            raise ValueError(f"unknown symbol {symbol!r}")
        w = interval_width(l, r, self.params)
        return _subdivide(
            l, self.cum[i], self.cum[i + 1], w, self.total, self.params.size
        )

    def decode(self, g, l, r):
        w = interval_width(l, r, self.params)
        off = (g - l) % self.params.size
        if off >= w:
            raise ValueError(f"code point {g} outside interval [{l}, {r})")
        # Largest cumulative value C with floor(w*C/total) <= off.
        i = bisect_right(self.cum, (self.total * (off + 1) - 1) // w) - 1
        l_new, r_new = _subdivide(
            l, self.cum[i], self.cum[i + 1], w, self.total, self.params.size
        )
        return l_new, r_new, self.symbols[i]


class AdaptiveModel:
    """Order-0 adaptive model: every count starts at 1 and grows by 1 per
    coded symbol.  When the total would pass the grid cap P**(N-2) all
    counts are halved (floor, clamped to 1).  Encoder and decoder apply
    the same updates, so their tables agree at every step.

    The exact counts sit in a plain list, beside a cumulative table from
    the last rebuild (cum[i] counts the symbols below i, for i < n) and
    the sorted log of symbols coded since then: the exact count below i
    is cum[i] + bisect_left(recent, i), two C-level lookups.  The table
    is rebuilt every _REBUILD_EVERY symbols and when counts are halved.
    """

    kind = "adaptive"

    def __init__(self, alphabet_size, params: GridParams):
        if alphabet_size < 1:
            raise ValueError("alphabet size must be >= 1")
        self.params = params
        self.cap = params.powers[params.N - 2] if params.N >= 2 else 0
        if alphabet_size + 1 > self.cap:
            raise ValueError(
                f"alphabet of {alphabet_size} symbols (+EOM) exceeds grid cap {self.cap}"
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
        if self.total > self.cap:
            self._count = [max(1, c // 2) for c in self._count]
            self.total = sum(self._count)
        self._cum = list(accumulate(self._count[:-1], initial=0))
        self._recent = []

    def code(self, symbol, l, r):
        if not 0 <= symbol < self.num_symbols:
            raise ValueError(f"unknown symbol {symbol!r}")
        size = self.params.size
        w = (r - l) % size or size
        count, recent, total = self._count, self._recent, self.total
        lo = self._cum[symbol] + bisect_left(recent, symbol)
        c = count[symbol]
        l_new = (l + w * lo // total) % size
        r_new = (l + w * (lo + c) // total) % size
        if l_new == r_new and c != total:
            raise ValueError(
                f"empty symbol interval (width {w} too narrow for total {total})"
            )
        count[symbol] = c + 1
        self.total = total + 1
        insort(recent, symbol)
        if len(recent) == _REBUILD_EVERY or total >= self.cap:
            self._rebuild()
        return l_new, r_new

    def decode(self, g, l, r):
        size = self.params.size
        w = (r - l) % size or size
        off = (g - l) % size
        if off >= w:
            raise ValueError(f"code point {g} outside interval [{l}, {r})")
        count, cum, recent, total = self._count, self._cum, self._recent, self.total
        # x is the largest cumulative count C with floor(w*C/total) <= off.
        # The stale table undercounts, so its symbol is an upper bound.
        x = (total * (off + 1) - 1) // w
        symbol = bisect_right(cum, x) - 1
        lo = cum[symbol] + bisect_left(recent, symbol)
        while lo > x:
            symbol -= 1
            lo = cum[symbol] + bisect_left(recent, symbol)
        c = count[symbol]
        l_new = (l + w * lo // total) % size
        r_new = (l + w * (lo + c) // total) % size
        if l_new == r_new and c != total:
            raise ValueError(
                f"empty symbol interval (width {w} too narrow for total {total})"
            )
        count[symbol] = c + 1
        self.total = total + 1
        insort(recent, symbol)
        if len(recent) == _REBUILD_EVERY or total >= self.cap:
            self._rebuild()
        return l_new, r_new, symbol


class HuffmanModel(StaticModel):
    """Static table model derived from a complete prefix-free base-P
    codebook.

    The rows go in codeword order and each spans P**(N - len) points,
    the grid cell of its codeword path lifted to level N, so the table
    total is P**N and every coded symbol leaves the coder back at the
    full interval.  With eom_symbol=None the model carries no terminator
    and streams are delimited by their digit count instead.
    """

    kind = "huffman"

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

    @property
    def min_codeword_len(self):
        return min(len(cw) for cw in self.codebook.values())

    def validate_for_coding(self):
        pass


class UnaryModel:
    """Single-symbol model: each symbol shaves one grid point off the
    right edge, end-of-message takes the last remaining point.  With a
    grid of 2**(N'+1) this reproduces Golomb-Rice codes of parameter N'."""

    kind = "unary"

    num_symbols = 1
    eom = 1

    def __init__(self, params: GridParams):
        self.params = params

    def validate_for_coding(self):
        pass

    def code(self, symbol, l, r):
        size = self.params.size
        if symbol == 0:
            return l, (r - 1) % size
        if symbol == self.eom:
            return (r - 1) % size, r
        raise ValueError(f"unknown symbol {symbol!r}")

    def decode(self, g, l, r):
        size = self.params.size
        w = interval_width(l, r, self.params)
        if (g - l) % size >= w:
            raise ValueError(f"code point {g} outside interval [{l}, {r})")
        rm1 = (r - 1) % size
        if g == rm1:
            return l, r, self.eom
        return l, rm1, 0


def huffman_code_lengths(freqs, max_len=None):
    """Binary Huffman code lengths for positive frequencies.

    Two-queue construction over the sorted leaves.  If max_len is given
    and the optimal tree is deeper, frequencies are flattened (halved,
    floored at 1) and the tree rebuilt until it fits.
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
        leaves = sorted(range(n), key=lambda s: (freqs[s], s))
        q1 = [(freqs[s], (s,)) for s in leaves]
        q2 = []
        i = 0

        def pop_min():
            nonlocal i
            if i < len(q1) and (not q2 or q1[i][0] <= q2[0][0]):
                item = q1[i]
                i += 1
                return item
            return q2.pop(0)

        depth = {s: 0 for s in range(n)}
        remaining = n
        while remaining > 1:
            fa, sa = pop_min()
            fb, sb = pop_min()
            for s in sa + sb:
                depth[s] += 1
            q2.append((fa + fb, sa + sb))
            remaining -= 1
        lengths = [depth[s] for s in range(n)]
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
        book[s] = tuple((code >> (length - 1 - j)) & 1 for j in range(length))
        code += 1
    return book


def code_lengths(codebook, num_symbols):
    """Per-symbol code lengths of a codebook, 0 for absent symbols."""
    lengths = [0] * num_symbols
    for s, cw in codebook.items():
        lengths[s] = len(cw)
    return lengths
