"""The paper's notation and the per-event reference transitions.

An index k in [0, P**N) names one of the P**N grid points that subdivide
the unit interval.  Its *path* is the base-P digit vector of k read most
significant digit first: path digit j equals index digit N-1-j.  Read as
a polynomial in P (least significant coefficient first) the path is again
a number in [0, P**N), so the two views are exchanged by reversing digit
order.  Two indexes share the first n path digits exactly when their
paths, as numbers, differ by a multiple of P**n; that valuation is what
decides how many digits the coder can emit.  DigitVec and the digit
surgery functions (take, drop, lift, cut, trim) spell the algorithm out
in that notation.

renorm_prefix, straddle_check, straddle_fold and straddle_flush apply
one rescaling event at a time to a codec.CoderState.  They are the
reference the fused loops of Encoder.run and Decoder.run are tested
against, symbol by symbol.  Encoder.run and Encoder.finish still call
renorm_prefix (the valve's prefix) and straddle_flush (straddle exits):
tools that count those events do so by wrapping the two names in the
codec module.  The functions here only read and set the state's
attributes, so this module imports nothing from the coder.

All functions here except the transitions are pure and all values
immutable, so they are safe to share between threads.
"""

from dataclasses import dataclass

from .core import GridParams, _check_index, _check_interval


@dataclass(frozen=True)
class DigitVec:
    """Base-P digit sequence in path order (coefficient of P**0 first)."""

    digits: tuple
    p: int

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        for d in self.digits:
            if not 0 <= d < self.p:
                raise ValueError(f"digit {d} out of range for base {self.p}")

    def __len__(self):
        return len(self.digits)

    def __getitem__(self, i: int) -> int:
        return self.digits[i]

    @property
    def value(self) -> int:
        """The vector read as a number: sum of digit[j] * P**j."""
        v = 0
        for d in reversed(self.digits):
            v = v * self.p + d
        return v

    @classmethod
    def from_value(cls, value: int, p: int, n: int) -> "DigitVec":
        if not 0 <= value < p ** n:
            raise ValueError(f"value {value} out of range for {n} base-{p} digits")
        digits = []
        for _ in range(n):
            digits.append(value % p)
            value //= p
        return cls(tuple(digits), p)


def to_path(a: int, params: GridParams) -> DigitVec:
    """Path of grid index `a`: its base-P digits in reversed order."""
    _check_index(a, params)
    digits = []
    v = a
    for _ in range(params.N):
        digits.append(v % params.P)
        v //= params.P
    digits.reverse()
    return DigitVec(tuple(digits), params.P)


def to_index(x: DigitVec) -> int:
    """Grid index of a path: reverse the digits back."""
    k = 0
    for d in x.digits:
        k = k * x.p + d
    return k


def digit_reverse(k: int, params: GridParams) -> int:
    """Value of to_path(k); its own inverse for a fixed grid."""
    _check_index(k, params)
    v = 0
    for _ in range(params.N):
        v = v * params.P + k % params.P
        k //= params.P
    return v


def ord_p(x: int, p: int) -> int:
    """Largest r with p**r dividing x.  Undefined (rejected) for x <= 0."""
    if x <= 0:
        raise ValueError("ord_p requires a positive argument")
    r = 0
    while x % p == 0:
        x //= p
        r += 1
    return r


def prefix_agreement(x: int, y: int, params: GridParams) -> int:
    """Shared leading path digits of two paths given by their values.

    N when equal, otherwise the valuation of the difference.  Because the
    valuation of a nonzero ring element is below N, plain integer
    subtraction of the smaller from the larger gives the same answer as
    ring subtraction.
    """
    _check_index(x, params)
    _check_index(y, params)
    if x == y:
        return params.N
    return ord_p(abs(x - y), params.P)


def common_path_len(l: int, r: int, params: GridParams) -> int:
    """Length of the path prefix shared by every point of [l, r).

    r = 0 denotes P**N, so (0, 0) is the full interval.  Equals the
    number of leading base-P digits that the indexes l and r-1 share,
    which is the same as prefix_agreement of their paths.
    """
    _check_interval(l, r, params)
    r1 = (r - 1) % params.size
    if l == r1:
        return params.N
    if params.P == 2:
        return params.N - (l ^ r1).bit_length()
    n = 0
    scale = params.size // params.P
    while scale > 1 and l // scale == r1 // scale:
        n += 1
        scale //= params.P
    # scale == 1 with equal prefixes would mean l == r1, handled above.
    return n


def path_digit(k: int, i: int, params: GridParams) -> int:
    """Path digit i of index k (digit N-1-i of k in base P)."""
    return (k // params.powers[params.N - 1 - i]) % params.P


def leading_path_digits(k: int, n: int, params: GridParams) -> tuple:
    """First n path digits of index k, in emission order."""
    return tuple(path_digit(k, i, params) for i in range(n))


def prefix_rescale(k: int, n: int, params: GridParams) -> int:
    """Drop the first n path digits of index k and re-lift to level N.

    Index form of lift(res(path, n), n): keep the low N-n index digits
    and shift them up by n places.
    """
    return (k % params.powers[params.N - n]) * params.powers[n]


def squeeze_second_digit(k: int, params: GridParams) -> int:
    """Remove path digit 1 of index k and append a zero digit.

    Index form of lift(cut(path, 1, 1), 1): digit N-2 of the index is
    dropped and the part below it shifts up one place.
    """
    top = params.powers[params.N - 1]
    return (k // top) * top + (k % params.powers[params.N - 2]) * params.P


def take_digits(x: DigitVec, j: int = None) -> tuple:
    """First j digits of x in stream order (all digits when j is omitted)."""
    if j is None:
        return x.digits
    if not 0 <= j <= len(x):
        raise ValueError(f"cannot take {j} digits from a vector of {len(x)}")
    return x.digits[:j]


def drop_digits(x: DigitVec, j: int) -> DigitVec:
    """Drop the first j digits of x, shifting the rest down."""
    if not 0 <= j <= len(x):
        raise ValueError(f"cannot drop {j} digits from a vector of {len(x)}")
    return DigitVec(x.digits[j:], x.p)


def lift(x: DigitVec, j: int) -> DigitVec:
    """Append j zero digits (j >= 0) or remove |j| trailing zeros (j < 0).

    Appending does not change the vector's value, only its level; a
    negative lift is rejected unless the removed digits are all zero.
    """
    if j >= 0:
        return DigitVec(x.digits + (0,) * j, x.p)
    if j < -len(x):
        raise ValueError(f"cannot remove {-j} digits from a vector of {len(x)}")
    tail = x.digits[len(x) + j:]
    if any(tail):
        raise ValueError("negative lift over nonzero digits")
    return DigitVec(x.digits[: len(x) + j], x.p)


def cut_digits(x: DigitVec, pos: int, m: int) -> DigitVec:
    """Remove m digits starting at position pos and shrink the vector."""
    if pos < 0 or m < 0 or pos + m > len(x):
        raise ValueError(f"cut({pos}, {m}) out of range for length {len(x)}")
    return DigitVec(x.digits[:pos] + x.digits[pos + m:], x.p)


def trimmed_len(x: DigitVec) -> int:
    """Digit count up to and including the last nonzero digit.

    0 for the all-zero vector: a zero path emits nothing, since readers
    zero-extend past the end of a stream.
    """
    for j in range(len(x) - 1, -1, -1):
        if x.digits[j]:
            return j + 1
    return 0


def joint_trimmed_len(x: DigitVec, y: DigitVec) -> int:
    """Highest level a pair of paths needs: max of the trimmed lengths."""
    return max(trimmed_len(x), trimmed_len(y))


def renorm_prefix(state):
    """Emit the edges' shared leading path digits and shift them out.

    No-op (empty emission) when the edges already disagree at the first
    digit.  Must not run while a fold is pending: the shared-prefix claim
    only holds for unfolded intervals.
    """
    assert state.pending == 0
    n = common_path_len(state.l, state.r, state.params)
    if n == 0:
        return []
    out = list(leading_path_digits(state.l, n, state.params))
    state.l = prefix_rescale(state.l, n, state.params)
    state.r = prefix_rescale(state.r, n, state.params)
    return out


def straddle_check(l: int, r: int, params: GridParams) -> bool:
    """True when the interval hugs a level-1 point within its innermost
    level-2 neighbourhood: l's path starts (n-1, P-1, ...) and r's path
    starts (n, 0, ...)."""
    if params.N < 2:
        return False
    top = params.powers[params.N - 1]
    sub = params.powers[params.N - 2]
    if r // top - l // top != 1:
        return False
    return (l // sub) % params.P == params.P - 1 and (r // sub) % params.P == 0


def straddle_fold(state):
    """Fold the interval around the straddled level-1 point.

    Sets the pivot on first use, bumps the pending count, and removes
    path digit 1 from both edges (appending a zero at the bottom), which
    doubles the interval's width without emitting anything.
    """
    params = state.params
    if state.pivot == 0:
        state.pivot = state.r // params.powers[params.N - 1]
    state.pending += 1
    state.l = squeeze_second_digit(state.l, params)
    state.r = squeeze_second_digit(state.r, params)


def exits_left(pivot: int, l: int, params: GridParams) -> bool:
    """Interval now lies at or right of the pivot point."""
    return l // params.powers[params.N - 1] >= pivot


def exits_right(pivot: int, r: int, params: GridParams) -> bool:
    """Interval now lies left of the pivot point (r at most the pivot).

    r == pivot * P**(N-1) means the right edge sits exactly on the
    pivot, which still puts the whole half-open interval on its left.
    """
    top = params.powers[params.N - 1]
    return r // top < pivot or r == pivot * top


def straddle_flush(state):
    """Resolve pending folds once the interval has left the pivot.

    Exit to the left of the interval (interval right of pivot): the
    deferred digits are the pivot followed by pending zeros.  Exit to
    the right (interval left of pivot): pivot-1 followed by pending
    copies of P-1.  Both edges then shed one path digit.  Returns None
    while the interval still straddles the pivot.  The two exits cannot
    both apply to a nonempty interval; left is checked first, which also
    resolves the r = 0 right edge correctly.
    """
    params = state.params
    assert state.pending > 0
    if exits_left(state.pivot, state.l, params):
        out = [state.pivot] + [0] * state.pending
    elif exits_right(state.pivot, state.r, params):
        out = [state.pivot - 1] + [params.P - 1] * state.pending
    else:
        return None
    top = params.powers[params.N - 1]
    state.l = (state.l % top) * params.P
    state.r = (state.r % top) * params.P
    state.pivot = 0
    state.pending = 0
    return out
