"""Grid arithmetic for the ring of integers mod P**N.

An index k in [0, P**N) names one of the P**N grid points that subdivide
the unit interval, and an interval [l, r) of indexes (r = 0 standing for
P**N) is the coder's state.  This module holds the grid parameters,
the interval arithmetic the coder runs (width and the point with the
shortest path) and the record bases of padc's value classes.  A point's
path is its base-P digits read most significant first; padc.reference
spells out that notation.

All functions here are pure and GridParams is immutable, so they are
safe to share between threads.  The record bases themselves allow
assignment: a subclass such as padc.digitio.ContainerHeader may be
mutable.
"""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Ring sizes are kept below 2**62 so that widths and cumulative-count
# products stay inside a conceptual double-width integer even in ports
# to fixed-width languages.
MAX_RING = 1 << 62


class _Record:
    """Base of padc's small value classes: __eq__ and __repr__ over the
    attributes named in _fields, with a dataclass's rules (a record
    equals only a record of its own class, and a mutable one is
    unhashable).  Written out because importing dataclasses pulls
    inspect, ast and dis into every padc start-up."""

    _fields = ()
    __hash__ = None

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({args})"


class _FrozenRecord(_Record):
    """An immutable, hashable _Record.  __init__ stores its attributes
    through vars(self); copy and pickle restore them the same way."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class GridParams(_FrozenRecord):
    """Grid parameters: prime base P and level N (ring size P**N), with
    the derived size = P**N, powers = (P**0, ..., P**N) and cap = P**(N-2)
    (0 below level 2), the one definition of the model cap: the coder's
    width floor, cap + 1, leaves no cell of a total up to cap empty."""

    _fields = ("P", "N")

    def __init__(self, P: int, N: int):
        if not is_prime(P):
            raise ValueError(f"P must be a prime >= 2, got {P}")
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        size = P**N
        if size > MAX_RING:
            raise ValueError(f"P**N too large (P={P}, N={N})")
        powers = tuple([P**i for i in range(N + 1)])
        cap = powers[N - 2] if N >= 2 else 0
        vars(self).update(P=P, N=N, size=size, powers=powers, cap=cap)


def _check_index(k: int, params: GridParams) -> None:
    if not 0 <= k < params.size:
        raise ValueError(f"index {k} outside ring of size {params.size}")


def _check_interval(l: int, r: int, params: GridParams) -> None:
    _check_index(l, params)
    _check_index(r, params)
    if r != 0 and r <= l:
        raise ValueError(f"empty interval [{l}, {r})")


def interval_width(l: int, r: int, params: GridParams) -> int:
    """Width of [l, r) under ring semantics; (0, 0) is the full ring."""
    w = (r - l) % params.size
    return w if w else params.size


def shortest_path_point(l: int, r: int, params: GridParams) -> int:
    """The point of [l, r) whose path, read as a number, is smallest.

    Path digit N-1 is index digit 0, so the smallest path has the most
    trailing zero index digits: it is the least multiple of the largest
    P**k that [l, r) holds.  None of its multiples there is a multiple
    of P**(k+1), so they differ in index digit k alone and the least has
    the smallest path.  A brute-force scan (brute_select_point in the
    tests' oracles module) validates this.
    """
    _check_interval(l, r, params)
    hi = (r if r > l else params.size) - 1  # last point of the interval
    for pk in reversed(params.powers):
        q = -(-l // pk) * pk
        if q <= hi:
            return q
