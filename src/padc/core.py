"""Grid arithmetic for the ring of integers mod P**N.

An index k in [0, P**N) names one of the P**N grid points that subdivide
the unit interval, and an interval [l, r) of indexes (r = 0 standing for
P**N) is the coder's state.  This module holds the grid parameters and
the interval arithmetic the coder runs: width and the point with the
shortest path.  A point's path is its base-P digits read most
significant first; padc.reference spells out that notation.

All functions here are pure and all values immutable, so they are safe
to share between threads.
"""

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class GridParams:
    """Grid parameters: prime base P and level N (ring size P**N)."""

    P: int
    N: int
    size: int = field(init=False, repr=False, compare=False)
    powers: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.P):
            raise ValueError(f"P must be a prime >= 2, got {self.P}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        size = self.P ** self.N
        if size > MAX_RING:
            raise ValueError(f"P**N too large (P={self.P}, N={self.N})")
        object.__setattr__(self, "size", size)
        object.__setattr__(
            self, "powers", tuple(self.P ** i for i in range(self.N + 1))
        )


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

    Built greedily: path digit N-1 of the result is index digit 0, so
    the low index digits are chosen smallest-first, keeping a residue
    class that still intersects [l, r).  The path order is a strict
    total order on indexes, so the result is unique; a brute-force scan
    (oracles.brute_select_point) validates the greedy construction.
    """
    _check_interval(l, r, params)
    hi = (r if r > l else params.size) - 1  # last point of the interval
    v = 0
    mod = 1
    for _ in range(params.N):
        step = mod * params.P
        for d in range(params.P):
            cand = v + d * mod
            first = l + ((cand - l) % step)  # smallest x >= l, x = cand (mod step)
            if first <= hi:
                v = cand
                break
        else:  # pragma: no cover - nonempty intervals always admit a digit
            raise AssertionError("no feasible digit")
        mod = step
    return v
