"""The verdict, workload table and container check of tools/ab.py."""

import importlib.util
import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ab imports its quartiles from pairs, a sibling on sys.path when run as a script.
_load("pairs")
ab = _load("ab")

# A/A quartiles (exclusive method) 0.9875, 1.0 and 1.0125: a spread of 0.025.
AA = [0.98, 0.99, 1.0, 1.01, 1.02] * 2


def test_nine_of_ten_wins_beyond_the_aa_spread_is_faster():
    ratios = [1.2] * 9 + [0.99]
    assert ab.verdict(ratios, AA) == "faster"
    assert ab.verdict([1 / x for x in ratios], AA) == "slower"


def test_eight_wins_are_unresolved():
    assert ab.verdict([1.2] * 8 + [0.9] * 2, AA) == "unresolved"


def test_an_effect_inside_the_aa_spread_is_noise():
    assert ab.verdict([1.02] * 10, AA) == "noise"
    assert ab.verdict([0.98] * 10, AA) == "noise"


def test_the_aa_spread_reaches_one():
    # A/A quartiles 1.0875 and 1.1125 off to one side: the spread is the
    # interval [1, 1.1125], so an effect of 0.1 is inside it.
    aa = [x + 0.1 for x in AA]
    assert ab.verdict([1.1] * 10, aa) == "noise"
    assert ab.verdict([1.2] * 10, aa) == "faster"


def test_ties_count_for_neither_side():
    assert ab.verdict([1.2] * 8 + [1.0] * 2, AA) == "unresolved"


def test_needs_matched_rounds():
    with pytest.raises(ValueError):
        ab.verdict([1.1] * 9, AA)
    with pytest.raises(ValueError):
        ab.verdict([], [])


def test_workload_table_is_the_benchmarks():
    workloads = ab.load_workloads(ROOT)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(workloads) == [w["name"] for w in bench["workloads"]]
    make, flags = workloads["text-static-p3-noar"]
    assert flags == ["--model", "static", "-P", "3", "-N", "20", "--no-ar"]
    assert len(make(0, 100)) == 100


class _FakeCli:
    """A cli.main that copies its input, with its own container bytes,
    and appends (name, direction) to calls, when given, on every call."""

    def __init__(self, mark, calls=None, name=None):
        self.mark = mark
        self.calls = calls
        self.__name__ = name or f"fake{mark}"

    def main(self, argv):
        if self.calls is not None:
            self.calls.append((self.__name__, argv[0]))
        src, dst = Path(argv[-2]), Path(argv[-1])
        data = src.read_bytes()
        dst.write_bytes(self.mark + data if argv[0] == "encode" else data[1:])
        return 0


def test_measure_times_every_arm_in_every_round(tmp_path):
    clis = {arm: _FakeCli(b"x") for arm in ab.ARMS}
    times = ab.measure(clis, b"abc", [], tmp_path, rounds=3)
    assert {d: {a: len(t) for a, t in arms.items()} for d, arms in times.items()} == {
        d: dict.fromkeys(ab.ARMS, 3) for d in ("encode", "decode")
    }
    assert len(ab.report("w", times)) == 2


def test_every_arm_runs_in_every_position_in_each_direction(tmp_path):
    calls = []
    clis = {arm: _FakeCli(b"x", calls, arm) for arm in ab.ARMS}
    rounds = 6
    ab.measure(clis, b"abc", [], tmp_path, rounds=rounds)
    for direction in ("encode", "decode"):
        arms = [name for name, d in calls if d == direction]
        orders = [tuple(arms[i : i + 3]) for i in range(0, len(arms), 3)]
        assert len(orders) == rounds
        for position in range(3):
            assert {order[position] for order in orders} == set(ab.ARMS)
        # Each arm runs before each other arm in half of the rounds.
        for a, b in itertools.permutations(ab.ARMS, 2):
            assert sum(o.index(a) < o.index(b) for o in orders) == rounds // 2


def test_refuses_to_report_when_containers_differ(tmp_path):
    clis = {"parent": _FakeCli(b"x"), "change": _FakeCli(b"y"), "aa": _FakeCli(b"x")}
    with pytest.raises(SystemExit, match="containers differ"):
        ab.measure(clis, b"abc", [], tmp_path, rounds=1)


def test_loads_a_package_under_its_own_name(tmp_path, capsys):
    try:
        cli = ab.load_cli(ROOT / "src" / "padc", "_ab_test")
        assert cli.__name__ == "_ab_test.cli"
        assert cli.Encoder.__module__ == "_ab_test.codec"
        times = ab.measure({arm: cli for arm in ab.ARMS}, b"abracadabra", [], tmp_path, rounds=1)
        assert all(len(t) == 1 for arms in times.values() for t in arms.values())
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "_ab_test"]:
            del sys.modules[name]
