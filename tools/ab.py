"""In-process A/B timing of two checkouts' padc, with an A/A control.

    python3 tools/ab.py PARENT CHANGE [--seed 0]

One process imports PARENT's and CHANGE's src/padc under distinct
package names, and PARENT's a second time as the A/A arm.  For each
workload of perfbench/harness.py's WORKLOADS table (read from CHANGE)
it builds the seeded 32 KiB perfbench corpus and, for each of 40
rounds, times one `padc encode` and one `padc decode` CLI call per arm,
in process, through each arm's cli.main.  The rounds cycle through the
six orders of the three arms, the same order in both directions of a
round, so every arm runs in every position, and before and after each
other arm, about equally often.  The containers of all arms must be
byte-identical and decode to the corpus: the tool exits 1 without a
report as soon as one differs.

Per workload and direction it prints the speed ratio change/parent
(parent seconds over change seconds) as median [quartiles] with the
rounds the change won, and the A/A ratio (parent over its copy) the
same way.  The verdict is "faster" or "slower" when the change wins,
or loses, at least nine rounds in ten and the median ratio lies
further from 1 than the A/A spread; the A/A spread is the width of the
smallest interval holding both A/A quartiles and 1.  Otherwise it is
"noise" when the median lies inside that spread, else "unresolved".

Stdlib only.  It reads perfbench/ and never writes there; it is a
measurement tool and not part of the test suite.
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import itertools
import sys
import tempfile
import time
from pathlib import Path

from pairs import quartiles

ARMS = ("parent", "change", "aa")
CORPUS_BYTES = 32 * 1024  # perfbench's corpus size
ROUNDS = 40


def verdict(ratios, aa_ratios):
    """"faster", "slower", "noise" or "unresolved" for the per-round
    speed ratios of the change against those of the A/A control."""
    n = len(ratios)
    if not n or len(aa_ratios) != n:
        raise ValueError("need the same nonzero number of A/B and A/A rounds")
    q1, _, q3 = quartiles(aa_ratios)
    spread = max(q3, 1) - min(q1, 1)
    effect = quartiles(ratios)[1] - 1
    wins = sum(x > 1 for x in ratios)
    losses = sum(x < 1 for x in ratios)
    if effect > spread and 10 * wins >= 9 * n:
        return "faster"
    if -effect > spread and 10 * losses >= 9 * n:
        return "slower"
    return "noise" if abs(effect) <= spread else "unresolved"


def load_cli(src, name):
    """padc.cli of the package directory src, imported as name.cli."""
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(name + ".cli")


def load_workloads(root):
    """{name: (corpus function, encode flags)} from root's perfbench.
    harness.py imports padc, so its WORKLOADS table is read as source;
    corpus.py imports only the stdlib."""
    bench = root / "perfbench"
    tree = ast.parse((bench / "harness.py").read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "WORKLOADS"
    ]
    spec = importlib.util.spec_from_file_location("_ab_corpus", bench / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return {
        key.value: (getattr(corpus, value.elts[0].attr), ast.literal_eval(value.elts[1]))
        for key, value in zip(table.keys, table.values)
    }


def _timed(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - t0
    if rc:
        raise SystemExit(f"{cli.__name__} {argv[0]} exited {rc}")
    return elapsed


def measure(clis, data, flags, workdir, rounds=ROUNDS):
    """{direction: {arm: [seconds per round]}} of encoding and decoding
    data with each arm's cli; raises SystemExit when the containers or
    the decoded bytes differ between arms."""
    src = workdir / "input.bin"
    src.write_bytes(data)
    times = {d: {arm: [] for arm in clis} for d in ("encode", "decode")}
    orders = itertools.cycle(itertools.permutations(clis))
    for order in itertools.islice(orders, rounds):
        for direction in ("encode", "decode"):
            for arm in order:
                blob, out = workdir / f"{arm}.padc", workdir / f"{arm}.out"
                argv = ["encode", *flags, str(src), str(blob)]
                if direction == "decode":
                    argv = ["decode", str(blob), str(out)]
                times[direction][arm].append(_timed(clis[arm], argv))
        blobs = {(workdir / f"{arm}.padc").read_bytes() for arm in clis}
        if len(blobs) != 1:
            raise SystemExit("containers differ between the arms; no report")
        if any((workdir / f"{arm}.out").read_bytes() != data for arm in clis):
            raise SystemExit("an arm decoded other bytes than its input; no report")
    return times


def report(name, times):
    """One line per direction: ratios, win counts and the verdict."""
    lines = []
    for direction, arm_times in times.items():
        parent = arm_times["parent"]
        ratios = [p / c for p, c in zip(parent, arm_times["change"])]
        aa = [p / a for p, a in zip(parent, arm_times["aa"])]
        cells = []
        for label, values in (("change/parent", ratios), ("A/A", aa)):
            q1, median, q3 = quartiles(values)
            wins = sum(x > 1 for x in values)
            cells.append(f"{label} {median:.3f} [{q1:.3f}, {q3:.3f}] {wins}/{len(values)}")
        lines.append(f"{name} {direction}: {'  '.join(cells)}  {verdict(ratios, aa)}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change, "aa": args.parent}
    clis = {arm: load_cli(roots[arm] / "src" / "padc", f"_ab_{arm}") for arm in ARMS}
    workloads = load_workloads(args.change)
    print(f"seed {args.seed}, {CORPUS_BYTES} bytes, {ROUNDS} rounds, speed ratios")
    with tempfile.TemporaryDirectory() as tmp:
        for name, (make, flags) in workloads.items():
            data = make(args.seed, CORPUS_BYTES)
            times = measure(clis, data, flags, Path(tmp))
            print("\n".join(report(name, times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
