"""Set-up probe, run in a fresh interpreter by the benchmark.

Usage: python3 setup_probe.py SRC_DIR INPUT CONTAINER OUTPUT [ENCODE FLAGS...]

Times `import padc.cli` plus one encode/decode round trip of INPUT and
prints {"seconds": ..., "ok": ...} as its last line.
"""

import json
import sys
import time


def main(argv):
    src, inp, container, out, *flags = argv
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import padc.cli

    rc_enc = padc.cli.main(["encode", *flags, inp, container])
    rc_dec = padc.cli.main(["decode", container, out])
    seconds = time.perf_counter() - t0
    with open(inp, "rb") as a, open(out, "rb") as b:
        same = a.read() == b.read()
    print(json.dumps({"seconds": seconds, "ok": rc_enc == 0 and rc_dec == 0 and same}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
