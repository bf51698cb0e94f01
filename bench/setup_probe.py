"""Time a cold ``import fbmcber`` plus the filters and tables a workload uses.

Run in a fresh interpreter by ``run.py``, so the import is not already
cached:  python3 setup_probe.py SRC_DIR SPEC_JSON
where SPEC_JSON lists [filter, alpha, M, K, kmax] entries.  Prints the
elapsed seconds.
"""

import json
import os
import sys
import time


def main() -> int:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    start = time.perf_counter()
    import fbmcber

    for name, alpha, m, k, kmax in spec:
        if name == "martin":
            filt = fbmcber.make_martin(k, m)
        else:
            filt = fbmcber.make_egf(alpha, k, m)
        fbmcber.truncate(fbmcber.build_set(fbmcber.FbmcGrid(m, filt)), kmax)
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(fbmcber.__file__)) != os.path.join(
            os.path.abspath(src), "fbmcber"):
        print(f"error: fbmcber imported from {fbmcber.__file__}", file=sys.stderr)
        return 2
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
