"""Record the exact reference output of every entry in a workload's pool.

    python3 perfbench/record.py scan-main gauss-count ...

References are the correctness oracle of every later run, so record them
only from a commit whose outputs are trusted, and never to make a failing
run pass.  An entry whose verify chain fails is refused, not recorded.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run
from workloads import WORKLOADS, chain_failures


def record(workload):
    lib = run.load_library()
    ctx = workload.prepare(lib)
    entries = []
    t0 = perf_counter()
    for k in range(workload.size):
        kind = workload.kind(k)
        result = workload.run(lib, ctx, kind, workload.make_input(lib, ctx, k))
        failed = chain_failures(result)
        if failed:
            raise SystemExit(f"{workload.name} entry {k}: chain entries failed: {failed}")
        entries.append(workload.output(lib, result))
        if k % 200 == 0:
            print(f"{workload.name}: {k}/{workload.size} in {perf_counter() - t0:.0f} s",
                  file=sys.stderr, flush=True)
    path = run.REFERENCES / f"{workload.name}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write('{"workload": %s, "entries": [\n' % json.dumps(workload.name))
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")


def main(names):
    run.use_checkout_sources()
    for name in names:
        record(WORKLOADS[name])


if __name__ == "__main__":
    main(sys.argv[1:] or list(WORKLOADS))
