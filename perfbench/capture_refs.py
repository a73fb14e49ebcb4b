#!/usr/bin/env python3
"""Capture the reference outputs every benchmark run is checked
against, into refs/:

    python3 perfbench/capture_refs.py

  refs/views/<view>.json   the six views' --json tables
  refs/fig7_cells.json     cycles, retired uops and output checksum of
                           the 29 traced Figure 7 cells
  refs/contention.json     per-governor-seed contention cell counts
                           of the default and held-out workload seeds
  refs/service.json        direct-compile checksums of the service's
                           method pool

References change only in a change of their own that states why
(ROADMAP: golden tables stay byte-identical otherwise).
"""

import json
import sys
import tempfile
from pathlib import Path

import run as bench

CONTENTION_FIELDS = [
    "entries", "commits", "aborts", "conflicts", "all_context_uops",
    "backoff_steps", "starvation_boosts", "livelock_breaks",
    "oracle_commit_checks", "oracle_conflict_heap_checks",
    "bisim_checks", "bisim_uops"]
CONTENTION_WORKLOADS = ["counters", "hashtable", "mpmc_queue"]
# The default and the held-out workload seed (README.md).
REF_SEEDS = [bench.DEFAULT_SEED, bench.HELD_OUT_SEED]


TIMEOUT_S = 600


def mode(name, *args):
    rc, out, _ = bench.run_child([str(bench.BINARY), name, *map(str, args)],
                                 bench.child_env(), TIMEOUT_S)
    result = json.loads(out.strip().splitlines()[-1])
    if rc != 0 or result["failed"]:
        sys.exit(f"{name} failed: {result['problems'][:5]}")
    return result["outputs"]


def write(name, data, text=None):
    path = bench.REFS / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(text or json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def contention_text(data):
    """One line per governor seed, so a diff names the seed."""
    seeds = sorted(data["cells"], key=int)
    lines = [f'  "{seed}": {json.dumps(data["cells"][seed], sort_keys=True)}'
             for seed in seeds]
    return ('{"workload_seeds": ' + json.dumps(data["workload_seeds"]) +
            ',\n "fields": ' + json.dumps(data["fields"]) +
            ',\n "workloads": ' + json.dumps(data["workloads"]) +
            ',\n "cells": {\n' + ",\n".join(lines) + "\n }}\n")


def main():
    bench.build()
    bench.TRACE_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.BUILD_DIR) as tmp:
        for view in bench.VIEWS:
            path = Path(tmp) / f"{view}.json"
            rc, _, _ = bench.run_child(
                [str(bench.BUILD_DIR / "aregion" / "bench" / view),
                 "--json", str(path)], bench.child_env(), TIMEOUT_S)
            if rc != 0:
                sys.exit(f"{view} exited {rc}")
            with open(path) as f:
                write(f"views/{view}.json", {"tables": json.load(f)["tables"]})

    write("fig7_cells.json",
          {"cells": mode("views-trace", "--out", bench.TRACE_DIR)[
              "fig7_cells"]})

    width = 2 + len(CONTENTION_FIELDS)
    cells = {}
    for workload_seed in REF_SEEDS:
        outputs = mode("contention-refs", "--seed", workload_seed)
        for i, wi in enumerate(outputs["workload_index"]):
            seed, contexts, *counts = outputs["cells"][i * width:
                                                       (i + 1) * width]
            cells.setdefault(str(seed), {})[
                f"{CONTENTION_WORKLOADS[wi]}@{contexts}"] = counts
    data = {"workload_seeds": REF_SEEDS, "fields": CONTENTION_FIELDS,
            "workloads": CONTENTION_WORKLOADS, "cells": cells}
    write("contention.json", data, contention_text(data))

    write("service.json",
          {"checksums": mode("service-refs")["checksums"]})


if __name__ == "__main__":
    main()
