#!/usr/bin/env python3
"""Record the reference digests that ``run.py`` checks simulation outputs against.

    python3 bench/record_reference.py

For every workload with reference-checked calls, runs one pass per input
seed 0 .. REFERENCE_SEEDS - 1 and writes the SHA-256 digest of each such
call's result, with the sizes used, to ``bench/reference.json``.  Run it
only at a commit whose simulation outputs are known to be right; a
change that is meant to keep those outputs must leave this file alone.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads as wls  # noqa: E402


def main() -> None:
    out = {}
    for name, wl in wls.WORKLOADS.items():
        if not wl.reference:
            continue
        digests = {}
        for seed in range(wls.REFERENCE_SEEDS):
            rec = wls.Recorder()
            wl.run(rec, wl.setup(seed))
            digests[str(seed)] = {label: wls.digest(rec.results[label]) for label in wl.reference}
            print(f"{name} seed {seed}", flush=True)
        out[name] = {"sizes": wl.sizes, "digests": digests}
    with open(wls.REFERENCE_FILE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
