"""``repro serve --port 0`` with the layer probes installed.

The traced ``serve-web`` rep starts the server through this file instead
of ``python -m repro serve``; at exit it writes what the server process
recorded to the JSON file named by its one argument::

    python benchmarks/e2e/serve_launcher.py DUMP_JSON
"""

from __future__ import annotations

import json
import sys

import probes


def main(dump_path: str) -> int:
    rec = probes.Recorder(trace_id="serve")
    probes.install_phase_probes(rec, windows=False)
    probes.install_layer_probes(rec)
    from repro.cli import main as cli_main
    from repro.perf.snapshot import default_prefill_cache

    try:
        return cli_main(["serve", "--port", "0"])
    finally:
        cache = default_prefill_cache()
        snap = rec.snapshot()
        snap["prefill"] = {"hits": cache.hits, "misses": cache.misses}
        with open(dump_path, "w") as f:
            json.dump(snap, f)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
