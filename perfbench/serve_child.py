"""``python -m repro serve`` with spans recorded around each layer.

The traced pass of ``serve_adhoc`` starts the server through this file
instead of ``python -m repro serve``.  It wraps the layers' public
functions (:func:`perfbench.tracer.install_layers`), runs the program's
own command line, and when the server has drained on SIGTERM writes the
spans to SPANS_PATH and the plan-cache counters to SPANS_PATH.cache.json.

Usage::

    python3 perfbench/serve_child.py SPANS_PATH STORE [serve flags...]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.tracer import Recorder, cache_totals, install_layers
    from repro.cli import main as repro_main
    from repro.obs import telemetry

    spans_path = sys.argv[1]
    recorder = Recorder(rid_source=lambda: getattr(telemetry.current(), "request_id", None))
    install_layers(recorder)
    try:
        return repro_main(["serve", *sys.argv[2:]])
    finally:
        recorder.dump(spans_path)
        with open(spans_path + ".cache.json", "w", encoding="utf-8") as out:
            json.dump(cache_totals(recorder), out)


if __name__ == "__main__":
    sys.exit(main())
