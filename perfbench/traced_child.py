"""Run one ``python -m lateralvdw`` request with every layer traced.

Usage: ``python3 perfbench/traced_child.py <out-prefix> <cli args...>``.
Writes ``<out-prefix>.json`` (per-span totals) and ``<out-prefix>.npz``
(the spans) and exits with the CLI's status.
"""

import json
import runpy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lateralvdw  # noqa: E402,F401
from spans import Tracer  # noqa: E402

out_prefix = sys.argv[1]
tracer = Tracer()
tracer.install()
tracer.op_id = 0
tracer.active = True
sys.argv = ["lateralvdw"] + sys.argv[2:]
code = 0
tracer.begin("bench.op")
try:
    runpy.run_module("lateralvdw", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
finally:
    tracer.end()
tracer.uninstall()
with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
    json.dump(tracer.summary(), fh)
tracer.write_spans(out_prefix + ".npz")
sys.exit(code)
