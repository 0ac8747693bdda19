"""The ``stonekit`` console command, run from the source tree.

Equivalent to the entry point ``pip install`` would generate
(``stonekit.cli:main``), with ``src/`` put on the path first, so a
fresh checkout can run the CLI without installing it:

    python3 perfbench/cli_main.py analyze doc.json --json

When PERFBENCH_TRACE names a file stem, the process records spans of
every stonekit layer and, on exit, writes ``<stem>.json`` (the span
summary) and ``<stem>.spans.gz`` (the spans).
"""

import atexit
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from stonekit.cli import main  # noqa: E402

if __name__ == "__main__":
    stem = os.environ.get("PERFBENCH_TRACE")
    if stem:
        sys.path.insert(0, HERE)
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.begin_op(" ".join(sys.argv[1:2]))

        def dump():
            with open(stem + ".json", "w", encoding="utf-8") as fh:
                json.dump(tracer.summary(), fh)
            tracer.write_spans(stem + ".spans.gz")

        atexit.register(dump)
    main()
