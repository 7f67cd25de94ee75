"""Layer timing inside ``repro.service.worker`` processes (traced service run only).

The benchmark puts this directory on ``PYTHONPATH`` and sets
``PERFBENCH_SPANS_DIR`` for the ``repro serve`` it traces; the server
passes its environment on to the worker processes it spawns.  In a worker
this installs the :mod:`layers` wrappers before the worker's ``main`` runs
(timing the ``repro`` imports that pulls in as ``import``) and writes the
aggregated spans to ``spans-<pid>.json`` when the worker exits.  Every other
interpreter started with this environment, the server included, is left
alone.
"""

import os
import sys

if os.environ.get("PERFBENCH_SPANS_DIR") and "repro.service.worker" in getattr(
    sys, "orig_argv", ()
):
    import atexit
    import json
    import time

    _started = time.perf_counter()
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import layers

    _recorder = layers.Recorder()
    layers.install(_recorder)
    _imported = time.perf_counter()

    def _dump() -> None:
        wall = time.perf_counter() - _started
        table = layers.layer_table(_recorder, wall - (_imported - _started))
        summary = {
            "started": _started,
            "import_s": _imported - _started,
            "wall_s": wall,
            "layers": table,
            "calls": dict(_recorder.calls),
            "counters": {**_recorder.counters, "analysis.cache_keys": _recorder.cache_keys()},
        }
        path = os.path.join(os.environ["PERFBENCH_SPANS_DIR"], f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(summary, handle)

    atexit.register(_dump)
