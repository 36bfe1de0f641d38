"""One benchmark pass in a fresh interpreter.

Protocol with ``run.py``: the worker imports ``qmelon.cli``, notes the CPU
seconds spent so far as its set-up time, reads one JSON job
``{"ops": [...], "trace": bool}`` from stdin, runs ``ops.run_pass`` and
prints the pass record as one JSON line.  Nothing but the standard
library and the checkout's ``src`` is imported, and nothing runs before
``import qmelon.cli`` except path set-up, so every pass starts with cold
``lru_cache``s exactly like a ``qmelon`` invocation.
"""

import os
import sys
import time


def main(setup_s: float) -> None:
    import json

    from perfbench import ops, tracing

    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    record = ops.run_pass(job["ops"], tracer)
    record["setup_s"] = setup_s
    if tracer is not None:
        record["top_spans"] = tracer.top_spans()
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    import qmelon.cli  # noqa: E402,F401  -- set-up ends with this import

    main(time.process_time())
