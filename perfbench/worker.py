"""One benchmark task in a fresh interpreter.

Usage: python3 perfbench/worker.py '<task spec as JSON>'

The package is imported first, so the time from process start to the
``ready`` timestamp is the package's set-up time as a CLI user pays it.  In
untraced runs the host's speed is sampled all through the task
(``hostspeed``), so each stage time is returned both as measured and in
reference seconds.  The result is printed as one JSON line.
"""

import time

import excedance_lab

READY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import tasks  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    package = Path(excedance_lab.__file__).resolve()
    if Path(spec["src"]).resolve() not in package.parents:
        print(f"imported {package}, expected a package under {spec['src']}", file=sys.stderr)
        return 2
    traced = bool(spec.get("trace"))
    tr = tracer.Tracer(spec["request"])
    if traced:
        tracer.install(tr, tasks)
    ck = tasks.Checks()
    sampler = hostspeed.Sampler(spec["speed_log"])
    sample = spec["sample"] and not traced
    if sample:
        sampler.start()
    spans = tasks.TASKS[spec["task"]](spec, tr, traced, ck)
    if sample:
        sampler.stop()
    # each timed span becomes [wall, norm] seconds; other values pass through
    stages = {}
    for name, value in spans.items():
        if not isinstance(value, tuple):
            stages[name] = value
        elif sample:
            stages[name] = sampler.times(*value)
        else:
            stages[name] = (value[1] - value[0],) * 2
    if traced:
        tr.write_spans(spec["spans"])
    print(json.dumps({
        "ready": READY,
        "stages": stages,
        "checks": ck.results,
        "trace": tr.payload(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
