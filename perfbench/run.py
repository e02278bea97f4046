"""excedance-lab benchmark: cold enumeration, enumeration-free algebra, the registry.

Usage (from the repository root):

    python3 perfbench/run.py --workload enum|algebra|registry --seed N \\
        --seconds S --trace 0|1 [--tiny]

Every task runs in a fresh interpreter (``worker.py``) that imports the
package from ``src/`` and calls its public functions.  With ``--trace 0`` the
workload's task list is cycled through until ``--seconds`` are used, and the
median of each stage and of the set-up time, in reference seconds (see
``hostspeed.py`` and ``BARE_START``), are reported.  With ``--trace 1`` the
task list runs once untraced and once traced, so the counts repeat exactly
for a seed, and the per-layer metrics and the tracing overhead are reported.
``--tiny`` runs toy sizes for the benchmark's own test.

The last line of standard output is the JSON result; the line before it is
the run record (metadata, per-stage metrics, failed checks), which is also
written to ``perfbench/out/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
DEADLINE_S = 170.0
PROBE = {"task": "probe", "label": "probe"}
# Set-up time is CPU work in a cold process, which the host slows more than
# the hot loop of ``hostspeed``: it is taken relative to a bare interpreter
# start timed just before it, in units of this nominal bare start.
BARE_START = [sys.executable, "-c", "import time; print(time.monotonic())"]
BARE_START_NOMINAL_S = 0.05

# sizes are keyed by --tiny
CLASSES = {
    False: [("plain", 9, 1, 1), ("signed", 7, 1, 1), ("colored", 6, 3, 1), ("stirling", 6, 1, 3)],
    True: [("plain", 5, 1, 1), ("signed", 4, 1, 1), ("colored", 3, 2, 1), ("stirling", 3, 1, 2)],
}
STREAM_N = {False: 8, True: 5}
QUERIES_PER_CLASS = 16
ALGEBRA_SIZES = {
    False: {"family_n": 30, "springer_n": 7, "lemma7_n": 20, "signed_n": 12},
    True: {"family_n": 8, "springer_n": 5, "lemma7_n": 6, "signed_n": 4},
}
REGISTRY_RUNS = {
    False: [("full", 1, "full"), ("full", 2, "full_jobs2"), ("quick", 1, "quick")],
    True: [("quick", 1, "full"), ("quick", 2, "full_jobs2"), ("quick", 1, "quick")],
}

# End-to-end metrics gated by BENCHMARK.json: every workload reports both.
END_TO_END = {"setup_s": "s", "job_s": "s"}

# Per-stage end-to-end metrics by workload, printed in the run record.
STAGE_METRICS = {
    "enum": {
        "enum.plain_kobj_s": "kobj/s", "enum.signed_kobj_s": "kobj/s",
        "enum.colored_kobj_s": "kobj/s", "enum.stirling_kobj_s": "kobj/s",
        "enum.stream_kobj_s": "kobj/s", "enum.query_s": "s",
    },
    "algebra": {
        "algebra.families_s": "s", "algebra.grammar_s": "s",
        "algebra.subst_s": "s", "algebra.shape_s": "s",
    },
    "registry": {
        "registry.full_s": "s", "registry.full_jobs2_s": "s", "registry.quick_s": "s",
    },
}

CRITERIA = range(1, 11)
PER_LAYER = {
    "permstats.gen_poly.calls": "count",
    "permstats.gen_poly.cold": "count",
    "permstats.objects": "count",
    "permstats.cold_s": "s",
    "permstats.warm_s": "s",
    "permstats.hit_ratio": "ratio",
    "permstats.enumerate_class.objects": "count",
    "permstats.enumerate_class_s": "s",
    "multipoly.mul.calls": "count",
    "multipoly.mul.term_pairs": "count",
    "multipoly.mul_s": "s",
    "multipoly.add.calls": "count",
    "multipoly.add.terms_copied": "count",
    "multipoly.add_s": "s",
    "multipoly.substitute.calls": "count",
    "multipoly.substitute_s": "s",
    "multipoly.parse.calls": "count",
    "multipoly.parse_s": "s",
    "grammar.derive.calls": "count",
    "grammar.derive.terms_in": "count",
    "grammar.derive_s": "s",
    "families.build.calls": "count",
    "families_s": "s",
    "shape.calls": "count",
    "shape_s": "s",
    "fsaction.act.calls": "count",
    "fsaction_s": "s",
    "identities.comparisons": "count",
    "identities.mismatches": "count",
    "identities.skipped": "count",
    **{f"identities.crit{c}_self_s": "s" for c in CRITERIA},
    "identities.other_self_s": "s",
    "identities.pool_idle_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

# tracer layer -> per-layer self-time metric
SELF_TIME_METRICS = {
    "permstats.cold": "permstats.cold_s",
    "permstats.warm": "permstats.warm_s",
    "permstats.enumerate_class": "permstats.enumerate_class_s",
    "multipoly.mul": "multipoly.mul_s",
    "multipoly.add": "multipoly.add_s",
    "multipoly.substitute": "multipoly.substitute_s",
    "multipoly.parse": "multipoly.parse_s",
    "grammar.derive": "grammar.derive_s",
    "families": "families_s",
    "shape": "shape_s",
    "fsaction": "fsaction_s",
    **{f"identities.crit{c}": f"identities.crit{c}_self_s" for c in CRITERIA},
    "identities.other": "identities.other_self_s",
    "unattributed": "trace.unattributed_s",
}


# ---------------------------------------------------------------------------
# tasks and workers
# ---------------------------------------------------------------------------


def task_list(workload: str, seed: int, tiny: bool) -> list[dict]:
    """One pass of the workload: the same seed always gives the same inputs."""
    if workload == "enum":
        specs = [
            {"task": "enum_class", "label": kind, "kind": kind, "n": n, "r": r, "k": k,
             "seed": seed, "queries": QUERIES_PER_CLASS}
            for kind, n, r, k in CLASSES[tiny]
        ]
        return specs + [{"task": "enum_stream", "label": "stream", "n": STREAM_N[tiny]}]
    if workload == "algebra":
        return [{"task": "algebra", "label": "algebra", "seed": seed, **ALGEBRA_SIZES[tiny]}]
    jobs2 = min(2, os.cpu_count() or 1)
    return [
        {"task": "registry", "label": label, "profile": profile,
         "jobs": jobs2 if jobs > 1 else 1, "seed": seed}
        for profile, jobs, label in REGISTRY_RUNS[tiny]
    ]


class Runner:
    def __init__(self, workload: str, seed: int, sample: bool):
        self.workload = workload
        self.seed = seed
        # sample the host's speed inside tasks (untraced runs only)
        self.sample = sample
        self.deadline = time.monotonic() + DEADLINE_S
        # set-up times as (wall, norm) seconds
        self.setup_samples: list[tuple[float, float]] = []
        self.checks: list[tuple[str, bool]] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        # fixed string hashing keeps set and dict orders, and so the traced
        # counts, the same from run to run
        self.env["PYTHONHASHSEED"] = "0"

    def bare_start(self) -> float:
        """Seconds from spawning a bare interpreter until its first line of code runs."""
        start = time.monotonic()
        proc = subprocess.run(BARE_START, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=60, check=True)
        return float(proc.stdout) - start

    def run(self, spec: dict, trace: bool = False, record_setup: bool = True) -> dict | None:
        """Run one task in a fresh interpreter; None if it crashed or timed out."""
        spec = dict(spec, src=str(SRC), trace=trace, sample=self.sample,
                    request=f"{self.workload}-{spec['label']}-seed{self.seed}",
                    spans=str(OUT / f"spans-{self.workload}-{spec['label']}-seed{self.seed}.jsonl"),
                    speed_log=str(OUT / f"speed-{self.workload}-{spec['label']}-seed{self.seed}.txt"))
        bare = self.bare_start() if record_setup else None
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(spec)], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.checks.append((f"{spec['request']} finished in time", False))
            return None
        except BaseException:
            # interrupted or terminated: take the task's process group along
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            sys.stderr.write(err[-2000:])
            self.checks.append((f"{spec['request']} exited {proc.returncode}", False))
            return None
        result = json.loads(out.strip().splitlines()[-1])
        if record_setup:
            wall = result["ready"] - start
            self.setup_samples.append((wall, wall * BARE_START_NOMINAL_S / bare))
        self.checks.extend((name, ok) for name, ok in result["checks"])
        return result


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(runner: Runner, specs: list[dict], seconds: float):
    """Cycle through the task list until ``seconds`` are used.

    The first pass always runs whole; after it, a task starts only if it
    still ends in time at its mean duration so far.  A set-up probe runs
    before every task, so set-up samples span the run.  Returns each stage's
    samples as (wall, norm) seconds.
    """
    samples: dict[str, list[tuple[float, float]]] = {}
    durations: dict[str, list[float]] = {}
    start = time.monotonic()
    for i in itertools.count():
        spec = specs[i % len(specs)]
        label = spec["label"]
        if i >= len(specs):
            expected = statistics.mean(durations[label])
            if time.monotonic() - start + expected > seconds:
                break
        task_start = time.monotonic()
        runner.run(PROBE)
        result = runner.run(spec)
        durations.setdefault(label, []).append(time.monotonic() - task_start)
        if result is None:
            continue
        for stage, value in result["stages"].items():
            if stage != "pool_idle":
                samples.setdefault(f"{label}.{stage}", []).append(tuple(value))
    return samples


def stage_metrics(workload: str, medians: dict[str, float], tiny: bool) -> dict[str, float]:
    if workload == "enum":
        out = {}
        for kind, n, r, k in CLASSES[tiny]:
            size = _class_size(kind, n, r, k)
            out[f"enum.{kind}_kobj_s"] = _rate(size, medians.get(f"{kind}.cold"))
        out["enum.stream_kobj_s"] = _rate(_class_size("plain", STREAM_N[tiny], 1, 1),
                                          medians.get("stream.stream"))
        out["enum.query_s"] = sum(medians.get(f"{kind}.query", 0.0)
                                  for kind, *_ in CLASSES[tiny])
        return out
    if workload == "algebra":
        return {f"algebra.{s}_s": medians.get(f"algebra.{s}", 0.0)
                for s in ("families", "grammar", "subst", "shape")}
    return {f"registry.{label}_s": medians.get(f"{label}.suite", 0.0)
            for _p, _j, label in REGISTRY_RUNS[tiny]}


def _rate(objects: int, seconds: float | None) -> float:
    return objects / 1000.0 / seconds if seconds else 0.0


def _class_size(kind: str, n: int, r: int, k: int) -> int:
    if kind == "stirling":
        return math.prod(i * k + 1 for i in range(n))
    return math.factorial(n) * {"plain": 1, "signed": 2**n, "colored": r**n}[kind]


def traced_run(runner: Runner, specs: list[dict]) -> dict[str, float]:
    """One untraced and one traced pass; per-layer metrics from the traced one."""
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    untraced = traced = 0.0
    for spec in specs:
        if spec.get("jobs", 1) > 1:
            # pool workers are forked, so their spans would be lost: this run
            # only contributes the pool's idle time
            result = runner.run(spec)
            if result is not None:
                metrics["identities.pool_idle_s"] += result["stages"]["pool_idle"]
            continue
        plain = runner.run(spec)
        result = runner.run(spec, trace=True)
        if plain is None or result is None:
            continue
        untraced += plain["trace"]["root_s"]
        traced += result["trace"]["root_s"]
        for layer, value in result["trace"]["self_s"].items():
            metrics[SELF_TIME_METRICS[layer]] += value
        for key, value in result["trace"]["counts"].items():
            metrics[key] += value
    calls = metrics["permstats.gen_poly.calls"]
    metrics["permstats.hit_ratio"] = (
        1.0 - metrics["permstats.gen_poly.cold"] / calls if calls else 0.0
    )
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


# ---------------------------------------------------------------------------
# run record
# ---------------------------------------------------------------------------


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_rev() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(STAGE_METRICS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the benchmark's test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "excedance_lab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # a terminated run still stops its task (see Runner.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "python": platform.python_version(), "git_rev": _git_rev(),
        "loadavg_start": _loadavg(),
        "class_sizes": {
            f"{kind} n={n} r={r} k={k}": _class_size(kind, n, r, k)
            for kind, n, r, k in CLASSES[args.tiny]
            + [("plain", STREAM_N[args.tiny], 1, 1)]
        } if args.workload == "enum" else {},
    }
    runner = Runner(args.workload, args.seed, sample=not args.trace)
    specs = task_list(args.workload, args.seed, args.tiny)
    # the first import compiles bytecode; later imports are what users pay
    runner.run(PROBE, record_setup=False)

    if args.trace:
        metrics = traced_run(runner, specs)
        units = PER_LAYER
    else:
        samples = measure(runner, specs, args.seconds)
        # each stage's median over the run, as measured and in reference seconds
        wall = {stage: statistics.median(w for w, _ in pairs) for stage, pairs in samples.items()}
        norm = {stage: statistics.median(n for _, n in pairs) for stage, pairs in samples.items()}
        stages = stage_metrics(args.workload, norm, args.tiny)
        record["samples"] = samples
        record["job_wall_s"] = sum(wall.values())
        record["setup_wall_s"] = statistics.median([w for w, _ in runner.setup_samples] or [0.0])
        metrics = {
            "setup_s": statistics.median([n for _, n in runner.setup_samples] or [0.0]),
            "job_s": sum(norm.values()),
        }
        units = END_TO_END
        record["stage_metrics"] = {
            name: {"value": stages[name], "unit": unit}
            for name, unit in STAGE_METRICS[args.workload].items()
        }
    failed = [name for name, ok in runner.checks if not ok]
    attempted = max(len(runner.checks), 1)
    record["setup_samples"] = runner.setup_samples
    record["fail_ratio"] = len(failed) / attempted
    record["failed_checks"] = failed[:50]
    record["loadavg_end"] = _loadavg()
    result = {
        "correct": not failed and bool(runner.checks),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
