"""Run one workload of the stta benchmark and print its metrics.

    python3 perfbench/run.py --workload sparse-snap --seed 0 --seconds 55 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory. `--trace 0` measures the end-to-end metrics with the program
untouched; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics. The metric names and units are the ones BENCHMARK.json
declares. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Every check failure makes the
run exit with code 1; a checkout without the program exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOADS = ("sparse-snap", "dense-tent", "big-memory", "grid")
DEFAULT_SEED = 0  # the seed of the committed baseline


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0, help="how long the run's window lasts (README.md)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import stta from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "stta" / "__init__.py").is_file():
        print(f"error: no stta package under {src}; run from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import stta

    if Path(stta.__file__).resolve().parent != src / "stta":
        print(f"error: imported stta from {stta.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return stta


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def environment(args) -> dict:
    import numpy as np

    import workloads

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "grid_workers": workloads.GRID_WORKERS,
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines(ROOT / "src"),
        "workload": args.workload,
        "seed": args.seed,
        "stream_seeds": workloads.stream_seeds(args.seed)[:1 if args.trace else None]
        if args.workload in workloads.STREAMS else None,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def unit_of(name: str) -> str:
    """Unit implied by a metric name's suffix, for metrics BENCHMARK.json does not list."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), (".s", "s"), (".ms", "ms")):
        if name.endswith(suffix):
            return unit
    if name.endswith((".calls", ".fired", ".skipped", ".samples")):
        return "count"
    return "share" if name.endswith("share") else "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import tracer
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = declared["per_layer" if args.trace else "end_to_end"]
    env = environment(args)
    OUT_DIR.mkdir(exist_ok=True)
    print(f"perfbench: workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}")
    print("env " + json.dumps(env, sort_keys=True))

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), str(OUT_DIR))
    missing = [m["name"] for m in gated if not _number(out.metrics.get(m["name"]))]
    out.check("metrics.complete", not missing, f"metrics not measured: {missing}")
    failed = out.failed + (1 if missing else 0)
    correct = out.correct

    for name, c in sorted(out.checks.items()):
        status = "ok" if not c["failed"] else f"FAILED {c['failed']}x: {c['detail']}"
        print(f"check {name}: {c['passed']} passed, {status}")
    units = {m["name"]: m["unit"] for m in gated}
    if not args.trace:
        out.metrics["failed_share"] = failed / max(out.attempted, 1)
        out.notes["failed_share"] = f"{failed} of {out.attempted} operations failed (not gated: 0 when correct)"
    for name in list(units) + sorted(set(out.metrics) - set(units)):
        if name in out.metrics:
            tag = "metric" if name in units else "extra"
            unit = units.get(name) or unit_of(name)
            note = f"  ({out.notes[name]})" if name in out.notes else ""
            print(f"{tag} {name} = {out.metrics[name]!r} {unit}{note}")
    if "trace.self_sum" in out.notes:
        print(f"note trace.self_sum: {out.notes['trace.self_sum']}")

    written = [OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"]
    if out.tracer is not None:
        written.append(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        with open(written[1], "w", encoding="utf-8") as fh:
            json.dump({"env": env, "fields": tracer.SPAN_FIELDS, "spans": sorted(out.tracer.spans),
                       "counts": out.tracer.counts, "generated_seconds": out.tracer.generated}, fh)
    with open(written[0], "w", encoding="utf-8") as fh:
        json.dump({"env": env, "correct": correct, "attempted": out.attempted, "failed": failed,
                   "metrics": {n: {"value": v, "unit": units.get(n) or unit_of(n)} for n, v in out.metrics.items()},
                   "notes": out.notes, "checks": out.checks}, fh, indent=1, sort_keys=True)
    print("wrote " + " and ".join(os.path.relpath(path, ROOT) for path in written))
    result = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
                    for m in gated if m["name"] not in missing},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


if __name__ == "__main__":
    sys.exit(main())
