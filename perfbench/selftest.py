"""Self-tests of the benchmark itself (not of stta).

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, exits 0, reports
   every metric BENCHMARK.json declares with the declared unit, and passes
   every check.
2. After each traced run, every wrapped entry point is the original object
   again (for example `stta.engine.forward is` the function it was before).
3. A deliberately broken check (the expected update count off by one) makes
   the run exit non-zero and report `"correct": false`.
4. In a directory holding only BENCHMARK.json and perfbench/, the command
   exits non-zero without printing a result.

Exits 0 when all pass. Takes a few minutes: each run still pretrains.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ROOT = run.ROOT


def run_quiet(argv) -> tuple[int, dict | None, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(argv)
    text = buffer.getvalue()
    lines = text.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return code, result, text


def check_workloads(declared: dict) -> list[str]:
    import stta.engine
    import stta.model

    import tracer

    errors = []
    originals = tracer.bindings()
    forward, adapt_step = stta.engine.forward, stta.model.adapt_step
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            code, result, text = run_quiet(["--workload", workload, "--seed", "0", "--seconds", "1",
                                            "--trace", str(trace)])
            label = f"{workload} trace {trace}"
            if code != 0 or result is None or not result["correct"]:
                errors.append(f"{label}: exit {code}, output tail:\n{text[-1500:]}")
                continue
            want = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics/units {sorted(set(got.items()) ^ set(want.items()))}")
            if result["attempted"] < 1 or result["failed"] != 0:
                errors.append(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
            if tracer.bindings() != originals or stta.engine.forward is not forward \
                    or stta.model.adapt_step is not adapt_step:
                errors.append(f"{label}: an entry point is still wrapped after the run")
            print(f"ok   {label}", flush=True)
    return errors


def check_broken_check() -> list[str]:
    import workloads

    original = workloads.expected_adapts
    workloads.expected_adapts = lambda batches, ar: original(batches, ar) + 1
    try:
        code, result, _ = run_quiet(["--workload", "sparse-snap", "--seed", "0", "--seconds", "1", "--trace", "0"])
    finally:
        workloads.expected_adapts = original
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        return [f"broken adapt-count check: exit {code}, result {result}"]
    print("ok   broken check exits non-zero", flush=True)
    return []


def check_without_program() -> list[str]:
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sparse-snap", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"without src/: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    print("ok   no program: exits non-zero without a result", flush=True)
    return []


def main() -> int:
    run.load_program()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_without_program() + check_workloads(declared) + check_broken_check()
    for line in errors:
        print("FAIL " + line)
    print("selftest: " + ("all passed" if not errors else f"{len(errors)} failed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
