"""Self-test of the benchmark, at a tiny size (about a minute).

    python3 bench/selftest.py

From the root of a checkout.  For each workload it runs a few cheap ops of
the mix untraced and traced, and checks that
- the metric names printed match BENCHMARK.json (end_to_end for --trace 0,
  per_layer for --trace 1) and every oracle holds;
- the deterministic counts repeat exactly across two traced runs;
- the bypass predictions hold: no cos_pi call outside trace_identities, no
  quadrature plan inside it.
It also checks that the benchmark refuses to run without the program sources.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

# label prefixes of the ops kept per workload at tiny size
TINY = {
    "certify": ("certify:shannon@2", "certify:random0@", "refusal:",
                "waveletset:", "check-waveletset:"),
    "frame_energy": ("frame:shannon@2:chi", "frame:pwl:a=3/4,b=5/4@2",
                     "frame:journe@2:seeded"),
    "trace_identities": ("identities:shannon@2:64b", "identities:journe@2:128b"),
}
DETERMINISTIC = ("numeric.cos_pi.calls", "quadrature.nodes", "frametest.k_swept",
                 "verification.check_split.calls", "piecewise.eval.calls")


def tiny(name):
    full = workloads.WORKLOADS[name]

    def build(fs, seed, work):
        return [op for op in full(fs, seed, work) if op.label.startswith(TINY[name])]
    return build


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)])
    if rc != 0:
        fail(f"{workload} --trace {trace}: exit {rc}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def fail(msg: str) -> None:
    print(f"FAIL {msg}")
    sys.exit(1)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        fail("workloads in BENCHMARK.json differ from bench/workloads.py")
    for name in TINY:
        workloads.WORKLOADS[name] = tiny(name)
    for name in TINY:
        results = [bench(name, 0), bench(name, 1), bench(name, 1)]
        for trace, res in zip((0, 1, 1), results):
            if set(res["metrics"]) != names[trace]:
                fail(f"{name} --trace {trace}: metric names "
                     f"{sorted(set(res['metrics']) ^ names[trace])} differ")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{name} --trace {trace}: oracle failed")
        first, second = (r["metrics"] for r in results[1:])
        for key in DETERMINISTIC:
            if first[key]["value"] != second[key]["value"]:
                fail(f"{name}: {key} {first[key]['value']} != {second[key]['value']}")
        cos_calls = first["numeric.cos_pi.calls"]["value"]
        plans = first["quadrature.plan_build.calls"]["value"]
        if (cos_calls > 0) != (name == "trace_identities"):
            fail(f"{name}: numeric.cos_pi.calls = {cos_calls}")
        if name == "trace_identities" and plans:
            fail(f"{name}: quadrature.plan_build.calls = {plans}")
        print(f"ok {name}: " + ", ".join(
            f"{k}={first[k]['value']}" for k in DETERMINISTIC))

    # without the program sources the benchmark must refuse, printing no result
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "certify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark ran without the program sources")
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
