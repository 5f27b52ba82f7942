"""framesmith benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload certify --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout (the program is imported from
./src).  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it gives the details
(rounds, samples, tail percentile, environment, per-op failures).

--trace 0 runs rounds of the workload's op mix (at least three, then until
--seconds have elapsed) and reports the end-to-end metrics, with timings
scaled to a fixed host speed measured by a reference probe between ops.
--trace 1 runs a warm-up round and an untraced round, then the same round
with every layer wrapped in spans, and reports the per-layer metrics of the
traced round plus the tracing overhead; its call tree goes to .bench_out/.
See bench/NOTES.md.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS thread (the client is single-threaded and
# QuadPlan.integrate does a complex matvec) and no precision override.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FRAMESMITH_PRECISION", None)

import argparse
import importlib
import json
import math
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
MODULES = ("cli", "construction", "folding", "intervals", "piecewise", "roots",
           "numeric", "trace", "verification", "quadrature", "frametest",
           "serialize", "sequences")
SETUP_REPEATS = 3
MIN_ROUNDS = 3

# Host speed.  The machine is shared, and the same op's time drifts by 20-60 %
# over tens of seconds, in CPU time as much as in wall time.  A probe runs
# before the first op and after every op: fixed chunks of the arithmetic the
# program spends its time in, built from the standard library and numpy
# only, so no program change can move it.  Each op's latency (and each
# set-up) is multiplied by the mean host speed -- the probe's nominal time
# over its measured time -- of the probes either side of it: the end-to-end
# timings are seconds on a host where the probe takes its nominal time (this
# 2-core VM in its usual state).  The raw figures are in the details line.
#
# The probe has two chunks, because the host's fast and slow stretches move
# interpreted Fraction arithmetic more than numpy code: exact Fraction sums,
# and a phase matrix shaped like QuadPlan.integrate's,
# exp(i*outer(freqs, nodes)) @ weights.  Each takes about 4.5 ms.
REF_CHUNKS = 3
REF_TERMS = 600
REF_FREQS, REF_NODES = 192, 512
REF_NOMINAL_S = 0.009


def _fraction_chunk() -> None:
    acc = Fraction(0)
    for i in range(1, REF_TERMS):
        acc += Fraction(1, i * i + 1)


def _numpy_chunk() -> None:
    import numpy as np
    freqs = np.linspace(0.0, 200.0, REF_FREQS)
    nodes = np.linspace(-1.0, 1.0, REF_NODES)
    np.exp(1j * np.outer(freqs, nodes)) @ np.full(REF_NODES, 1.0 / REF_NODES)


def host_speed() -> float:
    """REF_NOMINAL_S over the median time of REF_CHUNKS runs of the probe."""
    times = []
    for _ in range(REF_CHUNKS):
        t0 = time.perf_counter()
        _fraction_chunk()
        _numpy_chunk()
        times.append(time.perf_counter() - t0)
    return REF_NOMINAL_S / statistics.median(times)


def import_program() -> types.SimpleNamespace:
    """Fresh import of framesmith from ./src (earlier copies are dropped, so
    each set-up pays the program's import cost)."""
    for name in [n for n in sys.modules if n == "framesmith" or n.startswith("framesmith.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("framesmith")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"framesmith imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"framesmith.{m}")
                                    for m in MODULES})


def setup(workload: str, seed: int, work: Path):
    """Returns (raw seconds, scaled seconds, program, ops)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    before = host_speed()
    t0 = time.perf_counter()
    fs = import_program()
    ops = workloads.WORKLOADS[workload](fs, seed, work)
    dt = time.perf_counter() - t0
    return dt, dt * (before + host_speed()) / 2, fs, ops


class Loop:
    """Runs ops, keeps latencies (raw and scaled to the nominal host speed),
    oracle results and output digests."""

    def __init__(self, seed: int, probe: bool):
        self.rng = random.Random(seed ^ 0x5EED)
        self.probe = probe
        self.speeds = [host_speed()] if probe else []
        self.samples: list[tuple[str, float, float]] = []   # label, raw s, scaled s
        self.failures: list[dict] = []
        self.errs: list[float] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.rounds_s: list[float] = []

    def round(self, ops, deadline: float = math.inf) -> float:
        """One round in a seeded order; stops early once `deadline`
        (a perf_counter time) has passed.  Returns the round's raw time
        without the probes."""
        order = list(ops)
        self.rng.shuffle(order)
        self.rounds_s.append(0.0)
        for op in order:
            if time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                out = workloads.Outcome(False, traceback.format_exc(limit=3))
            dt = time.perf_counter() - t0
            self.rounds_s[-1] += dt
            scale = 1.0
            if self.probe:
                self.speeds.append(host_speed())
                scale = (self.speeds[-2] + self.speeds[-1]) / 2
            self.attempted += 1
            self.samples.append((op.label, dt, dt * scale))
            if out.ok and out.digest:
                seen = self.digests.setdefault(op.label, out.digest)
                if seen != out.digest:
                    out = workloads.Outcome(False, "output bytes differ from the "
                                                   "previous repetition")
            if not out.ok:
                self.failures.append({"op": op.label, "why": out.why})
            elif out.err is not None:
                self.errs.append(out.err)
        return self.rounds_s[-1]


def mix_figures(per_op: dict[str, list[float]], ops) -> tuple[float, float, float, float]:
    """(ops_per_s, op_p50_s, op_tail_s, tail percentile) of the fixed mix,
    each op kind at the median of its samples, so every kind weighs the same
    however the time window cut the last round, and a slow stretch of the
    host moves a kind only if it covers half of its samples."""
    lat = sorted(statistics.median(per_op[op.label]) for op in ops)
    n = len(lat)
    # The highest percentile with at least 10 samples beyond it in the
    # shortest run (MIN_ROUNDS rounds of the mix); one round's worth of
    # latencies is then read at that percentile, so it falls on the same
    # place of the mix whatever the number of rounds.
    k = MIN_ROUNDS * n
    tail_p = (k - 10) / k
    tail_rank = max(-(-n * (k - 10) // k) - 1, 0)   # nearest rank, exact
    return n / sum(lat), statistics.median(lat), lat[tail_rank], tail_p


def end_to_end(loop: Loop, ops, setup_s: float) -> tuple[dict, dict]:
    raw: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    for label, dt, dt_scaled in loop.samples:
        raw.setdefault(label, []).append(dt)
        scaled.setdefault(label, []).append(dt_scaled)
    ops_per_s, p50, tail, tail_p = mix_figures(scaled, ops)
    raw_ops_per_s, raw_p50, raw_tail, _ = mix_figures(raw, ops)
    worst = max(loop.errs) if loop.errs else 0.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "ok_frac": ((loop.attempted - len(loop.failures)) / loop.attempted, "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cert_bits": (-math.log2(worst) if worst > 0 else 0.0, "bits"),
    }
    speeds = loop.speeds
    info = {"samples": len(loop.samples),
            "samples_per_op": min(len(v) for v in raw.values()),
            "tail_percentile": round(100.0 * tail_p, 2),
            "host_speed": {"median": statistics.median(speeds), "min": min(speeds),
                           "max": max(speeds)},
            "unscaled": {"ops_per_s": raw_ops_per_s, "op_p50_s": raw_p50,
                         "op_tail_s": raw_tail},
            "op_median_s": {k: round(statistics.median(v), 4) for k, v in scaled.items()}}
    return metrics, info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer(tr: tracing.Tracer, traced_s: float, untraced_s: float) -> dict:
    st, counts = tr.stats, tr.counts
    out: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str) -> None:
        for f in fields:
            out[f"{name}.{f}"] = (getattr(st[name], f) if name in st else 0,
                                  "count" if f == "calls" else "s")

    span("numeric.cos_pi", "calls", "self_s")
    span("numeric.sqrt_enclosure", "calls", "self_s")
    span("quadrature.plan_build", "calls", "s")
    span("quadrature.integrate", "calls", "self_s")
    for c in ("quadrature.nodes", "quadrature.closed_cells", "quadrature.freqs"):
        out[c] = (counts.get(c, 0), "count")
    out["quadrature.phase_bytes_computed"] = (
        counts.get("quadrature.phase_bytes_computed", 0), "bytes")
    span("frametest.frame_energy", "s")
    out["frametest.k_swept"] = (counts.get("frametest.k_swept", 0), "count")
    span("frametest.per_scale_energy_exact", "calls", "s")
    span("verification.check_split", "calls", "s")
    for fn in ("check_ntf_multiwavelet", "check_density", "check_semiorthogonal",
               "check_wavelet_set_tiling", "family_grid"):
        span(f"verification.{fn}", "s")
    span("trace.pair_sum", "calls", "self_s")
    span("piecewise.eval", "calls", "self_s")
    span("piecewise.compose_scale", "calls")
    span("piecewise.integrate_product", "calls", "s")
    span("roots.sqrt_of", "calls")
    span("roots.mul", "calls", "self_s")
    span("roots.enclosure", "calls", "s")
    span("roots.sign_verdict", "calls")
    verdicts = st["roots.sign_verdict"].calls if "roots.sign_verdict" in st else 0
    out["roots.sign_verdict.uncertain_frac"] = (
        counts.get("roots.sign_verdict.uncertain", 0) / verdicts if verdicts else 0.0, "1")
    for fn in ("fiber", "restricted_trace", "dilated_trace"):
        span(f"trace.{fn}", "calls", "self_s")
    out["trace.grid_points"] = (counts.get("trace.grid_points", 0), "count")
    for name in tracing.IDENTITY_CHECKS:
        span(name, "s")
    for fn in ("admissibility_check", "build_scaling", "build_wavelets",
               "waveletset_closure"):
        span(f"construction.{fn}", "s")
    span("folding.per_multiplicity", "calls", "s")
    span("folding.layered_partition", "s")
    span("intervals.overlay_counts", "calls", "s")
    for fn in ("family_to_jsonable", "family_from_jsonable", "dumps_canonical"):
        span(f"serialize.{fn}", "s")
    for cmd in ("construct", "check", "trace", "frame_test", "waveletset"):
        span(f"cli.{cmd}", "s")
    out["tracing.round_s"] = (traced_s, "s")
    out["tracing.overhead_s"] = (traced_s - untraced_s, "s")
    return out


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "framesmith" / "__init__.py").is_file():
        print(f"bench: no framesmith sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # median of several set-ups; the ops of the last one are used
        setups, setups_raw = [], []
        for _ in range(SETUP_REPEATS):
            setup_raw, setup_s, fs, ops = setup(args.workload, args.seed, work)
            setups.append(setup_s)
            setups_raw.append(setup_raw)
        info = {"workload": args.workload, "seed": args.seed,
                "ops_per_round": len(ops), "setup_runs_s": setups,
                "setup_runs_unscaled_s": setups_raw}
        if args.trace:
            loop = Loop(args.seed, probe=False)
            loop.round(ops)   # warm-up: the first round also pays for cold caches
            untraced_s = loop.round(ops)
            tr = tracing.Tracer()
            tr.install()
            try:
                traced_s = loop.round(ops)
            finally:
                tr.uninstall()
            metrics = per_layer(tr, traced_s, untraced_s)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tree = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tree.write_text(json.dumps(tr.call_tree(), indent=1))
            info.update(rounds=3, traced_round_s=traced_s, untraced_round_s=untraced_s,
                        call_tree=str(tree.relative_to(ROOT)))
        else:
            loop = Loop(args.seed, probe=True)
            start = time.perf_counter()
            for _ in range(MIN_ROUNDS):
                loop.round(ops)
            while time.perf_counter() - start < args.seconds:
                loop.round(ops, deadline=start + args.seconds)
            metrics, extra = end_to_end(loop, ops, statistics.median(setups))
            info.update(rounds=len(loop.rounds_s), measured_s=time.perf_counter() - start,
                        round_s=loop.rounds_s, **extra)
        info.update(failures=loop.failures[:20], env=environment())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(info, default=str))
    print(json.dumps({
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
