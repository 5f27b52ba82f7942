"""The three benchmark workloads: seeded inputs, operations and their oracles.

Every workload is a closed loop with one client: `WORKLOADS[name](fs, seed,
work)` generates the inputs from the seed alone, writing files under `work`,
and returns the fixed op mix of one round.  An op returns an `Outcome`; its
oracle decides `ok`, and `err` is the certified error bound it produced (None
when it certifies nothing), from which the runner derives cert_bits.

`fs` is a namespace of freshly imported framesmith modules.  Ops call through
module attributes at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, Optional

BUILTINS = ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")
DILATIONS = (2, 3, -2)
REFUSED = ("journe", 3)             # closure of the Journe set fails at a = 3
SEMIORTH = {"shannon": "pass", "journe": "pass",
            "pwl:a=1/2,b=1/2": "fail", "pwl:a=3/4,b=5/4": "fail"}
REQUIRED_SUITES = ("ntf", "split", "decay", "sufficiency", "density")
_RANK = {"pass": 0, "uncertain": 1, "fail": 2}

# Random specs are drawn at a fixed work size.  Per spec, CANDIDATES seeded
# specs are generated and the one whose work size -- (shift window) x (grid
# points) x (profiles), the loop bound of check_split -- is closest to the
# target of its dilation is kept.  Seeds then vary the shapes, not the amount
# of work, so throughput is comparable across seeds; set-up does the same
# number of candidate constructions for every seed.
WORK_TARGET = {2: 17_000, 3: 49_000}
CANDIDATES = 24
# op_tail_s is the 4th heaviest op kind of the mix.  certify has two random
# kinds above the built-ins, so that kind is the second heaviest built-in, a
# fixed op.
CERTIFY_RANDOM = (2, 3)
TRACE_RANDOM = (2, 3)

# frame_energy: the fixed cases, then seeded tents on the indicator families.
# The pwl:a=1/2,b=1/2 case (j -8..4, about 5 s) runs as its sub-ranges 1..4
# and 1..1, so that no op is much longer than the host's fast and slow
# stretches (see the host speed probe in run.py) and a run holds five rounds.
# With the pwl:a=3/4,b=5/4 sub-range 1..2 that makes four heavy fixed kinds,
# so the tail sample is a fixed pwl op (j 1..1) rather than the top of the
# short seeded ones.  The three cheap fixed kinds after them put as many
# kinds below the journe case as above it, so the median of the mix is that
# fixed op, or one of the seeded journe tents next to it in cost.
FRAME_CASES = (("shannon", 2, "chi:[1,2)", -8, 8),
               ("journe", 2, "tent:[-1,1)", -8, 4),
               ("pwl:a=1/2,b=1/2", 2, "tent:[-1,1)", 1, 1),
               ("pwl:a=3/4,b=5/4", 2, "tent:[-1,1)", 1, 4),
               ("pwl:a=1/2,b=1/2", 2, "tent:[-1,1)", 1, 4),
               ("pwl:a=3/4,b=5/4", 2, "tent:[-1,1)", 1, 2),
               ("shannon", 3, "chi:[1,2)", -8, 8),
               ("shannon", -2, "chi:[1,2)", -8, 8),
               ("shannon", 2, "tent:[-1,1)", -8, 4))
FRAME_SEEDED = 8
FRAME_CENTRES = tuple(Fraction(c, 4) for c in (-5, -3, -1, 1, 3, 5, -2, 2))
FRAME_TOL = 1e-5          # |ratio + tail/||f||^2 - 1|; largest today 2.6e-6

# trace_identities
SEQUENCES = ("1@0,i@1,-1/2@-1", "1@0", "1@0,1@1", "1/2@-1,-i@2")
LOW_BITS, HIGH_BITS = 64, 128
TRACE_POINTS = 4
RANDOM_POINTS = 3
HIGH_POINTS = 2
BUILTIN_GRID_SEED = 1000
HIGH_CASES = (("shannon", -2), ("journe", 2), ("pwl:a=1/2,b=1/2", 2),
              ("pwl:a=3/4,b=5/4", -2))


@dataclass
class Outcome:
    ok: bool
    why: str = ""
    err: Optional[float] = None    # certified error bound, if any
    digest: str = ""               # canonical output bytes, compared across rounds


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _frac_bytes(q: Fraction) -> bytes:
    # repr() of these bounds can pass the int-to-str digit limit
    return b"".join(n.to_bytes(n.bit_length() // 8 + 1, "big", signed=True) + b"/"
                    for n in (q.numerator, q.denominator))


def _cli(fs, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = fs.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _spec(fs, name: str, a: int):
    return fs.construction.SpectralSpec(fs.construction.example_by_name(name).sigma, a)


def _work_size(fs, spec) -> int:
    scaling, wavelets = fs.construction.build_family(spec)
    gens = (scaling.generator_set(), wavelets.generator_set())
    radius = max(max(abs(x) for x in g.support_hull()) for g in gens)
    s_window = int(radius) * abs(spec.dilation) + 1
    grid = fs.verification.family_grid(*gens)
    return s_window * len(grid) * (len(scaling.phis) + len(wavelets.psis))


def random_specs(fs, rng: random.Random, dilations):
    """Seeded admissible specs of the target work size of each dilation.
    Only a > 0: the generator is not admissible for a < 0."""
    out = []
    for a in dilations:
        cands = [fs.construction.random_admissible_spec(rng, a) for _ in range(CANDIDATES)]
        out.append(min(cands, key=lambda s: abs(_work_size(fs, s) - WORK_TARGET[a])))
    return out


# -- certify ---------------------------------------------------------------


def _certify_op(fs, work: Path, tag: str, source: List[str], a: int,
                semiorth: Optional[str]) -> Callable[[], Outcome]:
    fam, chk, csv = (work / f"{tag}.family.json", work / f"{tag}.check.json",
                     work / f"{tag}.trace.csv")

    def run() -> Outcome:
        rc, _, err = _cli(fs, ["construct", *source, "--a", str(a), "--out", str(fam)])
        if rc != 0:
            return Outcome(False, f"construct exit {rc}: {err.strip()}")
        rc, _, _ = _cli(fs, ["check", "--family", str(fam), "--out", str(chk)])
        report = json.loads(chk.read_text())
        status = {}   # worst verdict per suite
        for c in report["checks"]:
            suite = c["name"].split(":", 1)[0]
            status[suite] = max(status.get(suite, "pass"), c["status"], key=_RANK.get)
        bad = [s for s in REQUIRED_SUITES if status.get(s) != "pass"]
        if bad:
            return Outcome(False, f"suites not passing: {bad}")
        got = status.get("semiorth")
        if got not in ("pass", "fail") or (semiorth and got != semiorth):
            return Outcome(False, f"semiorth {got}, expected {semiorth or 'pass|fail'}")
        if rc != (1 if got == "fail" else 0):
            return Outcome(False, f"check exit {rc} with semiorth {got}")
        rc, _, err = _cli(fs, ["trace", "--family", str(fam), "--grid", "auto",
                               "--out", str(csv)])
        rows = csv.read_text().splitlines()
        if rc != 0 or len(rows) < 2:
            return Outcome(False, f"trace exit {rc}, {len(rows)} lines")
        tails = [Fraction(c["tail_bound"]) for c in report["checks"]
                 if c.get("tail_bound") not in (None, "0")]
        return Outcome(True, err=float(max(tails)) if tails else None,
                       digest=_sha(fam.read_bytes(), chk.read_bytes(), csv.read_bytes()))
    return run


def _refusal_op(fs, work: Path, name: str, a: int) -> Callable[[], Outcome]:
    def run() -> Outcome:
        rc, _, err = _cli(fs, ["construct", "--example", name, "--a", str(a),
                               "--out", str(work / "refused.json")])
        if rc != 2 or "Traceback" in err or not err.strip():
            return Outcome(False, f"expected a refusal with exit 2, got {rc}: {err!r}")
        return Outcome(True, digest=_sha(err.encode()))
    return run


def _waveletset_ops(fs, work: Path) -> List[Op]:
    sets = work / "journe.E.json"
    sets.write_text(fs.serialize.dumps_canonical(
        fs.serialize.sets_to_jsonable([fs.construction.JOURNE_WAVELET_SET])))
    fam, rep = work / "journe.ws.family.json", work / "journe.ws.check.json"

    def build() -> Outcome:
        rc, _, err = _cli(fs, ["waveletset", "--E", str(sets), "--a", "2",
                               "--out", str(fam)])
        if rc != 0:
            return Outcome(False, f"waveletset exit {rc}: {err.strip()}")
        return Outcome(True, digest=_sha(fam.read_bytes()))

    def tiling() -> Outcome:
        rc, _, err = _cli(fs, ["check-waveletset", "--E", str(sets), "--a", "2",
                               "--out", str(rep)])
        status = json.loads(rep.read_text())["status"] if rep.exists() else None
        if rc != 0 or status != "pass":
            return Outcome(False, f"check-waveletset exit {rc}, status {status}")
        return Outcome(True, digest=_sha(rep.read_bytes()))

    return [Op("waveletset:journe", build), Op("check-waveletset:journe", tiling)]


def certify(fs, seed: int, work: Path) -> List[Op]:
    ops = []
    for name in BUILTINS:
        for a in DILATIONS:
            label = f"{name}@{a}"
            if (name, a) == REFUSED:
                ops.append(Op(f"refusal:{label}", _refusal_op(fs, work, name, a)))
                continue
            ops.append(Op(f"certify:{label}", _certify_op(
                fs, work, f"b{len(ops)}", ["--example", name], a, SEMIORTH[name])))
    rng = random.Random(seed)
    for i, spec in enumerate(random_specs(fs, rng, CERTIFY_RANDOM)):
        path = work / f"random{i}.sigma.json"
        path.write_text(json.dumps({"sigma": fs.serialize.pwl_to_jsonable(spec.sigma),
                                    "dilation": spec.dilation}))
        ops.append(Op(f"certify:random{i}@{spec.dilation}", _certify_op(
            fs, work, f"r{i}", ["--sigma", str(path)], spec.dilation, None)))
    ops.extend(_waveletset_ops(fs, work))
    return ops


# -- frame_energy ------------------------------------------------------------


def _frame_op(fs, work: Path, fam: Path, signal: str, jmin: int, jmax: int,
              tag: str) -> Callable[[], Outcome]:
    out = work / f"{tag}.frame.json"

    def run() -> Outcome:
        rc, _, err = _cli(fs, ["frame-test", "--family", str(fam), "--signal", signal,
                               "--jmin", str(jmin), "--jmax", str(jmax),
                               "--out", str(out)])
        if rc not in (0, 1):
            return Outcome(False, f"frame-test exit {rc}: {err.strip()}")
        rep = json.loads(out.read_text())
        if rep["inconclusive"]:
            return Outcome(False, f"inconclusive: {rep['detail']}")
        err_ = abs(rep["ratio"] + rep["tail_estimate"] / float(Fraction(rep["norm2"])) - 1)
        if not err_ <= FRAME_TOL:
            return Outcome(False, f"frame ratio error {err_:.3g} > {FRAME_TOL}")
        return Outcome(True, err=err_, digest=_sha(out.read_bytes()))
    return run


def _family_file(fs, work: Path, name: str, a: int) -> Path:
    path = work / f"{name.replace(':', '_').replace('/', '_').replace(',', '_')}@{a}.json"
    if not path.exists():
        scaling, wavelets = fs.construction.build_family(_spec(fs, name, a))
        payload = fs.serialize.family_to_jsonable(
            scaling, wavelets, fs.serialize.digest_of({"example": name, "dilation": a}))
        path.write_text(fs.serialize.dumps_canonical(payload))
    return path


def frame_energy(fs, seed: int, work: Path) -> List[Op]:
    ops = []
    for name, a, signal, jmin, jmax in FRAME_CASES:
        fam = _family_file(fs, work, name, a)
        ops.append(Op(f"frame:{name}@{a}:{signal}:{jmin}..{jmax}",
                      _frame_op(fs, work, fam, signal, jmin, jmax, f"f{len(ops)}")))
    # Seeded smooth signals on the indicator families (closed-form cells).
    # Tents only: a jump in the signal makes the k sweep run to its budget.
    # Each tent sits within 1/32 of a fixed centre: the cost of an op depends
    # on where the tent meets the family's cells, so the seed moves the exact
    # endpoints and not the amount of work.
    rng = random.Random(seed)
    families = [("shannon", 2), ("shannon", 3), ("journe", 2), ("journe", -2)]
    for i in range(FRAME_SEEDED):
        name, a = families[i % len(families)]
        half = Fraction(2 + (i // len(families)) % 4, 4)
        mid = FRAME_CENTRES[i] + Fraction(rng.randint(-2, 2), 64)
        signal = f"tent:[{mid - half},{mid + half})"
        fam = _family_file(fs, work, name, a)
        ops.append(Op(f"frame:{name}@{a}:seeded{i}",
                      _frame_op(fs, work, fam, signal, -8, 4, f"f{len(ops)}")))
    return ops


# -- trace_identities ----------------------------------------------------------


def _identity_op(fs, spec, f_text: str, bits: int, n_points: int,
                 grid_seed: int) -> Callable[[], Outcome]:
    scaling, wavelets = fs.construction.build_family(spec)
    pg, wg = scaling.generator_set(), wavelets.generator_set()
    (lo1, hi1), (lo2, hi2) = pg.support_hull(), wg.support_hull()
    lo, width = min(lo1, lo2), (max(hi1, hi2) - min(lo1, lo2)) / n_points
    # One seeded point near the middle of each equal slice of the hull (within
    # 1/64 of the slice width).  The cost of a point depends on which pieces
    # of the profiles its lattice shifts meet, and jumps where a shift crosses
    # a breakpoint, so a narrowly jittered grid keeps the work of an op nearly
    # the same for every seed; the seed still changes the exact rationals.
    grid = [q for i in range(n_points) for q in fs.trace.grid_of_size(
        (lo + (i + Fraction(31, 64)) * width, lo + (i + Fraction(33, 64)) * width), 1,
        seed=grid_seed + i, exclude=pg.breakpoints() + wg.breakpoints())]
    f = fs.sequences.Sequence.parse(f_text)
    tol = Fraction(1, 2 ** (bits - 8))

    def run() -> Outcome:
        tr = fs.trace
        dil = tr.dilation_trace_check(pg, f, grid, bits)
        split = tr.trace_split_check(pg, wg, f, grid, bits)
        series = tr.series_identity_check(pg, wg, 1, grid) + \
            tr.series_identity_check(pg, wg, 2, grid)
        gen = tr.ntf_generator_test(pg, pg, grid, bits=bits)
        worst = max([r.discrepancy for r in dil] + [r.additivity_gap for r in split])
        if worst > tol:
            return Outcome(False, f"bound {float(worst):.3g} above 2^-(bits-8)")
        low = [r for r in split if r.monotone_margin < -r.additivity_gap]
        if low:
            return Outcome(False, f"monotone margin {float(low[0].monotone_margin):.3g}")
        verdicts = {r.verdict(bits) for r in series} | {r.verdict for r in gen}
        if verdicts != {"pass"}:
            return Outcome(False, f"series/generator verdicts {sorted(verdicts)}")
        exact = [r.discrepancy for r in dil] + \
            [q for r in split for q in (r.additivity_gap, r.monotone_margin)]
        return Outcome(True, err=float(worst), digest=_sha(*map(_frac_bytes, exact)))
    return run


def trace_identities(fs, seed: int, work: Path) -> List[Op]:
    # As in certify, the built-ins are fixed inputs and the seed draws the
    # random specs, here with their grids: a built-in op's cost moved up to
    # 2.7x between seeds (journe at 128 bits) even with the narrow jitter.
    rng = random.Random(seed)
    cases = [(f"{n}@{a}", _spec(fs, n, a), LOW_BITS, TRACE_POINTS, False)
             for n in BUILTINS for a in DILATIONS if (n, a) != REFUSED]
    cases += [(f"random{i}@{s.dilation}", s, LOW_BITS, RANDOM_POINTS, True)
              for i, s in enumerate(random_specs(fs, rng, TRACE_RANDOM))]
    cases += [(f"{n}@{a}", _spec(fs, n, a), HIGH_BITS, HIGH_POINTS, False)
              for n, a in HIGH_CASES]
    ops = []
    for i, (label, spec, bits, n, seeded) in enumerate(cases):
        f_text = SEQUENCES[i % len(SEQUENCES)]
        grid_seed = rng.randrange(1 << 30) if seeded else BUILTIN_GRID_SEED + i
        ops.append(Op(f"identities:{label}:{bits}b",
                      _identity_op(fs, spec, f_text, bits, n, grid_seed)))
    return ops


WORKLOADS = {"certify": certify, "frame_energy": frame_energy,
             "trace_identities": trace_identities}
