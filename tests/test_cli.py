import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from framesmith.cli import main
from framesmith.construction import (ScalingFamily, SpectralSpec,
                                     WaveletFamily, build_family, example_pwl,
                                     build_scaling, build_wavelets)
from framesmith.serialize import (ParseError, digest_of, dumps_canonical,
                                  family_from_jsonable, family_to_jsonable,
                                  loads_json, pwl_to_jsonable, sets_to_jsonable)
from framesmith.intervals import IntervalSet
from framesmith.verification import check_ntf_multiwavelet, family_grid


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture()
def family_file(tmp_path):
    out = tmp_path / "fam.json"
    assert run("construct", "--example", "pwl:a=1/2,b=1/2", "--out", out) == 0
    return out


class TestConstruct:
    def test_writes_deterministic_family(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run("construct", "--example", "shannon", "--out", a) == 0
        assert run("construct", "--example", "shannon", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sigma_file_input(self, tmp_path):
        spec = example_pwl(F(1, 2), F(1, 2))
        from framesmith.serialize import pwl_to_jsonable
        sigma_file = tmp_path / "sigma.json"
        sigma_file.write_text(dumps_canonical(
            {"sigma": pwl_to_jsonable(spec.sigma), "dilation": 2}))
        out = tmp_path / "fam.json"
        assert run("construct", "--sigma", sigma_file, "--out", out) == 0
        obj = loads_json(out.read_text())
        assert obj["dilation"] == 2
        assert len(obj["psis"]) == 1

    def test_partition_flag(self, tmp_path):
        out_g = tmp_path / "g.json"
        out_w = tmp_path / "w.json"
        assert run("construct", "--example", "pwl:a=2,b=2", "--out", out_g) == 0
        assert run("construct", "--example", "pwl:a=2,b=2",
                   "--partition", "windows", "--out", out_w) == 0
        g = loads_json(out_g.read_text())
        w = loads_json(out_w.read_text())
        assert len(g["psis"]) == 4 and len(w["psis"]) == 5


class TestRoundTrip:
    def test_load_reproduces_checks_byte_identically(self, family_file, tmp_path):
        # CLI pipeline report
        rep_file = tmp_path / "rep.json"
        assert run("check", "--family", family_file, "--suite", "ntf,split",
                   "--out", rep_file) == 0
        # in-memory pipeline with the same grid policy
        scaling, wavelets = build_family(example_pwl(F(1, 2), F(1, 2)))
        from framesmith.verification import VerificationReport, check_split
        grid = family_grid(scaling.generator_set(), wavelets.generator_set())
        report = VerificationReport()
        report.merge(check_ntf_multiwavelet(wavelets, grid=grid), "ntf:")
        report.merge(check_split(scaling, wavelets, grid), "split:")
        payload = report.to_jsonable()
        payload["suite"] = ["ntf", "split"]
        assert dumps_canonical(payload).encode() == rep_file.read_bytes()

    def test_family_file_reloads_identically(self, family_file):
        obj = loads_json(family_file.read_text())
        scaling, wavelets = family_from_jsonable(obj)
        again = family_to_jsonable(scaling, wavelets,
                                   obj["provenance"]["input_digest"])
        assert dumps_canonical(again) == family_file.read_text()


class TestValidationRefusal:
    def test_tampered_wavelet_rejected(self, family_file):
        obj = loads_json(family_file.read_text())
        # scale one wavelet square: breaks the telescoping invariant
        for piece in obj["psis"][0]["square"]:
            piece["beta"] = piece["beta"] + "0"  # x10 keeps it rational
        with pytest.raises(ParseError, match="invariant"):
            family_from_jsonable(obj)

    def test_malformed_rational_rejected(self, family_file):
        obj = loads_json(family_file.read_text())
        obj["sigma"][0]["alpha"] = "one half"
        with pytest.raises(ParseError, match="sigma"):
            family_from_jsonable(obj)

    def test_cli_exit_2_on_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("check", "--family", bad) == 2

    @pytest.mark.parametrize("kind,mutate,where", [
        ("family", lambda o: o["sigma"][0].update(piece=o["sigma"][0]["piece"][:1]),
         "family.sigma[0].piece"),
        ("family", lambda o: o["sigma"][0].update(piece=5), "family.sigma[0].piece"),
        ("family", lambda o: o.update(phis=list(o["phis"].values())), "family.phis"),
        ("family", lambda o: o.update(partition=None), "family.partition"),
        ("family", lambda o: o.update(psis=None), "family.psis"),
        ("sigma", lambda o: o.update(dilation=[2]), "dilation"),
    ], ids=["short_piece", "scalar_piece", "phis_list", "partition_null",
            "psis_null", "sigma_dilation_list"])
    def test_malformed_file_exits_2_with_location(self, family_file, tmp_path,
                                                  capsys, kind, mutate, where):
        if kind == "family":
            path = family_file
            obj = loads_json(path.read_text())
            argv = ["check", "--family", path]
        else:
            from framesmith.serialize import pwl_to_jsonable
            path = tmp_path / "sigma.json"
            obj = {"sigma": pwl_to_jsonable(example_pwl(F(1, 2), F(1, 2)).sigma),
                   "dilation": 2}
            argv = ["construct", "--sigma", path, "--out", tmp_path / "o.json"]
        mutate(obj)
        path.write_text(dumps_canonical(obj))
        capsys.readouterr()
        assert run(*argv) == 2
        assert f"parse error: {where}" in capsys.readouterr().err


class TestExitCodes:
    def test_pass_is_zero(self, family_file):
        assert run("check", "--family", family_file, "--suite", "ntf") == 0

    def test_fail_is_one(self, tmp_path):
        # internally consistent family whose sigma tends to 1/2 at 0:
        # loads fine, fails the sufficiency/density checks
        spec = example_pwl(F(1, 2), F(1, 2))
        halved = SpectralSpec(spec.sigma.scale_value(F(1, 2)), 2)
        scaling = build_scaling(halved, check=False)
        wavelets = build_wavelets(halved, check=False)
        out = tmp_path / "halved.json"
        out.write_text(dumps_canonical(
            family_to_jsonable(scaling, wavelets, digest_of({"t": 1}))))
        assert run("check", "--family", out, "--suite", "sufficiency") == 1

    def test_inconclusive_is_two(self, tmp_path):
        out = tmp_path / "sh.json"
        assert run("construct", "--example", "shannon", "--out", out) == 0
        energy = tmp_path / "e.json"
        code = run("frame-test", "--family", out, "--signal", "chi:[1,2)",
                   "--jmin", 0, "--jmax", 0, "--ktail", "1e-9",
                   "--kbudget", 256, "--out", energy)
        assert code == 2

    @pytest.mark.parametrize("example", ["shannon", "journe", "pwl:a=1/2,b=1/2",
                                         "pwl:a=3/4,b=5/4"])
    def test_frame_test_defaults_pass_on_builtins(self, tmp_path, example):
        # ratio + the exact energy of the scales outside -8..8 is within --tol
        fam, energy = tmp_path / "fam.json", tmp_path / "e.json"
        assert run("construct", "--example", example, "--out", fam) == 0
        assert run("frame-test", "--family", fam, "--out", energy) == 0
        report = json.loads(energy.read_text())
        assert report["within_tolerance"] and not report["inconclusive"]
        assert report["ratio"] < 1 - report["tolerance"]

    def test_frame_test_halved_family_fails(self, tmp_path):
        spec = example_pwl(F(1, 2), F(1, 2))
        halved = SpectralSpec(spec.sigma.scale_value(F(1, 2)), 2)
        out = tmp_path / "halved.json"
        out.write_text(dumps_canonical(family_to_jsonable(
            build_scaling(halved, check=False), build_wavelets(halved, check=False),
            digest_of({"t": 1}))))
        assert run("frame-test", "--family", out, "--jmin", -4, "--jmax", 4) == 1

    @pytest.mark.parametrize("jmax", [-1, -2])
    def test_frame_test_inverted_range_is_two(self, tmp_path, capsys, jmax):
        # -1 would sweep nothing; -2 would count scale -1 twice in the tail
        fam, energy = tmp_path / "fam.json", tmp_path / "e.json"
        assert run("construct", "--example", "shannon", "--a", 4, "--out", fam) == 0
        capsys.readouterr()
        assert run("frame-test", "--family", fam, "--signal", "tent:[-1,1)",
                   "--jmin", 0, "--jmax", jmax, "--out", energy) == 2
        assert f"empty scale range 0..{jmax}" in capsys.readouterr().err
        assert not energy.exists()

    def test_waveletset_classify(self, tmp_path):
        seeds = tmp_path / "seed.json"
        seeds.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-1, 1))])))
        assert run("waveletset", "--E", seeds, "--a", 2, "--classify") == 0
        bad = tmp_path / "bad_seed.json"
        bad.write_text(dumps_canonical(sets_to_jsonable([IntervalSet.of((0, 1))])))
        assert run("waveletset", "--E", bad, "--a", 2, "--classify") == 1


class TestOutputs:
    def test_sample_row_count(self, family_file, tmp_path):
        csv = tmp_path / "s.csv"
        assert run("sample", "--family", family_file, "--grid", 1024,
                   "--out", csv) == 0
        lines = csv.read_text().strip().split("\n")
        assert len(lines) == 1025
        assert lines[0] == "xi,psi_hat_0,sigma"

    def test_trace_csv(self, family_file, tmp_path):
        csv = tmp_path / "t.csv"
        assert run("trace", "--family", family_file, "--f", "1@0,1@1",
                   "--grid", 16, "--out", csv) == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "xi,spectral,dim,tau_f"
        assert len(lines) == 17

    def test_waveletset_family_output(self, tmp_path):
        sets = tmp_path / "ws.json"
        sets.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-2, -1), (1, 2))])))
        fam = tmp_path / "ws_fam.json"
        assert run("waveletset", "--E", sets, "--a", 2, "--out", fam) == 0
        obj = loads_json(fam.read_text())
        scaling, wavelets = family_from_jsonable(obj)
        assert wavelets.psis[0].is_indicator()

    def test_check_waveletset_cli(self, tmp_path):
        sets = tmp_path / "ws.json"
        sets.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-2, -1), (1, 2))])))
        rep = tmp_path / "rep.json"
        assert run("check-waveletset", "--E", sets, "--a", 2,
                   "--window", 64, "--jrange", 24, "--out", rep) == 0
        pert = tmp_path / "pert.json"
        pert.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-2, -1), (1, F(21, 10)))])))
        assert run("check-waveletset", "--E", pert, "--a", 2) == 1


class TestSuites:
    def test_section_independent_of_suite_list(self, family_file, tmp_path):
        full = tmp_path / "full.json"
        run("check", "--family", family_file, "--out", full)
        whole: dict = {}
        for c in loads_json(full.read_text())["checks"]:
            whole.setdefault(c["name"].split(":")[0], []).append(c)
        for suites in ("sufficiency", "decay,split", "split,split",
                       "sufficiency,ntf"):
            rep = tmp_path / f"{suites}.json"
            run("check", "--family", family_file, "--suite", suites, "--out", rep)
            checks = loads_json(rep.read_text())["checks"]
            expected = [c for n in suites.split(",") for c in whole[n]]
            assert dumps_canonical(checks) == dumps_canonical(expected)

    def test_shared_checks_run_once(self, family_file, monkeypatch):
        import framesmith.verification as v
        calls = {"check_split": 0, "check_ntf_multiwavelet": 0}
        for name in calls:
            def counted(*args, _fn=getattr(v, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(v, name, counted)
        run("check", "--family", family_file)
        assert calls == {"check_split": 1, "check_ntf_multiwavelet": 1}


class TestDeterminism:
    def test_full_pipeline_byte_identical(self, tmp_path):
        # the full suite legitimately reports the overlap family as not
        # semi-orthogonal (exit 1); determinism is about identical bytes
        files = []
        codes = []
        for tag in ("one", "two"):
            fam = tmp_path / f"fam_{tag}.json"
            rep = tmp_path / f"rep_{tag}.json"
            assert run("construct", "--example", "pwl:a=1/2,b=1/2",
                       "--out", fam) == 0
            codes.append(run("check", "--family", fam, "--seed", 0x5EED,
                             "--out", rep))
            files.append((fam.read_bytes(), rep.read_bytes()))
        assert files[0] == files[1]
        assert codes[0] == codes[1] == 1


# -- fuzzing: mutated input files exit 0, 1 or 2 and never raise ---------------

_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?|[\[\]{}:,]|true|false|null')
_REPLACEMENTS = [b'"0"', b'"-1"', b'"1/0"', b'"1/3"', b'"-5/2"', b'"x"', b'""',
                 b'0', b'-2', b'3', b'2.5', b'1e400', b'null', b'true', b'[]',
                 b'{}', b'[[]]', b'"version"', b'"piece"', b',', b':', b'[', b'}', b'']


@st.composite
def _mutated(draw, seed: bytes) -> bytes:
    """The seed bytes after one to three byte edits or JSON-token swaps."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            spans = [m.span() for m in _TOKEN.finditer(bytes(data))]
            lo, hi = draw(st.sampled_from(spans))
            data[lo:hi] = draw(st.sampled_from(_REPLACEMENTS))
        else:
            at = draw(st.integers(0, len(data) - 1))
            op = draw(st.sampled_from(("flip", "insert", "delete")))
            byte = draw(st.integers(0, 255))
            if op == "flip":
                data[at] = byte
            elif op == "insert":
                data.insert(at, byte)
            else:
                del data[at]
    return bytes(data)


@pytest.fixture(scope="module")
def fuzz_seeds(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    fam = root / "seed_family.json"
    assert run("construct", "--example", "pwl:a=1/2,b=1/2", "--out", fam) == 0
    sigma = dumps_canonical({"sigma": pwl_to_jsonable(example_pwl(F(1, 2), F(1, 2)).sigma),
                             "dilation": 2})
    return root, fam.read_bytes(), sigma.encode()


_FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])


class TestFuzz:
    @_FUZZ
    @given(data=st.data())
    def test_mutated_family_file(self, fuzz_seeds, data):
        root, family, _ = fuzz_seeds
        path = root / "family.json"
        path.write_bytes(data.draw(_mutated(family)))
        assert run("check", "--family", path, "--suite", "semiorth",
                   "--out", root / "report.json") in (0, 1, 2)

    @_FUZZ
    @given(data=st.data())
    def test_mutated_sigma_file(self, fuzz_seeds, data):
        root, _, sigma = fuzz_seeds
        path = root / "sigma.json"
        path.write_bytes(data.draw(_mutated(sigma)))
        assert run("construct", "--sigma", path, "--out", root / "fam.json") in (0, 1, 2)
