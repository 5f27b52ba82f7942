import argparse
import json
import re
import sys
import warnings
from dataclasses import fields
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from framesmith import cli
from framesmith.cli import main
from framesmith.construction import (LayeredFamily, SpectralSpec, build_family,
                                     example_by_name, example_pwl,
                                     build_scaling, build_wavelets)
from framesmith.serialize import (ParseError, digest_of, dumps_canonical,
                                  family_from_jsonable, family_to_jsonable,
                                  intervalset_from_jsonable, loads_json,
                                  pwl_from_jsonable, pwl_to_jsonable, sets_from_jsonable,
                                  sets_to_jsonable)
from framesmith.intervals import IntervalSet
from framesmith.piecewise import PiecewiseLinear
from framesmith.rationals import TooManyDigits, format_ratio, ratio_parts
from framesmith.verification import check_ntf_multiwavelet


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

    @pytest.mark.parametrize("both,message", [
        (True, "argument --sigma: not allowed with argument --example"),
        (False, "one of the arguments --sigma --example is required"),
    ], ids=["both", "neither"])
    def test_exactly_one_source(self, tmp_path, capsys, both, message):
        # with both, --sigma used to be ignored without a word
        sigma_file = tmp_path / "sigma.json"
        sigma_file.write_text(dumps_canonical(
            {"sigma": pwl_to_jsonable(example_pwl(F(1, 2), F(1, 2)).sigma)}))
        out = tmp_path / "fam.json"
        source = ["--example", "shannon", "--sigma", sigma_file] if both else []
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run("construct", *source, "--out", out)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()


class TestRoundTrip:
    def test_load_reproduces_checks_byte_identically(self, family_file, tmp_path):
        # CLI pipeline report
        rep_file = tmp_path / "rep.json"
        assert run("check", "--family", family_file, "--suite", "ntf,split",
                   "--out", rep_file) == 0
        # in-memory pipeline
        scaling, wavelets = build_family(example_pwl(F(1, 2), F(1, 2)))
        from framesmith.verification import VerificationReport, check_split
        report = VerificationReport()
        report.merge(check_ntf_multiwavelet(wavelets), "ntf:")
        report.merge(check_split(scaling, wavelets), "split:")
        payload = report.to_jsonable()
        payload["suite"] = ["ntf", "split"]
        assert dumps_canonical(payload).encode() == rep_file.read_bytes()

    def test_family_file_reloads_identically(self, family_file):
        obj = loads_json(family_file.read_text())
        scaling, wavelets = family_from_jsonable(obj)
        again = family_to_jsonable(scaling, wavelets,
                                   obj["provenance"]["input_digest"])
        assert dumps_canonical(again) == family_file.read_text()

    @pytest.mark.parametrize("partition", ["greedy", "windows"])
    @pytest.mark.parametrize("name,a", [
        (name, a) for name in ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")
        for a in (2, 3, -2, -3, 4)
        # sigma of journe is not dilation-monotone at |a| = 3
        if (name, abs(a)) != ("journe", 3)])
    def test_loaded_family_equals_built_family(self, name, a, partition):
        # the loader puts each phi on the window of its key, the layer the
        # builder gave it, and keeps the psi layers as written
        built = build_family(SpectralSpec(example_by_name(name).sigma, a), partition)
        digest = digest_of({"example": name, "dilation": a})
        text = dumps_canonical(family_to_jsonable(*built, digest))
        loaded = family_from_jsonable(loads_json(text))
        for got, want in zip(loaded, built):
            for field in fields(LayeredFamily):
                assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert dumps_canonical(family_to_jsonable(*loaded, digest)) == text

    def test_phis_load_in_numeric_key_order(self):
        # "10" sorts before "2" as text; the profiles follow the windows
        sigma = PiecewiseLinear.indicator(IntervalSet.of((-1, 1), (3, 5), (19, 21)))
        scaling = build_scaling(SpectralSpec(sigma, 2))
        wavelets = LayeredFamily((), (), sigma, 2)
        assert [layer.hull()[0] for layer in scaling.layers] == [-1, 3, 19]
        text = dumps_canonical(family_to_jsonable(scaling, wavelets, "sha256:0"))
        assert list(loads_json(text)["phis"]) == ["0", "10", "2"]
        assert family_from_jsonable(loads_json(text))[0] == scaling


def _scale_square(profile: dict, c) -> None:
    """Multiply the square of a profile in a family file by c, exactly."""
    for piece in profile["square"]:
        for key in ("alpha", "beta"):
            piece[key] = format_ratio(F(piece[key]) * c)


def _tampered(family_file, tmp_path, mutate) -> Path:
    obj = loads_json(family_file.read_text())
    mutate(obj)
    out = tmp_path / "tampered.json"
    out.write_text(dumps_canonical(obj))
    return out


def _x10(obj) -> None:
    _scale_square(obj["psis"][0], 10)


def _family(path):
    return family_from_jsonable(loads_json(path.read_text()))


class TestValidationRefusal:
    def test_tampered_wavelet_loads(self, family_file, tmp_path):
        # a broken telescoping equation is the paper's claim, judged by
        # check; only the structural premises are refused at load
        tampered = _family(_tampered(family_file, tmp_path, _x10))[1]
        original = _family(family_file)[1]
        assert tampered.profiles[0].square == original.profiles[0].square.scale_value(10)

    @pytest.mark.parametrize("mutate,premise", [
        (lambda o: o["partition"].__setitem__(0, [["-1", "3"]]),
         "family invariant violated: family.partition[0]: the layer [-1, 3) "
         "is not injective mod 2pi"),
        (lambda o: o.update(phis={"1": o["phis"]["0"]}),
         "family invariant violated: family.phis[1]: the profile leaks "
         "outside the layer [1, 3)"),
        (lambda o: _scale_square(o["psis"][0], -1), "square negative at"),
    ], ids=["layer_not_injective", "phi_outside_window", "negative_square"])
    def test_broken_premise_exits_2(self, family_file, tmp_path, capsys,
                                    mutate, premise):
        path = _tampered(family_file, tmp_path, mutate)
        capsys.readouterr()
        assert run("check", "--family", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and premise in err
        assert "Traceback" not in err

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
        # used to read as the integer 1 and fail |a| >= 2
        ("sigma", lambda o: o.update(dilation=True), "dilation: expected an integer"),
        # each used to load: "00" replaced window 0, "0_0" read as 0, and
        # JSON booleans as the rationals 0 and 1
        ("family", lambda o: o["phis"].update({"00": o["phis"]["0"]}),
         "family.phis['00']"),
        ("family", lambda o: o.update(phis={"0_0": o["phis"]["0"]}),
         "family.phis['0_0']"),
        ("family", lambda o: o["psis"][0]["square"][0].update(alpha=False, beta=True),
         "family.psis[0].square[0].alpha"),
        # the checking constructor refuses what the loader reads
        ("family", lambda o: o["sigma"].append(o["sigma"][0]),
         "family.sigma: overlapping pieces at"),
        ("family", lambda o: o["psis"][0]["square"].append(o["psis"][0]["square"][-1]),
         "family.psis[0].square: overlapping pieces at"),
        ("family", lambda o: o["phis"]["0"]["square"].append(o["phis"]["0"]["square"][0]),
         "family.phis[0].square: overlapping pieces at"),
    ], ids=["short_piece", "scalar_piece", "phis_list", "partition_null",
            "psis_null", "sigma_dilation_list", "sigma_dilation_bool",
            "phis_key_leading_zero", "phis_key_separator", "boolean_coefficients",
            "sigma_overlap", "psi_square_overlap", "phi_square_overlap"])
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

    def test_reversed_pieces_give_the_same_report(self, family_file, tmp_path):
        # the loader puts every piece list in canonical order itself
        def reverse(o):
            for profile in o["psis"] + list(o["phis"].values()):
                profile["square"].reverse()
                profile["domain"].reverse()
            o["sigma"].reverse()
            for layer in o["partition"]:
                layer.reverse()
        path = _tampered(family_file, tmp_path, reverse)
        assert path.read_text() != family_file.read_text()
        reports = []
        for i, fam in enumerate((family_file, path)):
            out = tmp_path / f"report{i}.json"
            reports.append((run("check", "--family", fam, "--out", out), out.read_bytes()))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command,text,where", [
        ("check-waveletset", '[[["-2","-1"],["2","1"]]]', "sets[0][1]"),
        ("waveletset", '[[["-2","-1"],["1","1"]]]', "sets[0][1]"),
        ("construct", '{"sigma": [{"piece": ["1","-1"], "alpha": "0", "beta": "1"}]}',
         "sigma[0].piece"),
    ], ids=["reversed_set_piece", "empty_set_piece", "reversed_sigma_piece"])
    def test_reversed_or_empty_piece_exits_2_with_location(self, tmp_path, capsys,
                                                          command, text, where):
        # such a piece used to be dropped without a word, so the command
        # judged a set or a sigma other than the one written
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = ["construct", "--sigma", path, "--out", tmp_path / "o.json"] \
            if command == "construct" else [command, "--E", path]
        capsys.readouterr()
        assert run(*argv) == 2
        assert f"parse error: {where}: expected lo < hi" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()


class TestStrictInput:
    """Input that used to load as something other than what it says."""

    @pytest.mark.parametrize("halved_first", [True, False],
                             ids=["halved_first", "halved_last"])
    def test_duplicate_phis_key_exits_2(self, family_file, tmp_path, capsys,
                                        halved_first):
        # plain json.loads kept the last "0": halved first, the file loaded
        # the real profile and passed density; halved last, the halved one
        obj = loads_json(family_file.read_text())
        real = obj["phis"]["0"]
        halved = json.loads(json.dumps(real))
        _scale_square(halved, F(1, 2))
        entries = (halved, real) if halved_first else (real, halved)
        obj["phis"] = {}
        text = dumps_canonical(obj).replace('"phis": {}', '"phis": {' + ", ".join(
            f'"0": {json.dumps(e)}' for e in entries) + "}")
        path = tmp_path / "dup.json"
        path.write_text(text)
        capsys.readouterr()
        assert run("check", "--family", path, "--suite", "density") == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "duplicate key '0'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("obj", [[[], [["1", "2"]]], [[["1", "2"]], []]],
                             ids=["empty_first", "empty_last"])
    def test_sets_list_with_an_empty_set_loads_in_either_order(self, obj):
        # with the empty set first the file was read as one set of bad pairs
        sets = sets_from_jsonable(obj)
        assert sets == [intervalset_from_jsonable(x) for x in obj]
        assert IntervalSet.of() in sets and IntervalSet.of((1, 2)) in sets
        assert sets_from_jsonable([["1", "2"]]) == [IntervalSet.of((1, 2))]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.just(IntervalSet()), st.lists(
        st.tuples(st.fractions(-4, 4, max_denominator=6),
                  st.fractions(F(1, 6), 2, max_denominator=6)),
        max_size=3).map(lambda ps: IntervalSet.of(*((lo, lo + w) for lo, w in ps))),
    ), min_size=1, max_size=4))
    def test_sets_file_round_trips(self, sets):
        # empty sets anywhere, all of them empty included: [[]] is one empty
        # set, since [] is never a [lo, hi] pair
        assert sets_from_jsonable(sets_to_jsonable(sets)) == sets

    @pytest.mark.parametrize("text", ["[]", "[[]]", "[[], []]"])
    def test_empty_sets_fail_the_tiling(self, tmp_path, capsys, text):
        path = tmp_path / "E.json"
        path.write_text(text)
        capsys.readouterr()
        assert run("check-waveletset", "--E", path) == 1
        assert capsys.readouterr().out == "check-waveletset: fail\n"

    @pytest.mark.parametrize("command,text,key", [
        ("construct", '{"sigma": [{"piece": ["-1", "1"], "beta": "1"}], '
                      '"dilation": 2, "dilation": 3}', "dilation"),
        ("construct", '{"sigma": [{"piece": ["-1", "1"], "beta": "1", "beta": "1/2"}]}',
         "beta"),
        ("check-waveletset", '{"E": [["1", "2"]], "E": [["-2", "-1"]]}', "E"),
    ], ids=["sigma_dilation", "sigma_piece_beta", "sets_object"])
    def test_duplicate_key_in_sigma_or_sets_file_exits_2(self, tmp_path, capsys,
                                                         command, text, key):
        path = tmp_path / "input.json"
        path.write_text(text)
        argv = ["construct", "--sigma", path, "--out", tmp_path / "o.json"] \
            if command == "construct" else [command, "--E", path]
        capsys.readouterr()
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"parse error: {path}: duplicate key {key!r}" in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command,option", [
        ("check", "--family"), ("construct", "--sigma"), ("check-waveletset", "--E")])
    def test_deeply_nested_input_exits_2(self, tmp_path, capsys, command, option):
        # the JSON decoder used to escape as a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run(command, option, path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"parse error: {path}: arrays or objects nested too deeply\n"
        assert not out.exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python reads integers of any length")
    @pytest.mark.parametrize("command,option,text", [
        ("check", "--family", '{"version": "framesmith/1", "dilation": %s}'),
        ("construct", "--sigma", '{"sigma": [{"piece": ["-1", "1"], "beta": %s}]}'),
        ("check-waveletset", "--E", '[["-1", %s]]'),
    ], ids=["family_dilation", "sigma_beta", "sets_endpoint"])
    def test_overlong_integer_exits_2_naming_the_file(self, tmp_path, capsys,
                                                      command, option, text):
        # the decoder's digit limit used to escape as a bare ValueError that
        # named no file
        path = tmp_path / "long.json"
        path.write_text(text % ("1" * (sys.get_int_max_str_digits() + 1)))
        out = tmp_path / "out.json"
        capsys.readouterr()
        assert run(command, option, path, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: Exceeds the limit")
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python reads integers of any length")
    def test_overlong_phis_key_exits_2(self, family_file, tmp_path, capsys):
        key = "1" * (sys.get_int_max_str_digits() + 1)
        path = _tampered(family_file, tmp_path,
                         lambda o: o.update(phis={key: o["phis"]["0"]}))
        capsys.readouterr()
        assert run("check", "--family", path) == 2
        err = capsys.readouterr().err
        assert err == (f"parse error: family.phis: a key of {len(key)} characters "
                       f"is too long to read as an integer\n")

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python reads integers of any length")
    @pytest.mark.parametrize("command,option,template", [
        ("trace", "--f", "1@%s"),
        ("trace", "--f", "%s/3@0"),
        ("construct", "--example", "pwl:a=1/%s"),
        ("frame-test", "--signal", "tent:[-1,1/%s)"),
    ], ids=["sequence_index", "sequence_coeff", "example_pwl", "signal_end"])
    def test_overlong_integer_in_string_option_exits_2(self, family_file, tmp_path,
                                                       capsys, command, option,
                                                       template):
        # the digit limit used to escape as a bare ValueError that named no
        # option
        n = sys.get_int_max_str_digits() + 1
        out = tmp_path / "out"
        source = [] if command == "construct" else ["--family", family_file]
        capsys.readouterr()
        assert run(command, *source, option, template % ("1" * n), "--out", out) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {option}: an integer of {n} digits is past the limit "
                       f"of {n - 1} digits for integer string conversion\n")
        assert not out.exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python reads integers of any length")
    def test_overlong_integer_option_exits_2_without_echo(self, tmp_path, capsys):
        # argparse used to echo all the digits of the refused value
        n = sys.get_int_max_str_digits() + 1
        out = tmp_path / "out"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run("construct", "--example", "shannon", "--a", "-" + "1" * n, "--out", out)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"argument --a: an integer of {n} digits is past the limit "
                            f"of {n - 1} digits for integer string conversion\n")
        assert "1" * 100 not in err and len(err) < 1000
        assert not out.exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this Python reads integers of any length")
    def test_digit_limit_lowered_at_runtime_holds_in_the_loader(self):
        # the limit is read on every parse, not once at import
        digits = "1" * 641
        sigma = [{"piece": ["-1", "1"], "beta": f"{digits}/{digits}"}]
        interval = [["-1", f"{digits}/{digits}"]]
        assert pwl_from_jsonable(sigma).eval(0) == 1
        assert intervalset_from_jsonable(interval) == IntervalSet.of((-1, 1))
        old = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            for load, obj in ((pwl_from_jsonable, sigma), (intervalset_from_jsonable, interval)):
                with pytest.raises(ParseError, match="an integer of 641 digits is past the "
                                   "limit of 640 digits") as e:
                    load(obj)
                assert isinstance(e.value.__context__, TooManyDigits)
            with pytest.raises(TooManyDigits):
                ratio_parts(f"{digits}/3")
        finally:
            sys.set_int_max_str_digits(old)
        assert pwl_from_jsonable(sigma).eval(0) == 1

    @pytest.mark.parametrize("f_text,shown", [
        ("1@1_0", "'1@1_0'"),                  # used to read index 10
        ("1@\u0663", "'1@\u0663'"),            # Arabic-Indic three, used to read 3
        ("1@0,2@-\u0663", "'2@-\u0663'"),
        ("\u0661/\u0662@0", "'\u0661/\u0662'"),  # used to read 1/2
        ("\u0661i@1", "'\u0661i'"),
    ], ids=["underscore_index", "arabic_index", "negative_arabic_index",
            "arabic_ratio_coeff", "arabic_imaginary_coeff"])
    def test_non_ascii_numeral_in_sequence_exits_2(self, family_file, tmp_path,
                                                   capsys, f_text, shown):
        csv = tmp_path / "t.csv"
        capsys.readouterr()
        assert run("trace", "--family", family_file, "--f", f_text,
                   "--out", csv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and shown in err
        assert "Traceback" not in err
        assert not csv.exists()

    @pytest.mark.parametrize("command,option,text", [
        ("construct", "--a", "\u0663"),   # used to build the a = 3 family
        ("trace", "--grid", "1_0"),            # used to write 10 rows
        ("frame-test", "--kbudget", "1_0"),    # used to sweep with a budget of 10
    ], ids=["arabic_dilation", "underscore_grid", "underscore_kbudget"])
    def test_non_ascii_integer_option_exits_2(self, family_file, tmp_path, capsys,
                                              command, option, text):
        out = tmp_path / "out"
        source = ["--example", "shannon"] if command == "construct" \
            else ["--family", family_file]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run(command, *source, option, text, "--out", out)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: invalid int value: {text!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_ascii_index_with_sign_and_spaces_still_parses(self, family_file,
                                                           tmp_path):
        one, other = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("trace", "--family", family_file, "--f", "1@ +1 ,i@-2",
                   "--grid", 8, "--out", one) == 0
        assert run("trace", "--family", family_file, "--f", "1@1,i@-2",
                   "--grid", 8, "--out", other) == 0
        assert one.read_bytes() == other.read_bytes()

    @pytest.mark.parametrize("mutate,where,text", [
        (lambda o: o["phis"]["0"]["domain"][0].__setitem__(1, "\u0661/\u0662"),
         "family.phis[0].domain[0].hi", "'\u0661/\u0662'"),
        (lambda o: o["sigma"][0].update(alpha="\uff12"), "family.sigma[0].alpha",
         "'\uff12'"),
    ], ids=["arabic_ratio", "fullwidth_digit"])
    def test_non_ascii_numeral_in_family_file_exits_2(self, family_file, tmp_path,
                                                      capsys, mutate, where, text):
        # each used to load as the ASCII value
        path = _tampered(family_file, tmp_path, mutate)
        capsys.readouterr()
        assert run("check", "--family", path) == 2
        err = capsys.readouterr().err
        assert f"parse error: {where}: not a rational: {text}" in err
        assert "Traceback" not in err


class TestPaperEquations:
    """Files that keep the premises but break an equation reach check."""

    def test_scaled_wavelet_fails_telescoping(self, family_file, tmp_path):
        path, rep = _tampered(family_file, tmp_path, _x10), tmp_path / "r.json"
        assert run("check", "--family", path, "--out", rep) == 1
        checks = {c["name"]: c for c in json.loads(rep.read_text())["checks"]}
        row = checks["ntf:scale_sum_telescopes"]
        assert row["status"] == "fail"
        # the witness is exact: the difference is 9 |psi_0|^2 there, not 0
        psi0 = _family(family_file)[1].profiles[0]
        xi, diff = F(row["witness"]["xi"]), F(row["witness"]["difference"])
        assert diff == 9 * psi0.value_sq(xi) != 0

    def test_halved_scaling_square_fails_split(self, family_file, tmp_path):
        path = _tampered(family_file, tmp_path,
                         lambda o: _scale_square(o["phis"]["0"], F(1, 2)))
        rep = tmp_path / "r.json"
        assert run("check", "--family", path, "--out", rep) == 1
        status = {c["name"]: c["status"]
                  for c in json.loads(rep.read_text())["checks"]}
        assert status["ntf:scale_sum_telescopes"] == "pass"
        assert status["split:two_scale_split[s=0]"] == "fail"

    def test_frame_test_names_the_telescoping_premise(self, family_file,
                                                      tmp_path, capsys):
        path = _tampered(family_file, tmp_path, _x10)
        capsys.readouterr()
        assert run("frame-test", "--family", path) == 2
        err = capsys.readouterr().err
        assert "do not telescope to the gain" in err and "Traceback" not in err

    def test_trace_reads_the_scaling_side_only(self, family_file, tmp_path):
        path = _tampered(family_file, tmp_path, _x10)
        assert run("trace", "--family", path, "--out", tmp_path / "t.csv") == 0


class TestExitCodes:
    def test_pass_is_zero(self, family_file):
        assert run("check", "--family", family_file, "--suite", "ntf") == 0

    def test_fail_is_one(self, tmp_path):
        # internally consistent family whose sigma tends to 1/2 at 0:
        # loads fine, fails the sufficiency/density checks
        spec = example_pwl(F(1, 2), F(1, 2))
        halved = SpectralSpec(spec.sigma.scale_value(F(1, 2)), 2)
        scaling = build_scaling(halved)
        wavelets = build_wavelets(halved)
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
            build_scaling(halved), build_wavelets(halved),
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

    @pytest.mark.parametrize("option, value, name", [
        ("--tol", "nan", "--tol"), ("--tol", -1, "--tol"), ("--tol", 0, "--tol"),
        ("--tol", "inf", "--tol"), ("--ktail", "inf", "k_tail_target"),
        ("--ktail", 0, "k_tail_target"), ("--ktail", -1, "k_tail_target"),
        ("--ktail", "nan", "k_tail_target"), ("--kbudget", 0, "k_budget"),
        ("--kbudget", -5, "k_budget")])
    def test_frame_test_degenerate_option_is_two(self, tmp_path, capsys, option,
                                                 value, name):
        # each used to fail a correct family, sweep to the k budget first,
        # or be accepted
        fam, energy = tmp_path / "fam.json", tmp_path / "e.json"
        assert run("construct", "--example", "shannon", "--out", fam) == 0
        capsys.readouterr()
        assert run("frame-test", "--family", fam, "--signal", "chi:[1,2)",
                   "--jmin", 0, "--jmax", 0, option, value, "--out", energy) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "Traceback" not in err
        assert not energy.exists()

    @pytest.mark.parametrize("command, grid", [
        ("trace", 0), ("trace", -3), ("sample", 0), ("sample", -1)])
    def test_grid_below_one_is_two(self, family_file, tmp_path, capsys,
                                   command, grid):
        # each used to write a header-only CSV and exit 0
        csv = tmp_path / "out.csv"
        capsys.readouterr()
        assert run(command, "--family", family_file, "--grid", grid,
                   "--out", csv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--grid" in err
        assert "Traceback" not in err
        assert not csv.exists()

    def test_trace_grid_auto_and_one_still_run(self, family_file, tmp_path):
        auto, one = tmp_path / "auto.csv", tmp_path / "one.csv"
        assert run("trace", "--family", family_file, "--out", auto) == 0
        assert len(auto.read_text().strip().split("\n")) > 2
        assert run("trace", "--family", family_file, "--grid", 1,
                   "--out", one) == 0
        assert len(one.read_text().strip().split("\n")) == 2

    @pytest.mark.parametrize("jmin, jmax, scale", [
        (-1100, -1090, -1100), (-1030, -1030, -1030)])
    def test_frame_test_scale_beyond_float_range_is_two(self, tmp_path, capsys,
                                                        jmin, jmax, scale):
        # a^j past the float range used to raise an uncaught OverflowError
        fam, energy = tmp_path / "fam.json", tmp_path / "e.json"
        assert run("construct", "--example", "shannon", "--out", fam) == 0
        capsys.readouterr()
        assert run("frame-test", "--family", fam, "--jmin", jmin,
                   "--jmax", jmax, "--out", energy) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"scale j = {scale}" in err
        assert "Traceback" not in err
        assert not energy.exists()

    def test_frame_test_phase_beyond_float_range_is_two(self, tmp_path, capsys):
        # a^-j fits a float here, but the k sweep's phases did not: numpy
        # warned, the ratio read NaN and the report was not valid JSON
        fam, energy = tmp_path / "fam.json", tmp_path / "e.json"
        assert run("construct", "--example", "shannon", "--out", fam) == 0
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("frame-test", "--family", fam, "--jmin=-1020",
                       "--jmax=-1018", "--out", energy) == 2
        assert not caught
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "scale j = -1020" in err
        assert "nan" not in (out + err).lower() and "Traceback" not in err
        assert not energy.exists()
        # scales whose whole sweep fits a float still run
        assert run("frame-test", "--family", fam, "--jmin=-1000",
                   "--jmax=-999", "--out", energy) == 0
        assert json.loads(energy.read_text())["ratio"] == 0.0

    @pytest.mark.parametrize("example, a, j", [
        ("journe", 2, -50), ("pwl:a=1/2,b=1/2", -3, -35), ("pwl:a=3/4,b=5/4", 3, -27)])
    def test_frame_test_deep_single_scale_passes(self, tmp_path, capsys, example, a, j):
        # a Parseval family passes at a scale whose head series has |c| near 1e14
        fam, energy = tmp_path / "fam.json", tmp_path / "e.json"
        assert run("construct", "--example", example, "--a", a, "--out", fam) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("frame-test", "--family", fam, "--signal", "tent:[-1,1)",
                       "--jmin", j, "--jmax", j, "--out", energy) == 0
        assert "nan" not in capsys.readouterr().out.lower()
        report = json.loads(energy.read_text())
        assert report["within_tolerance"] and [s["j"] for s in report["scales"]] == [j]

    def test_non_finite_float_is_not_written(self):
        with pytest.raises(ValueError):
            dumps_canonical({"ratio": float("nan")})

    @pytest.mark.parametrize("example, message", [
        ("pwl:A=3/4,B=5/4", "unknown key 'A'"), ("pwl:A=1", "unknown key 'A'"),
        ("pwl:a=1/2,c=1", "unknown key 'c'"),
        ("pwl:a=1/2,a=3/4", "duplicate key 'a'")])
    def test_unknown_or_repeated_pwl_key_is_two(self, tmp_path, capsys,
                                                example, message):
        # each used to build a family from the default or the last value
        out = tmp_path / "fam.json"
        capsys.readouterr()
        assert run("construct", "--example", example, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_waveletset_classify(self, tmp_path):
        seeds = tmp_path / "seed.json"
        seeds.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-1, 1))])))
        assert run("waveletset", "--E", seeds, "--a", 2, "--classify") == 0
        bad = tmp_path / "bad_seed.json"
        bad.write_text(dumps_canonical(sets_to_jsonable([IntervalSet.of((0, 1))])))
        assert run("waveletset", "--E", bad, "--a", 2, "--classify") == 1

    def test_classify_refuses_out(self, tmp_path, capsys):
        # --classify writes no family, so an --out beside it would be ignored
        seeds = tmp_path / "seed.json"
        seeds.write_text(dumps_canonical(sets_to_jsonable([IntervalSet.of((-1, 1))])))
        out = tmp_path / "fam.json"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            run("waveletset", "--E", seeds, "--classify", "--out", out)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with argument" in err and "Traceback" not in err
        assert not out.exists()

    def test_repeated_suite_runs_once(self, family_file, tmp_path, capsys):
        once, twice = tmp_path / "once.json", tmp_path / "twice.json"
        capsys.readouterr()
        assert run("check", "--family", family_file, "--suite", "density",
                   "--out", once) == 0
        assert run("check", "--family", family_file, "--suite", "density,density",
                   "--out", twice) == 0
        assert once.read_bytes() == twice.read_bytes()
        assert capsys.readouterr().out == "check: pass (3 checks)\n" * 2

    def test_waveletset_closure_with_infinitely_many_pieces_is_one(self, tmp_path,
                                                                   capsys):
        # at a = -3 odd powers of [1, 2) land on the negative side, where
        # [-3, -1) is never reached
        sets = tmp_path / "E.json"
        sets.write_text(dumps_canonical(sets_to_jsonable([IntervalSet.of((1, 2))])))
        capsys.readouterr()
        assert run("waveletset", "--E", sets, "--a", -3) == 1
        assert "annulus cell [-3,-1)" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", [",", "", " , "])
    def test_empty_suite_list_is_two(self, family_file, capsys, suite):
        capsys.readouterr()
        assert run("check", "--family", family_file, "--suite", suite) == 2
        err = capsys.readouterr().err
        assert "no suite given" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("check-waveletset", "--a", 0), ("check-waveletset", "--a", 1),
        ("check-waveletset", "--a", -1), ("waveletset", "--a", 0),
        ("waveletset", "--a", 1), ("waveletset", "--classify", "--a", 0),
        ("waveletset", "--classify", "--a", 1),
        ("waveletset", "--classify", "--a", -1)])
    def test_degenerate_waveletset_input_is_two(self, tmp_path, capsys, argv):
        # on E = [0, 1) each of these used to pass vacuously, report a
        # multiplicity-0 family or divide by zero
        sets = tmp_path / "E.json"
        sets.write_text(dumps_canonical(sets_to_jsonable([IntervalSet.of((0, 1))])))
        capsys.readouterr()
        assert run(argv[0], "--E", sets, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


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
        assert wavelets.profiles[0].is_indicator()

    def test_check_waveletset_cli(self, tmp_path):
        sets = tmp_path / "ws.json"
        sets.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-2, -1), (1, 2))])))
        rep = tmp_path / "rep.json"
        assert run("check-waveletset", "--E", sets, "--a", 2, "--out", rep) == 0
        pert = tmp_path / "pert.json"
        pert.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-2, -1), (1, F(21, 10)))])))
        assert run("check-waveletset", "--E", pert, "--a", 2) == 1

    def test_check_waveletset_long_piece(self, tmp_path):
        # [1, 2^40) meets 2^39 windows; its fold must not walk them
        sets, rep = tmp_path / "long.json", tmp_path / "rep.json"
        sets.write_text('[[["1","1099511627776"]]]\n')
        assert run("check-waveletset", "--E", sets, "--out", rep) == 1
        row = json.loads(rep.read_text())["checks"][1]
        assert row == {"name": "translation_injective[0]", "status": "fail",
                       "witness": {"residue_lo": "-1", "residue_hi": "0",
                                   "multiplicity": str(2 ** 39)}}


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
            # a repeated suite is run and reported once
            expected = [c for n in dict.fromkeys(suites.split(",")) for c in whole[n]]
            assert dumps_canonical(checks) == dumps_canonical(expected)

    def test_shared_checks_run_once(self, family_file, monkeypatch):
        import framesmith.piecewise as pw
        import framesmith.verification as v
        # the split, NTF and density reports, and each family's square sum
        calls = {"check_split": 0, "check_ntf_multiwavelet": 0,
                 "admissibility_check": 0, "_square_sum": 0}
        for name in calls:
            module = pw if name == "_square_sum" else v
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        once = {"check_split": 1, "check_ntf_multiwavelet": 1,
                "admissibility_check": 1, "_square_sum": 2}
        run("check", "--family", family_file)
        assert calls == once
        # the meta NTF check follows from the split and the inward limit,
        # with no NTF run of its own
        calls.update(dict.fromkeys(calls, 0))
        run("check", "--family", family_file, "--suite", "sufficiency")
        assert calls == {**once, "check_ntf_multiwavelet": 0}


class TestCheckReadsNoGrid:
    @pytest.mark.parametrize("example,a", [
        ("shannon", 2), ("journe", -2), ("pwl:a=1/2,b=1/2", 3), ("pwl:a=3/4,b=5/4", -3)])
    def test_check_is_unchanged_with_every_grid_gone(self, tmp_path, monkeypatch,
                                                     example, a):
        import framesmith.trace as tr
        import framesmith.verification as v
        fam, rep = tmp_path / "fam.json", tmp_path / "rep.json"
        assert run("construct", "--example", example, "--a", a, "--out", fam) == 0
        code = run("check", "--family", fam, "--out", rep)
        before = rep.read_bytes()

        def no_grid(*args, **kwargs):
            raise AssertionError("check read a grid")
        for module, name in ((v, "family_grid"), (v, "default_grid"), (cli, "family_grid"),
                             (tr, "default_grid"), (tr, "grid_of_size")):
            monkeypatch.setattr(module, name, no_grid)
        rep.unlink()
        assert run("check", "--family", fam, "--out", rep) == code
        assert rep.read_bytes() == before

    def test_seed_option_is_gone(self, family_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_:
            run("check", "--family", family_file, "--seed", 1, "--out", out)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --seed 1" in err and "Traceback" not in err
        assert not out.exists()


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
            codes.append(run("check", "--family", fam, "--out", rep))
            files.append((fam.read_bytes(), rep.read_bytes()))
        assert files[0] == files[1]
        assert codes[0] == codes[1] == 1


class TestOneParser:
    """`main` parses through one parser per process and dispatches at call
    time; a freshly built parser is the reference for every output."""

    @staticmethod
    def _outcomes(commands, capsys):
        """Exit code, stdout, stderr and output file bytes of each command,
        run in order in this process; each output file is removed after."""
        outcomes = []
        capsys.readouterr()
        for argv, out in commands:
            try:
                code = run(*argv)
            except SystemExit as e:
                code = ("exit", e.code)
            written = None
            if out is not None and out.exists():
                written = out.read_bytes()
                out.unlink()
            outcomes.append((code, *capsys.readouterr(), written))
        return outcomes

    def test_main_builds_the_parser_once(self, family_file, monkeypatch):
        built = []
        real = argparse.ArgumentParser.add_subparsers
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                            lambda *a, **k: built.append(1) or real(*a, **k))
        cli.build_parser.cache_clear()
        for suite in ("ntf", "split", "ntf,density"):
            run("check", "--family", family_file, "--suite", suite)
        assert len(built) == 1
        assert cli.build_parser() is cli.build_parser()

    def test_repeated_calls_leave_no_state(self, family_file, tmp_path, capsys,
                                           monkeypatch):
        sets = tmp_path / "E.json"
        sets.write_text(dumps_canonical(
            sets_to_jsonable([IntervalSet.of((-2, -1), (1, 2))])))
        out = tmp_path / "out"
        commands = [
            (["--version"], None),
            (["check", "--family", family_file, "--suite", "ntf,split",
              "--out", out], out),
            (["check", "--family", family_file, "--suite", "ntf", "--out", out], out),
            (["trace", "--family", family_file, "--grid", 8, "--out", out], out),
            (["trace", "--family", family_file, "--out", out], out),
            (["waveletset", "--E", sets, "--classify", "--out", out], out),
            (["waveletset", "--E", sets, "--out", out], out),
        ]
        shared = self._outcomes(commands, capsys)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [self._outcomes([c], capsys)[0] for c in commands]
        assert shared == fresh
        # each later call differs from the one before it, so a leaked
        # suite list, grid or --classify would show
        assert shared[1] != shared[2] and shared[3] != shared[4]
        assert shared[5][0] == ("exit", 2) and shared[6][0] == 0

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]],
                             ids=["help", "check_help"])
    def test_help_follows_the_terminal_width(self, capsys, monkeypatch, argv):
        def printed(parser):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            return capsys.readouterr().out

        cli.build_parser()   # built before COLUMNS is set
        texts = []
        for columns in ("60", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.append(printed(cli.build_parser()))
            assert texts[-1] == printed(cli.build_parser.__wrapped__())
        assert texts[0] != texts[1]

    def test_rebound_handler_runs(self, family_file, monkeypatch):
        assert run("check", "--family", family_file, "--suite", "ntf") == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.suite) or 7)
        assert run("check", "--family", family_file, "--suite", "split") == 7
        assert seen == ["split"]


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
        assert run("check", "--family", path,
                   "--out", root / "report.json") in (0, 1, 2)

    @_FUZZ
    @given(data=st.data())
    def test_mutated_sigma_file(self, fuzz_seeds, data):
        root, _, sigma = fuzz_seeds
        path = root / "sigma.json"
        path.write_bytes(data.draw(_mutated(sigma)))
        assert run("construct", "--sigma", path, "--out", root / "fam.json") in (0, 1, 2)
