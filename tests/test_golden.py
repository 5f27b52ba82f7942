"""Golden output bytes of the canonical CLI outputs.

Pins the sha256 of the construct family JSON, the all-suites check report
and the auto-grid trace CSV of the built-in examples at a = 2, 3, -2, 4 and
-3, of seeded random-spec families at a = 2, 3 and -2 under both partition
rules (many profiles, and greedy layers of several pieces), plus the
wavelet-set family and tiling report of the Journe set.  These outputs are exact with no exception: every number in them is a rational or
the float of a rational, so the digests do not depend on the numpy build.
On each of these families the norm sum's all-xi tail bound covers the worst
tail of the per-point depth rule on the family grid, the figure that the
check report once held.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from framesmith.cli import main
from framesmith.construction import (JOURNE_WAVELET_SET, SpectralSpec, build_family,
                                     example_by_name, random_admissible_spec)
from framesmith.serialize import dumps_canonical, pwl_to_jsonable, sets_to_jsonable
from framesmith.verification import check_ntf_multiwavelet, family_grid

from oracles import tail_at

EXAMPLES = ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")
# sigma of the Journe example is not dilation-monotone at a = 3 or -3
REFUSED = [("journe", 3), ("journe", -3)]
CASES = [(ex, a) for ex in EXAMPLES for a in (2, 3, -2, 4, -3)
         if (ex, a) not in REFUSED]
# (seed, a) of `random_admissible_spec` families whose greedy layers hold
# several pieces each; every one is built under both partition rules
RANDOM = [(43, 2), (43, 3), (30, -2)]
RANDOM_CASES = [(seed, a, rule) for seed, a in RANDOM for rule in ("greedy", "windows")]

def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _family_outputs(tmp_path, *construct_args):
    fam, rep, csv = (tmp_path / n for n in ("fam.json", "check.json", "trace.csv"))
    assert main(["construct", *construct_args, "--out", str(fam)]) == 0
    code = main(["check", "--family", str(fam), "--out", str(rep)])
    assert main(["trace", "--family", str(fam), "--grid", "auto",
                 "--out", str(csv)]) == 0
    return (_digest(fam), code, _digest(rep), _digest(csv))


# (family JSON, check exit code, check report, trace CSV)
GOLDEN = {
    'shannon@2': (
        'd95131e076e01bba437661c13ab385d26d426ba4dfd97514e1ae3a412ebee98d',
        0,
        '452d5d6d5ecc8f227ace26647268165bffd760789163c4d815aa8c5699e73998',
        '72e9e1002ed7bfd414e207c8834156c2ffdd34a86cd76e868da9ab786a873168',
    ),
    'shannon@3': (
        '9f521dfa1ff887426708726eb0b05b988b11de4908721d354762a80f0a8c107a',
        0,
        '67dfda25f2f5309f197201232b017ab340dd80541e56cc8c2129ce93c8f6aa67',
        '22f486b9675cfe6f0f42d71ca840499af6889b5e7cb1986a0bca7beb894fa2ac',
    ),
    'shannon@-2': (
        '9341af3c4563e45d693d2fc65a5789d63aaae56d920ef47bfabd3628032663e9',
        0,
        '452d5d6d5ecc8f227ace26647268165bffd760789163c4d815aa8c5699e73998',
        '72e9e1002ed7bfd414e207c8834156c2ffdd34a86cd76e868da9ab786a873168',
    ),
    'journe@2': (
        'ba14adddd77933a9b95130746604157181100565e23fd6776768837be684880f',
        0,
        '01bb516acfad2676100e807a5355e31f21c8736de6cf97c3932a5234830e7b82',
        '68d71708a3f11ff00113b3d36223ed6f3b01faf47e309140317e30e3d2b6194e',
    ),
    'journe@-2': (
        'a50f1e4b6c7224e3f881eacbbff79cef0423dd3269578b41b1ead95523218b4c',
        0,
        '01bb516acfad2676100e807a5355e31f21c8736de6cf97c3932a5234830e7b82',
        '68d71708a3f11ff00113b3d36223ed6f3b01faf47e309140317e30e3d2b6194e',
    ),
    'pwl:a=1/2,b=1/2@2': (
        'f2d950a0072c56e796beab44d10e1c3d3f5a77d9ab590ce23e93db24ff65af9f',
        1,
        'd6ee09b520890ff0d82f680b623c6ffd6c8e9d1de9f431383b843e3540c04167',
        '427c2e22d7bb391cc0bad34210ab58220c0c3f5de1618f145190726002763c45',
    ),
    'pwl:a=1/2,b=1/2@3': (
        '380b4657e9c468fb000d615de5c531937541d2be893c815136e44b5b81f49f06',
        1,
        '232b2631af4cad46289218c2d1f46bdee78f8fbced535e436af2760e98a5e346',
        '9d6247138366f34c8013bb27b10a3977292a4e52b3991869333a6c674152524a',
    ),
    'pwl:a=1/2,b=1/2@-2': (
        'e7bb75796f5a461d965f81c55059ed5f22d028ee76e88d3764b281d5e49247b5',
        1,
        'd6ee09b520890ff0d82f680b623c6ffd6c8e9d1de9f431383b843e3540c04167',
        '427c2e22d7bb391cc0bad34210ab58220c0c3f5de1618f145190726002763c45',
    ),
    'pwl:a=3/4,b=5/4@2': (
        'b013ce9ddde6e5500bace3b164614d79b72517317d5ee408b233f9287fa0453f',
        1,
        'cb830f4a4146fcd76d47ecef256bc7cdda356b43217df2c8481a5c818028aa05',
        '226479a08ee1fc56935f8599ea5cda755c0619176ae5ec634ba3df0397e052fa',
    ),
    'pwl:a=3/4,b=5/4@3': (
        'd3f2f1a54d1c1cc2cd079d297aa181415b646c6b753783e7fd9e2a34ebea75ed',
        1,
        'daae7ff3817294f3ffa0b3d65989514eedff6db41f26ff1137d7bd5446ca1988',
        '95400f875449ce2413ceea6d546757e1d4d43a3f1c8d45329f56dbd74f418628',
    ),
    'pwl:a=3/4,b=5/4@-2': (
        '6f77b5595fd9cd5e25762fb24d86382139148108b2fc39fe19ac790b2b33a838',
        1,
        '42c2ab0761a0e9d5941413496013ee75b7c1580ade4bebc88b21b3a82527a85a',
        '3c94b532fd1b62b80677a8e68d758e8c249187619195e3d2ad26ec2758f62978',
    ),
    'shannon@4': (
        '858206647e92f2a9828844e7becb82ae29ce2e1d8a4cd630f7b96b824134ac48',
        0,
        '2b8ade7d42f48095cc3149cfabb0a22797e59b1b8abcd5e2f40b4e4a57614c24',
        'a5590151be760028ba86bba8613a938271a9e011d7cd0770a187be6222d49b82',
    ),
    'shannon@-3': (
        '5b6ac7eabcd3404faf7369798d0ef5e1fb9ca75e8bd3736e8c959ac7dc21653d',
        0,
        '67dfda25f2f5309f197201232b017ab340dd80541e56cc8c2129ce93c8f6aa67',
        '22f486b9675cfe6f0f42d71ca840499af6889b5e7cb1986a0bca7beb894fa2ac',
    ),
    'journe@4': (
        'e9b2327369e81852c6b4e3c01d6adb46eb1e72e32e7c15b9827c150cdbd2ed4a',
        0,
        '0a342083ae61525ad151a323a645025166375f73f463ab2a4f6836c33b0534af',
        'c37c1623f1b5020df5111a28abe8e4fb19510d80cdee98d285e97fed083c2417',
    ),
    'pwl:a=1/2,b=1/2@4': (
        '5e0817fb064c04412309eb9e00aaf2f0b12c519fccf501ceb544b68b5fc1206a',
        1,
        '35c686fc5f0191ac9d2374820540311a5d2c4a22f9770d1124c9cf1a8519c056',
        '8a9e08559367873830818e618f12726efb71cced48c49e2bccbec13f4d60162b',
    ),
    'pwl:a=1/2,b=1/2@-3': (
        '70913fc2997fa0bbc13b582f0dd6210df6256c78dc0fb9d8dd7a46a1a92cbf9f',
        1,
        '232b2631af4cad46289218c2d1f46bdee78f8fbced535e436af2760e98a5e346',
        '9d6247138366f34c8013bb27b10a3977292a4e52b3991869333a6c674152524a',
    ),
    'pwl:a=3/4,b=5/4@4': (
        '15bee835df74c061bd8d28a2cfdb402ad56301f7befac95bb1fc7cde76f207ab',
        1,
        '25179a21df41dc2706f007ee8ec7587475d9b13f80b25b8f10dcd3dd9fabbfd2',
        '1e3e7a98bbd0f2805e378a19d49a7e7edbbbae4833fb3e159733c6352fbb5153',
    ),
    'pwl:a=3/4,b=5/4@-3': (
        '7cf3ac340898352d6766497c4e2d55af799fa670eeb1f74cad628f4c66c48d24',
        1,
        '5c319e0b199307044db731c48c1dc5cb5953793436cd98f574d329ddfd3f6c1a',
        '7a2dd6b591f1036080c65511e99e1a6e89ad241c53190e4d57ee2197a152fac9',
    ),
    'pwl:a=2,b=2@2 windows': (
        '454adfbd71c6b17597f7168ebf8869c9e87952fabc7152c946f464a68616b94a',
        1,
        'ced9652a7643d7e9f7516fe5f86a67d1ad9f58067d6a7f4e0708c7236559767b',
        '974ba1b3f8c47513b3d1d4cfbee316ba47bb3197d81064c605f0ca32e51fdf53',
    ),
    'random43@2 greedy': (
        '2eb0fed797bc871eb93c0425c9e860a5b3fad9d05f56125070e896a94b6e2c10',
        1,
        '5797e1b0c28cf25b1639dd6642f5ddfb34fa6f66ee7b306aba27ef945c2eff99',
        'ff4d477e9c91799b6a83f803d12dfb1b1785c7fa85c6ee144ea040392bde5228',
    ),
    'random43@2 windows': (
        '329c64ef6e5d42edf3937423abfee7d514003c2a9a7cee30eb389a9e190159a6',
        1,
        'e606c8cf75b6ae1840a10b8be2cc454b74efff3edf732faf92b7e521e0df6320',
        'd1e697f06de292dcac8eaf6f5bd70cfba60afd8873743fe43463a268c64db50c',
    ),
    'random43@3 greedy': (
        '667cb319bc5a8a4a570651990bd23300522eb429029a33b3a03c19aca2809972',
        1,
        'ed12c6fd2ed3b829a714ccb02ae81483c142b2692560beb6f0e63507f42bf54c',
        '41edb0d3c525696d11a6a37482480dec52fee2193c399b5ea69a2bdbccb26c79',
    ),
    'random43@3 windows': (
        '8bd198e3428941915bfa9bacb969dda5aa0b5bc4513df32c29d8768afb5d1615',
        1,
        'd8e3d550318cfdcbcdc71623a8b08206bc74db33d9c4da975dd032e6f8976d78',
        'e194b4fa218dcb883fd592aa68a933b9020348c33e6e41506b95a2d8527c46dc',
    ),
    'random30@-2 greedy': (
        '55012a3349fbdf7d58a14c8f6c5bda70ac621116ee533a41cc90dd69a8e48f06',
        1,
        'ceb6944f790495d8cf519f672eb8294e5d0104abc89d0f56722df9af8210ec21',
        '6ceb50b70cd37bff0b7cedf7720ec2a1067b559c84a8b9762cf6abab2ee7c42c',
    ),
    'random30@-2 windows': (
        '265d78f838e29b34fa6646584cc68039aa529c7f4fee4212dd37adf4a2757c3b',
        1,
        'd17ad2498c968adf6b3913703c8337c0394606102c9fef5c2b438e84a452ac59',
        'df79eabb0670e604c1d85fa3c747b87037cad16e40297b1e9fbeb68c1d8d512b',
    ),
    'journe waveletset': (
        '8ee11175c5cd78264c4d4f2be44861c9662ee267e927dbbfed72cba1c2d7396d',
        '061471c0aa7a564c83f15f201de24801e85923f2d1e85918d8017ebbd6ff3314',
    ),
}


@pytest.mark.parametrize("example,a", CASES, ids=[f"{e}@{a}" for e, a in CASES])
def test_builtin_outputs(tmp_path, example, a):
    got = _family_outputs(tmp_path, "--example", example, "--a", str(a))
    assert got == GOLDEN[f"{example}@{a}"]


@pytest.mark.parametrize("example,a", REFUSED, ids=[f"{e}@{a}" for e, a in REFUSED])
def test_refused_dilations(tmp_path, example, a):
    assert main(["construct", "--example", example, "--a", str(a),
                 "--out", str(tmp_path / "fam.json")]) == 2


def test_windows_partition_outputs(tmp_path):
    got = _family_outputs(tmp_path, "--example", "pwl:a=2,b=2",
                          "--partition", "windows")
    assert got == GOLDEN["pwl:a=2,b=2@2 windows"]


def test_journe_waveletset_outputs(tmp_path):
    sets = tmp_path / "journe.json"
    sets.write_text(dumps_canonical(sets_to_jsonable([JOURNE_WAVELET_SET])))
    fam, rep = tmp_path / "ws_fam.json", tmp_path / "tiling.json"
    assert main(["waveletset", "--E", str(sets), "--a", "2", "--out", str(fam)]) == 0
    assert main(["check-waveletset", "--E", str(sets), "--a", "2",
                 "--out", str(rep)]) == 0
    assert (_digest(fam), _digest(rep)) == GOLDEN["journe waveletset"]


@pytest.mark.parametrize("seed,a,rule", RANDOM_CASES,
                         ids=[f"random{s}@{a} {r}" for s, a, r in RANDOM_CASES])
def test_random_spec_outputs(tmp_path, seed, a, rule):
    spec = random_admissible_spec(random.Random(seed), a)
    sigma = tmp_path / "sigma.json"
    sigma.write_text(dumps_canonical({"sigma": pwl_to_jsonable(spec.sigma), "dilation": a}))
    got = _family_outputs(tmp_path, "--sigma", str(sigma), "--partition", rule)
    assert got == GOLDEN[f"random{seed}@{a} {rule}"]


def _golden_family(key):
    """The family of a golden check report, built in memory."""
    if key.startswith("random"):
        seed_a, rule = key[len("random"):].split()
        seed, a = map(int, seed_a.split("@"))
        return build_family(random_admissible_spec(random.Random(seed), a), partition=rule)
    if key.endswith(" windows"):
        return build_family(example_by_name(key.split("@")[0]), partition="windows")
    example, a = key.rsplit("@", 1)
    return build_family(SpectralSpec(example_by_name(example).sigma, int(a)))


# the worst tail over the family grids of the golden cases, on
# pwl:a=1/2,b=1/2 at a = 2 and -2: the figure the reports held before the
# bound was taken over all xi
GRID_WORST = Fraction(169, 169114337280)


@pytest.mark.parametrize("key", [k for k in GOLDEN if k != "journe waveletset"])
def test_tail_bound_covers_the_grid_figure(key):
    scaling, wavelets = _golden_family(key)
    bound = next(c for c in check_ntf_multiwavelet(wavelets).checks
                 if c.name == "norm_sum").tail_bound
    grid = family_grid(scaling.generator_set(), wavelets.generator_set())
    figure = max(tail_at(wavelets, xi) for xi in grid if xi)
    assert figure <= bound
    assert figure <= GRID_WORST
    if key in ("pwl:a=1/2,b=1/2@2", "pwl:a=1/2,b=1/2@-2"):
        assert figure == GRID_WORST
