"""Golden output bytes of the canonical CLI outputs.

Pins the sha256 of the construct family JSON, the all-suites check report
and the auto-grid trace CSV of the built-in examples at a = 2, 3, -2, 4 and
-3, of seeded random-spec families at a = 2, 3 and -2 under both partition
rules (many profiles, and greedy layers of several pieces), plus the
wavelet-set family and tiling report of the Journe set.  These outputs are exact with no exception: every number in them is a rational or
the float of a rational, so the digests do not depend on the numpy build.
"""

import hashlib
import random

import pytest

from framesmith.cli import main
from framesmith.construction import JOURNE_WAVELET_SET, random_admissible_spec
from framesmith.serialize import dumps_canonical, pwl_to_jsonable, sets_to_jsonable

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
        '91f9167f277a09b4703bbc2dcaa31a37a687bde16a004efa3a2746efd7955d36',
        '72e9e1002ed7bfd414e207c8834156c2ffdd34a86cd76e868da9ab786a873168',
    ),
    'shannon@3': (
        '9f521dfa1ff887426708726eb0b05b988b11de4908721d354762a80f0a8c107a',
        0,
        '42e2fef840acb5c8c22b4618adf0fe90d82bf62da87fed3b74b5ad1579ec3b54',
        '22f486b9675cfe6f0f42d71ca840499af6889b5e7cb1986a0bca7beb894fa2ac',
    ),
    'shannon@-2': (
        '9341af3c4563e45d693d2fc65a5789d63aaae56d920ef47bfabd3628032663e9',
        0,
        '91f9167f277a09b4703bbc2dcaa31a37a687bde16a004efa3a2746efd7955d36',
        '72e9e1002ed7bfd414e207c8834156c2ffdd34a86cd76e868da9ab786a873168',
    ),
    'journe@2': (
        'ba14adddd77933a9b95130746604157181100565e23fd6776768837be684880f',
        0,
        '6aaf5e014bcf937239114e22b56554e5b8f839bdc42c14521ebb124d67d420bf',
        '68d71708a3f11ff00113b3d36223ed6f3b01faf47e309140317e30e3d2b6194e',
    ),
    'journe@-2': (
        'a50f1e4b6c7224e3f881eacbbff79cef0423dd3269578b41b1ead95523218b4c',
        0,
        '6aaf5e014bcf937239114e22b56554e5b8f839bdc42c14521ebb124d67d420bf',
        '68d71708a3f11ff00113b3d36223ed6f3b01faf47e309140317e30e3d2b6194e',
    ),
    'pwl:a=1/2,b=1/2@2': (
        'f2d950a0072c56e796beab44d10e1c3d3f5a77d9ab590ce23e93db24ff65af9f',
        1,
        'fa683fb5217235b7dcfa97c1e5f9e6d77ea267745f7588f50cdaf01996211170',
        '427c2e22d7bb391cc0bad34210ab58220c0c3f5de1618f145190726002763c45',
    ),
    'pwl:a=1/2,b=1/2@3': (
        '380b4657e9c468fb000d615de5c531937541d2be893c815136e44b5b81f49f06',
        1,
        '3c8b0aa84e1fd7d1cf98c03761f981f179537f71f231f21788b6f7a2118f0df0',
        '9d6247138366f34c8013bb27b10a3977292a4e52b3991869333a6c674152524a',
    ),
    'pwl:a=1/2,b=1/2@-2': (
        'e7bb75796f5a461d965f81c55059ed5f22d028ee76e88d3764b281d5e49247b5',
        1,
        'fa683fb5217235b7dcfa97c1e5f9e6d77ea267745f7588f50cdaf01996211170',
        '427c2e22d7bb391cc0bad34210ab58220c0c3f5de1618f145190726002763c45',
    ),
    'pwl:a=3/4,b=5/4@2': (
        'b013ce9ddde6e5500bace3b164614d79b72517317d5ee408b233f9287fa0453f',
        1,
        '030b1debaeec88fdde8d72fac74f4d54fb6e30d1582aa1ebcf7a8764771b2236',
        '226479a08ee1fc56935f8599ea5cda755c0619176ae5ec634ba3df0397e052fa',
    ),
    'pwl:a=3/4,b=5/4@3': (
        'd3f2f1a54d1c1cc2cd079d297aa181415b646c6b753783e7fd9e2a34ebea75ed',
        1,
        '6efe5725cc89c618970f1e09d6aca80c99ad8d0468203237b343e221e6cbfcb2',
        '95400f875449ce2413ceea6d546757e1d4d43a3f1c8d45329f56dbd74f418628',
    ),
    'pwl:a=3/4,b=5/4@-2': (
        '6f77b5595fd9cd5e25762fb24d86382139148108b2fc39fe19ac790b2b33a838',
        1,
        '8d243a278988e0b5c54c957038d1b85852f3174bc70eb93069598cbb8d85135a',
        '3c94b532fd1b62b80677a8e68d758e8c249187619195e3d2ad26ec2758f62978',
    ),
    'shannon@4': (
        '858206647e92f2a9828844e7becb82ae29ce2e1d8a4cd630f7b96b824134ac48',
        0,
        '4ce2aedb29e302b85687af16f5b8a71c1715cd7f5d4a7a189abaccd30c7329a5',
        'a5590151be760028ba86bba8613a938271a9e011d7cd0770a187be6222d49b82',
    ),
    'shannon@-3': (
        '5b6ac7eabcd3404faf7369798d0ef5e1fb9ca75e8bd3736e8c959ac7dc21653d',
        0,
        '42e2fef840acb5c8c22b4618adf0fe90d82bf62da87fed3b74b5ad1579ec3b54',
        '22f486b9675cfe6f0f42d71ca840499af6889b5e7cb1986a0bca7beb894fa2ac',
    ),
    'journe@4': (
        'e9b2327369e81852c6b4e3c01d6adb46eb1e72e32e7c15b9827c150cdbd2ed4a',
        0,
        '85b32d4093db4f89b859533db75da096f9db95d8dd8f42b3c41d0e218cf83cee',
        'c37c1623f1b5020df5111a28abe8e4fb19510d80cdee98d285e97fed083c2417',
    ),
    'pwl:a=1/2,b=1/2@4': (
        '5e0817fb064c04412309eb9e00aaf2f0b12c519fccf501ceb544b68b5fc1206a',
        1,
        'b547a60e7707f331610f07aacfe9a100b7896bef3dbd38246c773f492acd8ec1',
        '8a9e08559367873830818e618f12726efb71cced48c49e2bccbec13f4d60162b',
    ),
    'pwl:a=1/2,b=1/2@-3': (
        '70913fc2997fa0bbc13b582f0dd6210df6256c78dc0fb9d8dd7a46a1a92cbf9f',
        1,
        '3c8b0aa84e1fd7d1cf98c03761f981f179537f71f231f21788b6f7a2118f0df0',
        '9d6247138366f34c8013bb27b10a3977292a4e52b3991869333a6c674152524a',
    ),
    'pwl:a=3/4,b=5/4@4': (
        '15bee835df74c061bd8d28a2cfdb402ad56301f7befac95bb1fc7cde76f207ab',
        1,
        '382ee0b5bb278796e1de9dfef84c5f22078e2ff53a081ffea60b760b5e5b500e',
        '1e3e7a98bbd0f2805e378a19d49a7e7edbbbae4833fb3e159733c6352fbb5153',
    ),
    'pwl:a=3/4,b=5/4@-3': (
        '7cf3ac340898352d6766497c4e2d55af799fa670eeb1f74cad628f4c66c48d24',
        1,
        '21b1847a03020d1e7f736c209208ffc2ad4d188601a8065ff0223187c2a4cb8c',
        '7a2dd6b591f1036080c65511e99e1a6e89ad241c53190e4d57ee2197a152fac9',
    ),
    'pwl:a=2,b=2@2 windows': (
        '454adfbd71c6b17597f7168ebf8869c9e87952fabc7152c946f464a68616b94a',
        1,
        '778b5dfb7eec6ec63cf6adf6d27fa2337644e461af1a56c726af70f049f2a38c',
        '974ba1b3f8c47513b3d1d4cfbee316ba47bb3197d81064c605f0ca32e51fdf53',
    ),
    'random43@2 greedy': (
        '2eb0fed797bc871eb93c0425c9e860a5b3fad9d05f56125070e896a94b6e2c10',
        1,
        '87dbf80c9e4417093a3621b8de29fd979fd8f010367912fc118a220b520cdeaf',
        'ff4d477e9c91799b6a83f803d12dfb1b1785c7fa85c6ee144ea040392bde5228',
    ),
    'random43@2 windows': (
        '329c64ef6e5d42edf3937423abfee7d514003c2a9a7cee30eb389a9e190159a6',
        1,
        'd2385f112d6007b458101858dd8bc459422276822d925b6645e7f05b91fa60e4',
        'd1e697f06de292dcac8eaf6f5bd70cfba60afd8873743fe43463a268c64db50c',
    ),
    'random43@3 greedy': (
        '667cb319bc5a8a4a570651990bd23300522eb429029a33b3a03c19aca2809972',
        1,
        'd2b537a8e54c6b259d14b04899a2cd38fa7a0a84e2bd7fc5718a94784154f87a',
        '41edb0d3c525696d11a6a37482480dec52fee2193c399b5ea69a2bdbccb26c79',
    ),
    'random43@3 windows': (
        '8bd198e3428941915bfa9bacb969dda5aa0b5bc4513df32c29d8768afb5d1615',
        1,
        'a15319fa4ac68a94fdd6d162e5459714a05d8ff21e4285d98c7a28e2439f59ca',
        'e194b4fa218dcb883fd592aa68a933b9020348c33e6e41506b95a2d8527c46dc',
    ),
    'random30@-2 greedy': (
        '55012a3349fbdf7d58a14c8f6c5bda70ac621116ee533a41cc90dd69a8e48f06',
        1,
        '384690748147ff2cccf8b8cea25c7514ce5a4120f100f2cd2179d7984d9c9708',
        '6ceb50b70cd37bff0b7cedf7720ec2a1067b559c84a8b9762cf6abab2ee7c42c',
    ),
    'random30@-2 windows': (
        '265d78f838e29b34fa6646584cc68039aa529c7f4fee4212dd37adf4a2757c3b',
        1,
        '887dd6e2560d77c5013045a8b4c51bc7b31f22d9f8b98c56810093fb36b40300',
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
