"""Golden output bytes of the canonical CLI outputs.

Pins the sha256 of the construct family JSON, the all-suites check report
and the auto-grid trace CSV of the built-in examples at a = 2, 3, -2, 4 and
-3, plus the wavelet-set family and tiling report of the Journe set.  These
outputs are exact with no exception: every number in them is a rational or
the float of a rational, so the digests do not depend on the numpy build.
"""

import hashlib

import pytest

from framesmith.cli import main
from framesmith.construction import JOURNE_WAVELET_SET
from framesmith.serialize import dumps_canonical, sets_to_jsonable

EXAMPLES = ("shannon", "journe", "pwl:a=1/2,b=1/2", "pwl:a=3/4,b=5/4")
# sigma of the Journe example is not dilation-monotone at a = 3 or -3
REFUSED = [("journe", 3), ("journe", -3)]
CASES = [(ex, a) for ex in EXAMPLES for a in (2, 3, -2, 4, -3)
         if (ex, a) not in REFUSED]

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
        '7868e64fe005ee073df0c91d051424b403eea62b5fbd9c44ff3197b3078ac576',
        '72e9e1002ed7bfd414e207c8834156c2ffdd34a86cd76e868da9ab786a873168',
    ),
    'shannon@3': (
        '9f521dfa1ff887426708726eb0b05b988b11de4908721d354762a80f0a8c107a',
        0,
        'c62f1c7c320f85850963719eed67cc1dc1acfcf94537c57e61d75637f02cbcc3',
        '22f486b9675cfe6f0f42d71ca840499af6889b5e7cb1986a0bca7beb894fa2ac',
    ),
    'shannon@-2': (
        '9341af3c4563e45d693d2fc65a5789d63aaae56d920ef47bfabd3628032663e9',
        0,
        '7868e64fe005ee073df0c91d051424b403eea62b5fbd9c44ff3197b3078ac576',
        '72e9e1002ed7bfd414e207c8834156c2ffdd34a86cd76e868da9ab786a873168',
    ),
    'journe@2': (
        'ba14adddd77933a9b95130746604157181100565e23fd6776768837be684880f',
        0,
        'bcb97485d72210a45cd22fc950dac5d6a3090bf776693480663c482d7af15732',
        '68d71708a3f11ff00113b3d36223ed6f3b01faf47e309140317e30e3d2b6194e',
    ),
    'journe@-2': (
        'a50f1e4b6c7224e3f881eacbbff79cef0423dd3269578b41b1ead95523218b4c',
        0,
        'bcb97485d72210a45cd22fc950dac5d6a3090bf776693480663c482d7af15732',
        '68d71708a3f11ff00113b3d36223ed6f3b01faf47e309140317e30e3d2b6194e',
    ),
    'pwl:a=1/2,b=1/2@2': (
        'f2d950a0072c56e796beab44d10e1c3d3f5a77d9ab590ce23e93db24ff65af9f',
        1,
        'ecd1143ed046324a9c397bbbf151181be625a2243c81f03560c8f2fcb77ec6c9',
        '427c2e22d7bb391cc0bad34210ab58220c0c3f5de1618f145190726002763c45',
    ),
    'pwl:a=1/2,b=1/2@3': (
        '380b4657e9c468fb000d615de5c531937541d2be893c815136e44b5b81f49f06',
        1,
        'e8e412c289416118112cda75bcf51edb24f10f0779f4601732331b47e1973ead',
        '9d6247138366f34c8013bb27b10a3977292a4e52b3991869333a6c674152524a',
    ),
    'pwl:a=1/2,b=1/2@-2': (
        'e7bb75796f5a461d965f81c55059ed5f22d028ee76e88d3764b281d5e49247b5',
        1,
        'ecd1143ed046324a9c397bbbf151181be625a2243c81f03560c8f2fcb77ec6c9',
        '427c2e22d7bb391cc0bad34210ab58220c0c3f5de1618f145190726002763c45',
    ),
    'pwl:a=3/4,b=5/4@2': (
        'b013ce9ddde6e5500bace3b164614d79b72517317d5ee408b233f9287fa0453f',
        1,
        'dd58bf4d5c10e9b9760751cf1a7d05ad6ae3fdc526a70139f76f481f59c1b33f',
        '226479a08ee1fc56935f8599ea5cda755c0619176ae5ec634ba3df0397e052fa',
    ),
    'pwl:a=3/4,b=5/4@3': (
        'd3f2f1a54d1c1cc2cd079d297aa181415b646c6b753783e7fd9e2a34ebea75ed',
        1,
        '3100fa6c0834801a5223c3a146481d38d0a9cebab4dbed821f162f446be360d1',
        '95400f875449ce2413ceea6d546757e1d4d43a3f1c8d45329f56dbd74f418628',
    ),
    'pwl:a=3/4,b=5/4@-2': (
        '6f77b5595fd9cd5e25762fb24d86382139148108b2fc39fe19ac790b2b33a838',
        1,
        '089fd87d7bb0f0f01770c8644deebc2878d2f99b27f103d338bdb79ec6c6269c',
        '3c94b532fd1b62b80677a8e68d758e8c249187619195e3d2ad26ec2758f62978',
    ),
    'shannon@4': (
        '858206647e92f2a9828844e7becb82ae29ce2e1d8a4cd630f7b96b824134ac48',
        0,
        '32295fcb9abd41f5c441f7878e88c03e12c0927f70bd6d8b711e6a6469901e17',
        'a5590151be760028ba86bba8613a938271a9e011d7cd0770a187be6222d49b82',
    ),
    'shannon@-3': (
        '5b6ac7eabcd3404faf7369798d0ef5e1fb9ca75e8bd3736e8c959ac7dc21653d',
        0,
        'c62f1c7c320f85850963719eed67cc1dc1acfcf94537c57e61d75637f02cbcc3',
        '22f486b9675cfe6f0f42d71ca840499af6889b5e7cb1986a0bca7beb894fa2ac',
    ),
    'journe@4': (
        'e9b2327369e81852c6b4e3c01d6adb46eb1e72e32e7c15b9827c150cdbd2ed4a',
        0,
        '9890250b79f73429d6b95955edb48a312eaef3f2924bf1a96908632e966f1904',
        'c37c1623f1b5020df5111a28abe8e4fb19510d80cdee98d285e97fed083c2417',
    ),
    'pwl:a=1/2,b=1/2@4': (
        '5e0817fb064c04412309eb9e00aaf2f0b12c519fccf501ceb544b68b5fc1206a',
        1,
        '7e93e99ca0dc2669632ae8c615377772abdbbac0839fe593d77ca6fa5324ba35',
        '8a9e08559367873830818e618f12726efb71cced48c49e2bccbec13f4d60162b',
    ),
    'pwl:a=1/2,b=1/2@-3': (
        '70913fc2997fa0bbc13b582f0dd6210df6256c78dc0fb9d8dd7a46a1a92cbf9f',
        1,
        'e8e412c289416118112cda75bcf51edb24f10f0779f4601732331b47e1973ead',
        '9d6247138366f34c8013bb27b10a3977292a4e52b3991869333a6c674152524a',
    ),
    'pwl:a=3/4,b=5/4@4': (
        '15bee835df74c061bd8d28a2cfdb402ad56301f7befac95bb1fc7cde76f207ab',
        1,
        '6c5ffac3187473711d198308268b66f90aea82705a94d4879bd1e3481f3a311c',
        '1e3e7a98bbd0f2805e378a19d49a7e7edbbbae4833fb3e159733c6352fbb5153',
    ),
    'pwl:a=3/4,b=5/4@-3': (
        '7cf3ac340898352d6766497c4e2d55af799fa670eeb1f74cad628f4c66c48d24',
        1,
        '52f323d8f0da3756643ba2485860844acf5361db19b2a988856496172749d181',
        '7a2dd6b591f1036080c65511e99e1a6e89ad241c53190e4d57ee2197a152fac9',
    ),
    'pwl:a=2,b=2@2 windows': (
        '454adfbd71c6b17597f7168ebf8869c9e87952fabc7152c946f464a68616b94a',
        1,
        '511cba4318a0b934ae23cd4d20b6445015a7b20062ad41d799d6651ef8c43a9d',
        '974ba1b3f8c47513b3d1d4cfbee316ba47bb3197d81064c605f0ca32e51fdf53',
    ),
    'journe waveletset': (
        '8ee11175c5cd78264c4d4f2be44861c9662ee267e927dbbfed72cba1c2d7396d',
        '6081d0019233b6010ad2b37f7dd038d9fe0b710fe3a355a2fdbd3cfdf880a740',
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
