"""JSON codecs for the exact types and the self-validating family file.

Rationals are serialized as "num/den" strings (pi units) so no float ever
contaminates an exact value; canonical dumps are sorted and newline-terminated
so identical objects produce byte-identical files.  The ratio strings of a
function or an interval set are read as integer pairs onto its integer grid
(`PiecewiseLinear.parse` and `IntervalSet.parse` canonicalize any order), and
a profile's square is restricted by the file's `domain` only where that
differs from its support.  Every JSON input is
refused when one object names a key twice.  A phi is written under the key
k of its layer, the window [2k - 1, 2k + 1), and loaded onto that window.
Loading a family checks its structural premises (`LayeredFamily.validate`:
each profile inside its layer, every layer injective mod 2, squares >= 0)
and refuses a file that breaks one, naming its location.  The paper's
equations between the squares and sigma are left to `check`, which judges
them with an exact witness.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import List, Tuple

from . import __version__
from .construction import LayeredFamily
from .folding import _windows, window
from .intervals import IntervalSet
from .piecewise import PiecewiseLinear, SqrtProfile
from .rationals import format_ratio, ratio_parts

FORMAT_VERSION = "framesmith/1"


class ParseError(ValueError):
    """Malformed JSON payload; message carries the offending location."""


def _ratio_in(x, where: str) -> Tuple[int, int]:
    """(numerator, denominator > 0) of a JSON integer or ratio string."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    if isinstance(x, str):
        try:
            return ratio_parts(x)
        except ValueError as e:
            raise ParseError(f"{where}: {e}") from None
    raise ParseError(f"{where}: expected rational string, got {type(x).__name__}")


def intervalset_to_jsonable(s: IntervalSet) -> list:
    return [[format_ratio(lo), format_ratio(hi)] for lo, hi in s.pieces]


def intervalset_from_jsonable(obj, where: str = "intervals") -> IntervalSet:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of [lo, hi] pairs")
    pairs = []
    for i, pair in enumerate(obj):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}[{i}]: expected [lo, hi]")
        lo = _ratio_in(pair[0], f"{where}[{i}].lo")
        hi = _ratio_in(pair[1], f"{where}[{i}].hi")
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            raise ParseError(f"{where}[{i}]: expected lo < hi")
        pairs.append((lo, hi))
    return IntervalSet.parse(pairs)


def pwl_to_jsonable(f: PiecewiseLinear) -> list:
    return [{"piece": [format_ratio(lo), format_ratio(hi)],
             "alpha": format_ratio(a), "beta": format_ratio(b)}
            for lo, hi, a, b in f.pieces]


def pwl_from_jsonable(obj, where: str = "pwl") -> PiecewiseLinear:
    if not isinstance(obj, list):
        raise ParseError(f"{where}: expected a list of pieces")
    pieces = []
    for i, item in enumerate(obj):
        loc = f"{where}[{i}]"
        if not isinstance(item, dict) or "piece" not in item:
            raise ParseError(f"{loc}: expected {{piece, alpha, beta}}")
        piece = item["piece"]
        if not isinstance(piece, list) or len(piece) != 2:
            raise ParseError(f"{loc}.piece: expected [lo, hi]")
        lo = _ratio_in(piece[0], f"{loc}.piece.lo")
        hi = _ratio_in(piece[1], f"{loc}.piece.hi")
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            raise ParseError(f"{loc}.piece: expected lo < hi")
        alpha = _ratio_in(item.get("alpha", 0), f"{loc}.alpha")
        beta = _ratio_in(item.get("beta", 0), f"{loc}.beta")
        pieces.append((lo, hi, alpha, beta))
    try:
        return PiecewiseLinear.parse(pieces)
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None


def profile_to_jsonable(p: SqrtProfile) -> dict:
    return {"square": pwl_to_jsonable(p.square),
            "domain": intervalset_to_jsonable(p.support())}


def profile_from_jsonable(obj, where: str = "profile") -> SqrtProfile:
    if not isinstance(obj, dict) or "square" not in obj:
        raise ParseError(f"{where}: expected {{square, domain}}")
    sq = pwl_from_jsonable(obj["square"], f"{where}.square")
    dom = intervalset_from_jsonable(obj.get("domain", []), f"{where}.domain")
    if dom and dom != sq.support():
        sq = sq.restrict(dom)
    try:
        return SqrtProfile(sq)
    except ValueError as e:
        raise ParseError(f"{where}: {e}") from None


def family_to_jsonable(scaling: LayeredFamily, wavelets: LayeredFamily,
                       input_digest: str) -> dict:
    """The family file: each phi under the key k of its window layer
    [2k - 1, 2k + 1), each psi with its layer."""
    return {
        "version": FORMAT_VERSION,
        "dilation": wavelets.dilation,
        "sigma": pwl_to_jsonable(wavelets.sigma),
        "partition": [intervalset_to_jsonable(layer) for layer in wavelets.layers],
        "psis": [profile_to_jsonable(p) for p in wavelets.profiles],
        "phis": {str(_windows(*layer.cells[0], layer.den)[0]): profile_to_jsonable(p)
                 for p, layer in zip(scaling.profiles, scaling.layers)},
        "provenance": {"input_digest": input_digest,
                       "tool": f"framesmith {__version__}"},
    }


def family_from_jsonable(obj) -> Tuple[LayeredFamily, LayeredFamily]:
    if not isinstance(obj, dict):
        raise ParseError("family: expected an object")
    if obj.get("version") != FORMAT_VERSION:
        raise ParseError(f"family.version: expected {FORMAT_VERSION!r}, "
                         f"got {obj.get('version')!r}")
    a = obj.get("dilation")
    if not isinstance(a, int) or abs(a) < 2:
        raise ParseError("family.dilation: expected integer |a| >= 2")
    sigma = pwl_from_jsonable(obj.get("sigma", []), "family.sigma")
    for key, kind, name in (("partition", list, "a list"), ("psis", list, "a list"),
                            ("phis", dict, "an object")):
        if not isinstance(obj.get(key, kind()), kind):
            raise ParseError(f"family.{key}: expected {name}")
    partition = tuple(intervalset_from_jsonable(x, f"family.partition[{i}]")
                      for i, x in enumerate(obj.get("partition", [])))
    psis = tuple(profile_from_jsonable(x, f"family.psis[{i}]")
                 for i, x in enumerate(obj.get("psis", [])))
    phis: List[Tuple[int, SqrtProfile]] = []
    for key, val in obj.get("phis", {}).items():
        # only the canonical spelling, so no two keys name one window
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            raise ParseError(f"family.phis[{key!r}]: key must be an integer "
                             f"written without leading zeros or separators")
        try:
            k = int(key)
        except ValueError:  # more digits than int() reads
            raise ParseError(f"family.phis: a key of {len(key)} characters is "
                             f"too long to read as an integer") from None
        phis.append((k, profile_from_jsonable(val, f"family.phis[{key}]")))
    # numeric key order, the order of the windows ("10" sorts before "2")
    phis.sort(key=lambda entry: entry[0])
    scaling = LayeredFamily(tuple(p for _, p in phis),
                            tuple(window(k) for k, _ in phis), sigma, a)
    wavelets = LayeredFamily(psis, partition, sigma, a)
    try:
        scaling.validate([f"family.phis[{k}]" for k, _ in phis])
        wavelets.validate([f"family.partition[{i}]" for i in range(len(partition))])
    except ValueError as e:
        raise ParseError(f"family invariant violated: {e}") from None
    return scaling, wavelets


def sets_from_jsonable(obj, where: str = "sets") -> List[IntervalSet]:
    """A sets file is either one interval set or a list of them; the first
    nonempty element decides which, so an empty set may come first.  A
    nonempty list of empty lists is that many empty sets, since [] is never
    a [lo, hi] pair."""
    if isinstance(obj, list) and obj and all(x == [] for x in obj):
        return [IntervalSet() for _ in obj]
    first = next((x for x in obj if x), None) if isinstance(obj, list) else None
    if isinstance(first, list) and isinstance(first[0], list):
        return [intervalset_from_jsonable(x, f"{where}[{i}]")
                for i, x in enumerate(obj)]
    return [intervalset_from_jsonable(obj, where)]


def sets_to_jsonable(sets: List[IntervalSet]) -> list:
    return [intervalset_to_jsonable(s) for s in sets]


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def digest_of(obj) -> str:
    return "sha256:" + hashlib.sha256(
        dumps_canonical(obj).encode("utf-8")).hexdigest()


def loads_json(text: str, where: str = "input"):
    """Parse JSON text, refusing an object that names one key twice (plain
    `json.loads` would keep the last value and drop the others unseen)."""
    def unique(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{where}: duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except ParseError:
        raise
    except json.JSONDecodeError as e:
        raise ParseError(f"{where}: line {e.lineno} column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError(f"{where}: arrays or objects nested too deeply") from None
    except ValueError as e:  # a number with more digits than int() reads
        raise ParseError(f"{where}: {e}") from None
