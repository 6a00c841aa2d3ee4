import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from lowlying import family
from lowlying.family import (FamilyDef, PRESETS, SignRule, get_family,
                             invariants, load_family, n_minus, sign)
from lowlying.family import SingularFiberError
from lowlying.polyint import IntPoly, poly, rational_roots


def test_presets_exist():
    assert set(PRESETS) == {"F1", "F2plus", "F2minus", "washington",
                            "rank1", "rank6"}
    assert get_family("f1").label == "F1"
    with pytest.raises(KeyError):
        get_family("nope")


def test_invariant_identities_all_presets():
    for fam in PRESETS.values():
        inv = fam.inv
        assert inv["c4"] ** 3 - inv["c6"] ** 2 == 1728 * inv["delta"]
        assert 4 * inv["b8"] == inv["b2"] * inv["b6"] - inv["b4"] * inv["b4"]


def test_washington_invariants():
    w = FamilyDef(label="w", a1=poly(), a2=poly(0, 1), a3=poly(),
                  a4=poly(-3, -1), a6=poly(1))
    m = poly(9, 3, 1)
    assert w.inv["c4"] == 16 * m
    assert w.inv["delta"] == 16 * m * m


def test_specialize():
    f1 = get_family("F1")
    assert f1.specialize(1) == (0, 0, 0, 0, -432 * 100)
    w = get_family("washington")  # reparam t -> 12t + 1
    assert w.specialize(0) == (0, 1, 0, -4, 1)


def test_replace_keeps_reparametrized_coefficients():
    # the reparametrization is applied once, when the preset is read
    w = get_family("washington")
    w2 = dataclasses.replace(w, label="w2")
    assert w2.a2 == w.a2 == poly(1, 12)
    assert w2.specialize(3) == w.specialize(3)


def test_singular_fiber():
    fam = FamilyDef(label="s", a1=poly(), a2=poly(), a3=poly(),
                    a4=poly(), a6=poly(0, 1))  # delta(0) = 0
    with pytest.raises(SingularFiberError):
        fam.specialize(0)


def test_sign_rules():
    f1 = get_family("F1")
    # good t: D = 9t+1 square-free -> always even
    for t in (1, 2, 4, 5, 6):
        assert sign(f1, t) == 1
    f2p = get_family("F2plus")
    # good t: 2t+1 square-free -> always odd (t=4 has 2t+1 = 9, excluded)
    for t in (1, 2, 3, 5, 6):
        assert sign(f2p, t) == -1
    assert sign(f2p, 4) == 1  # 3^2 || D flips the quartic rule
    # cubic rule with D=2, mechanical case check
    fam = FamilyDef(label="c", a1=poly(), a2=poly(), a3=poly(),
                    a4=poly(), a6=poly(4),
                    sign_rule=SignRule("BirchStephensCubic", poly(2)))
    assert sign(fam, 0) == 1


def test_n_minus():
    from sympy import factorint
    good = [t for t in range(1, 30)
            if all(e == 1 for e in factorint(9 * t + 1).values())]
    assert n_minus(get_family("F1"), good) == 0
    assert n_minus(get_family("washington"), [0, 1, 2]) == 1
    assert n_minus(get_family("rank1"), []) == Fraction(1, 2)


def test_n_minus_constant_rules_need_no_sign(monkeypatch):
    def refuse(f, t):
        raise AssertionError("sign called")

    monkeypatch.setattr(family, "sign", refuse)
    w = get_family("washington")
    even = dataclasses.replace(w, sign_rule=SignRule("AllEven"))
    ts = list(range(1, 50))
    assert n_minus(w, ts) == 1 and n_minus(even, ts) == 0
    assert n_minus(w, []) == n_minus(even, []) == 0


@pytest.mark.parametrize("name", ["F1", "F2plus", "F2minus", "washington",
                                  "F1-tate"])
def test_n_minus_matches_per_fiber_signs(name):
    from pathlib import Path

    from lowlying.sqsieve import enumerate_good

    if name == "F1-tate":
        f = load_family(Path(__file__).resolve().parents[1] / "perfbench"
                        / "F1-tate.json")
    else:
        f = get_family(name)
    ts = enumerate_good(f, 10 ** 4).good_t[:200].tolist()
    # D(t) with a cube (F1: t = 7) or a fourth power (F2: t = 40): unknown signs
    extra = [0, 3, 7, 13, -2, 40] if name != "washington" else []
    for good in (ts, ts + extra):
        want = Fraction(0)
        for t in good:
            s = sign(f, t)
            want += Fraction(1, 2) if s is None else int(s == -1)
        assert n_minus(f, good) == want / len(good), name


def test_abc_flag():
    assert not get_family("F1").abc_flag
    assert not get_family("washington").abc_flag
    # rank6 discriminant has high-degree irreducible factors
    assert get_family("rank6").abc_flag
    # the cofactor rational_roots(D) leaves, in preset order
    degs = [rational_roots(f.inv["D"])[1].degree for f in PRESETS.values()]
    assert degs == [0, 0, 0, 2, 3, 6]
    assert [f.abc_flag for f in PRESETS.values()] == [False] * 5 + [True]
    # D = t (t^4 + t + 1): a linear root and an irreducible quartic
    quartic = FamilyDef("q", poly(), poly(), poly(), poly(),
                        poly(0, 1) * poly(1, 1, 0, 0, 1))
    assert rational_roots(quartic.inv["D"])[1].degree >= 4
    assert quartic.abc_flag


def test_load_family_roundtrip(tmp_path):
    cfg = {
        "label": "custom",
        "a": [[0], [0, 1], [0], [-3, -1], [1]],
        "reparam": [12, 1],
        "sign_rule": {"kind": "AllOdd"},
        "rank": 1,
        "expected_conductor": [8 * 13, 8 * 60, 8 * 144],
        "assert_factor_degrees_le3": True,
    }
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    fam = load_family(path)
    w = get_family("washington")
    assert fam.specialize(3) == w.specialize(3)
    assert fam.expected_conductor == w.expected_conductor
    assert not fam.abc_flag  # the retired key is ignored


@pytest.mark.parametrize("B", [0, -6])
def test_load_family_rejects_nonpositive_B(tmp_path, B):
    # with B = 0 every prime "divides B", so the sieve would mark nothing
    src = Path(__file__).resolve().parents[1] / "perfbench" / "F1-tate.json"
    cfg = json.loads(src.read_text(encoding="utf-8"))
    cfg["B"] = B
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ValueError, match="exceptional square B must be >= 1"):
        load_family(path)


@pytest.mark.parametrize("a5", [[0], [7, 1]])
def test_load_family_rejects_a5_slot(tmp_path, a5):
    # a 6-entry list was read as a1..a6 with a5 dropped, even a nonzero a5
    cfg = {"label": "six", "a": [[0], [0, 1], [0], [-3, -1], a5, [1]]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ValueError, match="5 coefficient arrays.*got 6"):
        load_family(path)


def _f1_tate_config():
    src = Path(__file__).resolve().parents[1] / "perfbench" / "F1-tate.json"
    return json.loads(src.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key, value", [
    ("a", [[0], [0], [0], [0], [-432.7, -7776, -34992]]),
    ("a", [[0], [0], [0], [0], "-432"]),
    ("reparam", [1.5, 0]),
    ("reparam", [1, True]),
    ("B", 2.0),
    ("B", "1"),
    ("rank", True),
    ("rank", 1.0),
    ("sign_rule", {"kind": "BirchStephensCubic", "D": [1, 9.5]}),
    ("expected_conductor", [27, 486.0, 2187]),
])
def test_load_family_rejects_non_integers(tmp_path, key, value):
    # a float was truncated, and true read as 1
    cfg = _f1_tate_config()
    cfg[key] = value
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    name = "sign_rule.D" if key == "sign_rule" else key
    with pytest.raises(ValueError, match=f"config '{name}' must be"):
        load_family(path)


_MALFORMED = {
    "top-level-list": (lambda c: [c], "config must be a JSON object, got list"),
    "label-missing": (lambda c: {k: v for k, v in c.items() if k != "label"},
                      "config 'label' must be a string, got None"),
    "label-int": (lambda c: {**c, "label": 7},
                  "config 'label' must be a string, got 7"),
    "a-int": (lambda c: {**c, "a": 5},
              "config 'a' must be a list of 5 coefficient arrays.*got 5"),
    "a-missing": (lambda c: {k: v for k, v in c.items() if k != "a"},
                  "config 'a' must be a list of 5 .*got None"),
    "reparam-short": (lambda c: {**c, "reparam": [1]},
                      r"config 'reparam' must be a list of 2 integers, got \[1\]"),
    "sign_rule-int": (lambda c: {**c, "sign_rule": 5},
                      "config 'sign_rule' must be .*got 5"),
    "sign_rule-no-kind": (lambda c: {**c, "sign_rule": {"D": [1]}},
                          "config 'sign_rule' must be .*'kind'"),
    "sign_rule-kind-list": (lambda c: {**c, "sign_rule": {"kind": [1]}},
                            "config 'sign_rule' must be .*'kind'"),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_load_family_rejects_malformed(tmp_path, case):
    # each ended in a TypeError or AttributeError traceback, or in a bare
    # KeyError or unpacking message
    edit, match = _MALFORMED[case]
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(edit(_f1_tate_config())), encoding="utf-8")
    with pytest.raises(ValueError, match=match):
        load_family(path)


def test_negative_rank_refused(tmp_path):
    # a rank of -1 was printed by `rank` and failed `density` only after
    # the sieve and the prime walk
    cfg = _f1_tate_config()
    cfg["rank"] = -1
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ValueError, match="rank must be >= 0, got -1"):
        load_family(path)
    with pytest.raises(ValueError, match="rank must be >= 0"):
        dataclasses.replace(get_family("F1"), rank=-2)


def test_expected_conductor_polys():
    assert PRESETS["F1"].expected_conductor == IntPoly([27]) * poly(1, 9) ** 2
    assert PRESETS["F1"].expected_conductor.eval(0) == 27
    assert PRESETS["washington"].expected_conductor.eval(0) == 8 * 13
    # The functional equation of y^2 = x^3 + x^2 + 1 holds for N = 248 and
    # fails for N = 124 (tests/test_tate.py::test_functional_equation).
    assert PRESETS["rank1"].expected_conductor.eval(0) == 8 * 31
