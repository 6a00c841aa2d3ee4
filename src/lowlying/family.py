"""One-parameter families of elliptic curves over Q(t).

A family is given by Weierstrass coefficient polynomials a1..a6 in Z[t],
a sign rule for the functional equation, and a claimed rank.  A preset
or config may reparametrize t -> c*t + t0; the reader composes it into
the coefficients, so a FamilyDef holds them already reparametrized.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from numbers import Rational  # numpy loads numbers already
from typing import Optional

from .polyint import IntPoly, poly, radical, rational_roots


class DegenerateFamilyError(ValueError):
    pass


class SingularFiberError(ValueError):
    pass


@dataclass(frozen=True)
class SignRule:
    """Closed-form root-number rule.

    kind is one of AllEven, AllOdd, BirchStephensCubic, BirchStephensQuartic,
    Equidistributed.  The Birch-Stephens rules carry the integer-valued
    polynomial D(t) they inspect.
    """

    kind: str
    D: Optional[IntPoly] = None

    def __post_init__(self):
        kinds = {"AllEven", "AllOdd", "BirchStephensCubic",
                 "BirchStephensQuartic", "Equidistributed"}
        if self.kind not in kinds:
            raise ValueError(f"unknown sign rule {self.kind!r}")
        if self.kind.startswith("BirchStephens") and self.D is None:
            raise ValueError(f"{self.kind} needs a polynomial D")


@dataclass(frozen=True)
class FamilyDef:
    label: str
    a1: IntPoly
    a2: IntPoly
    a3: IntPoly
    a4: IntPoly
    a6: IntPoly
    B: int = 1
    sign_rule: SignRule = field(default_factory=lambda: SignRule("Equidistributed"))
    rank: int = 0
    expected_conductor: Optional[IntPoly] = None

    def __post_init__(self):
        if self.B < 1:  # every prime would divide B = 0 and none be sieved
            raise ValueError(f"exceptional square B must be >= 1, got {self.B}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        # inv: the dict of `invariants`, fixed by the frozen coefficients
        object.__setattr__(self, "inv", invariants(self))

    # -- derived data ------------------------------------------------------

    @property
    def abc_flag(self):
        """True when an irreducible factor of the discriminant may have
        degree >= 4, making the sieve cardinality ABC-conditional: the
        cofactor rational_roots(D) leaves has degree >= 4."""
        D = self.inv["D"]
        # the cofactor's degree is at most deg D; a D of degree < 4 needs
        # no np.roots, whose eigenvalue solver adds to a run's peak RSS
        return D.degree >= 4 and rational_roots(D)[1].degree >= 4

    def specialize(self, t):
        """Integer Weierstrass coefficients of the fiber at integer t."""
        if self.inv["delta"].eval(t) == 0:
            raise SingularFiberError(f"{self.label}: singular fiber at t={t}")
        return (self.a1.eval(t), self.a2.eval(t), self.a3.eval(t),
                self.a4.eval(t), self.a6.eval(t))

    def delta_at(self, t):
        return self.inv["delta"].eval(t)


def _bc_invariants(a1, a2, a3, a4, a6):
    """(b2, b4, b6, b8, c4, c6, delta) of a Weierstrass model.

    The coefficients may be ints (one fiber) or IntPolys (the family).
    """
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 ** 3) + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * (b4 ** 3) - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return b2, b4, b6, b8, c4, c6, delta


def invariants(f: FamilyDef) -> dict:
    """Standard Weierstrass quantities of the family as polynomials.

    D is the primitive square-free part of the discriminant; A = -27 c4
    and B = -54 c6 are the coefficients of the short model
    y^2 = x^3 + A x + B, which `modarith.ap_table` reads.
    """
    b2, b4, b6, b8, c4, c6, delta = _bc_invariants(f.a1, f.a2, f.a3, f.a4,
                                                   f.a6)
    if delta.is_zero():
        raise DegenerateFamilyError(f"{f.label}: discriminant identically zero")
    assert c4 ** 3 - c6 ** 2 == 1728 * delta
    assert 4 * b8 == b2 * b6 - b4 * b4
    return {"b2": b2, "b4": b4, "b6": b6, "b8": b8, "c4": c4, "c6": c6,
            "delta": delta, "D": radical(delta), "A": -27 * c4,
            "B": -54 * c6}


def sign(f: FamilyDef, t: int):
    """Sign of the functional equation of the fiber at t, or None.

    Returns +1, -1, or None ("unknown") when the rule's factorization
    backend cannot complete or the rule's precondition fails at t.  The
    per-fiber route: `n_minus` takes the factorizations of a whole set
    from one sieve.
    """
    rule = f.sign_rule
    if rule.kind == "AllEven":
        return 1
    if rule.kind == "AllOdd":
        return -1
    if rule.kind == "Equidistributed":
        raise ValueError("equidistributed rule has no per-fiber sign")
    from .tate import factorize

    Dval = rule.D.eval(t)
    return _birch_stephens(rule.kind, Dval,
                           factorize(abs(Dval)) if Dval else None)


def _birch_stephens(kind, Dval, fac):
    """Birch-Stephens sign from D(t) and its factorization, or None when
    D(t) = 0, the factorization is incomplete or D(t) has a power the
    rule excludes."""
    if fac is None or fac.cofactor != 1:
        return None
    if kind == "BirchStephensCubic":
        # curve y^2 = x^3 + D^2-flavored cubic twist; D must be cube-free
        if any(e >= 3 for e in fac.prime_powers.values()):
            return None
        w3 = -1 if Dval % 9 in (1, 3, 6, 8) else 1
        eps = -w3
        for p in fac.prime_powers:
            if p != 3 and p % 3 == 2:
                eps = -eps
        return eps
    # BirchStephensQuartic: y^2 = x^3 + 4Dx with 4 not | D, D 4th-power-free
    if Dval % 4 == 0 or any(e >= 4 for e in fac.prime_powers.values()):
        return None
    eps = -1 if Dval > 0 else 1  # w_infinity = sgn(-D)
    if Dval % 16 in (1, 3, 11, 13):
        eps = -eps  # w_2
    for p, e in fac.prime_powers.items():
        if e == 2 and p % 4 == 3:
            eps = -eps
    return eps


def n_minus(f: FamilyDef, good_t) -> Rational:
    """Exact fraction of odd-sign fibers among the given good t values.

    The Equidistributed rule returns 1/2 exactly; fibers whose sign the
    rule cannot decide are counted at 1/2 as well.  Under every other
    rule an empty set gives 0.  AllEven gives 0 and AllOdd 1, with no
    sign computed per fiber.  A Birch-Stephens rule's D(t) values are
    factorized by one sieve over the whole set.
    """
    from fractions import Fraction  # it loads decimal too

    rule = f.sign_rule
    if rule.kind == "Equidistributed":
        return Fraction(1, 2)
    good_t = [int(t) for t in good_t]
    if not good_t:
        return Fraction(0)
    if rule.kind in ("AllEven", "AllOdd"):
        return Fraction(rule.kind == "AllOdd")
    from .tate import _factor_values

    signs = [_birch_stephens(rule.kind, rule.D.eval(t), fac) for t, fac
             in zip(good_t, _factor_values(rule.D, good_t))]
    return Fraction(2 * signs.count(-1) + signs.count(None), 2 * len(good_t))


# -- built-in presets ------------------------------------------------------

def _reparametrize(a, c, t0):
    """The coefficient polynomials a at t -> c*t + t0, for c > 0."""
    if c <= 0:
        raise ValueError("reparametrization scale must be positive")
    return [q.compose_affine(c, t0) for q in a]


def _presets():
    z = poly()
    f1 = FamilyDef(
        label="F1",
        a1=z, a2=z, a3=z, a4=z,
        a6=IntPoly([-432]) * poly(1, 9) ** 2,
        sign_rule=SignRule("BirchStephensCubic", poly(1, 9)),
        rank=0,
        expected_conductor=IntPoly([27]) * poly(1, 9) ** 2,
    )
    f2p = FamilyDef(
        label="F2plus",
        a1=z, a2=z, a3=z,
        a4=poly(8, 16), a6=z,
        sign_rule=SignRule("BirchStephensQuartic", poly(2, 4)),
        rank=0,
        expected_conductor=IntPoly([64]) * poly(2, 4) ** 2,
    )
    f2m = FamilyDef(
        label="F2minus",
        a1=z, a2=z, a3=z,
        a4=poly(-8, -16), a6=z,
        sign_rule=SignRule("BirchStephensQuartic", poly(-2, -4)),
        rank=0,
        expected_conductor=IntPoly([64]) * poly(2, 4) ** 2,
    )
    washington = FamilyDef(
        "washington",
        *_reparametrize([z, poly(0, 1), z, poly(-3, -1), poly(1)], 12, 1),
        sign_rule=SignRule("AllOdd"),
        rank=1,
        # The density normalization the washington targets use, not the
        # fiber conductor: 144t^2 + 60t + 13 divides c4 and delta, so its
        # odd primes have additive reduction (type II, f_p = 2) and the
        # conductor is 8 (144t^2 + 60t + 13)^2, as the functional equation
        # confirms on small fibers.
        expected_conductor=IntPoly([8]) * poly(13, 60, 144),
    )
    rank1 = FamilyDef(
        "rank1", *_reparametrize([z, poly(0, 1), z, z, poly(1)], 6, 1),
        sign_rule=SignRule("Equidistributed"),
        rank=1,
        # t' = 6t + 1 is odd, so 2 has type III reduction (b8 = 4t' after
        # moving the singular point (0, 1) to the origin) with
        # v_2(delta) = 4 and two components: Ogg gives f_2 = 3.
        expected_conductor=IntPoly([8]) * (4 * poly(1, 6) ** 3 + 27),
    )
    A = 8916100448256000000
    B = -811365140824616222208
    C = 26497490347321493520384
    D = -343107594345448813363200
    a = 16660111104
    b = -1603174809600
    c = 2149908480000
    q = poly(1 - A, 2, 1)  # t^2 + 2t - A + 1
    rank6 = FamilyDef(
        label="rank6",
        a1=z, a3=z,
        a2=poly(-B, 2 * a),
        a4=poly(-C, 2 * b) * q,
        a6=poly(-D, 2 * c) * q ** 2,
        sign_rule=SignRule("Equidistributed"),
        rank=6,
    )
    return {f.label: f for f in (f1, f2p, f2m, washington, rank1, rank6)}


PRESETS = _presets()


def get_family(name: str) -> FamilyDef:
    key = name.strip()
    for label, fam in PRESETS.items():
        if label.lower() == key.lower():
            return fam
    raise KeyError(f"unknown family {name!r}; presets: {sorted(PRESETS)}")


# -- config file I/O -------------------------------------------------------

def load_family(path) -> FamilyDef:
    """Load a family from a UTF-8 JSON config file.

    Schema: {"label", "a": [[a1], [a2], [a3], [a4], [a6]] ascending
    coefficient lists, "reparam": [c, t0], "B": int, "sign_rule": {"kind",
    "D": coeffs?}, "rank": int, "expected_conductor": coeffs or null}.
    Every coefficient, c, t0, B and rank must be a JSON integer: a float
    or a boolean is refused with its key named, not truncated or read as
    0 or 1.  A config of another shape (not an object, no string label,
    a sign rule without a string kind, ...) is refused with its key named
    too.  Other keys are ignored.
    """
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, got "
                         f"{type(cfg).__name__}")
    if not isinstance(cfg.get("label"), str):
        raise ValueError(f"config 'label' must be a string, got "
                         f"{cfg.get('label')!r}")
    a = cfg.get("a")
    if not isinstance(a, list) or len(a) != 5:
        raise ValueError(f"config 'a' must be a list of 5 coefficient arrays,"
                         f" for a1, a2, a3, a4, a6 (no a5 slot); got "
                         f"{len(a) if isinstance(a, list) else repr(a)}")
    a = [IntPoly(_int_list("a", cs)) for cs in a]
    c, t0 = _int_list("reparam", cfg.get("reparam", [1, 0]), n=2)
    a = _reparametrize(a, c, t0)
    sr = cfg.get("sign_rule", "Equidistributed")
    if isinstance(sr, str):
        sr = {"kind": sr}
    if not isinstance(sr, dict) or not isinstance(sr.get("kind"), str):
        raise ValueError(f"config 'sign_rule' must be a kind or an object "
                         f"with a string 'kind', got {sr!r}")
    D = sr.get("D")
    rule = SignRule(sr["kind"], IntPoly(_int_list("sign_rule.D", D))
                    if D else None)
    ec = cfg.get("expected_conductor")
    return FamilyDef(
        cfg["label"], *a,
        B=_int("B", cfg.get("B", 1)),
        sign_rule=rule,
        rank=_int("rank", cfg.get("rank", 0)),
        expected_conductor=IntPoly(_int_list("expected_conductor", ec))
        if ec else None,
    )


def _int(key, x):
    """x, refused unless it is a JSON integer (a bool is not one)."""
    if type(x) is not int:
        raise ValueError(f"config {key!r} must be an integer, got {x!r}")
    return x


def _int_list(key, xs, n=None):
    """xs, refused unless it is a list of JSON integers, of length n if
    n is given."""
    if (not isinstance(xs, list) or any(type(x) is not int for x in xs)
            or n is not None and len(xs) != n):
        size = "" if n is None else f" {n}"
        raise ValueError(f"config {key!r} must be a list of{size} integers, "
                         f"got {xs!r}")
    return xs
