"""Re-run the mutation checks of the fast paths.

Each entry of MUTANTS names a file under src/lowlying, an exact source
substitution, and the tests that must fail once it is applied.  For each
entry the script copies src/ to a temporary directory, applies the
substitution there (the checkout is never touched), and runs the tests
with plain pytest in a child process whose import path puts the copy
first, as tests/conftest.py's src_env does.  It prints "killed" when the
tests fail, "survived" when they pass, and exits nonzero if any entry
survived or could not be run (its substitution no longer matches, or
pytest did not get to run the tests).

    python3 tools/mutants.py            # every entry
    python3 tools/mutants.py NAME ...   # the named entries only

Not collected by pytest: the suite's testpaths is tests/.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (file under src/lowlying, old source, new source, test ids)
MUTANTS = {
    # the residue pass must leave a fiber to the exact rule where a
    # residue keeps fewer than six digits of the unit part, not only
    # where it is 0
    "residue-flag-only-zero": (
        "tate.py",
        "exact |= (r == 0) | (v > K - _UNIT_DIGITS)",
        "exact |= (r == 0)",
        ["tests/test_tate.py::test_conductors_exact_path_at_2_and_3"]),
    # unit parts mod 2^3 do not fix f_2
    "unit-digits-3": (
        "tate.py",
        "_UNIT_DIGITS = 6",
        "_UNIT_DIGITS = 3",
        ["tests/test_tate.py::test_local_key_determines_f_p"]),
    # 10007 * 10009 < 10^9 is composite: only parts below 10^8 are prime
    # without a test
    "split-remainder-1e9": (
        "tate.py",
        "if m < 10 ** 8 or is_prime(m):",
        "if m < 10 ** 9 or is_prime(m):",
        ["tests/test_tate.py::test_factorize_prime_powers_and_cofactors"]),
    # v_(j+k) = -v_j: the second half of the tiled exponent table
    "ap-table-sign": (
        "modarith.py",
        "v + [-a for a in v]",
        "v + v",
        ["tests/test_modarith.py::test_ap_table_matches_pointwise"]),
    # Horner on an unreduced x overflows int64
    "vals-mod-unreduced-x": (
        "polyint.py",
        "    x = x % m\n",
        "",
        ["tests/test_polyint.py::test_vals_mod_largest_modulus",
         "tests/test_tate.py::test_conductors_around_int64_bounds"]),
    # numpy reads ints around 2^63 as float64 or object: t must be
    # reduced as a Python int before the int64 array is built
    "residues-inferred-dtype": (
        "tate.py",
        "np.array([t % _RESIDUE_MOD for t in ts], dtype=np.int64)",
        "np.asarray(ts) % _RESIDUE_MOD",
        ["tests/test_tate.py::test_conductors_around_int64_bounds"]),
    # g^2 is never a primitive root, so the power table misses half the
    # residues
    "primitive-root-squared": (
        "modarith.py",
        "            return a\n",
        "            return a * a % p\n",
        ["tests/test_modarith.py::test_ap_table_matches_pointwise"]),
    # the coefficient rule only saves work: the pointwise values stay
    # right without it, but the zero table must come before any chi
    "coefficient-rule-off": (
        "modarith.py",
        "    if ((p % 3 != 1 and",
        "    if False and ((p % 3 != 1 and",
        ["tests/test_modarith.py::test_ap_table_zero_cm_class_builds_no_chi"]),
    # A = 0 mod p gives a zero table only where p = 2 mod 3
    "coefficient-rule-any-p": (
        "modarith.py",
        "(p % 3 != 1 and not any(c % p for c in Apoly.coeffs))",
        "(not any(c % p for c in Apoly.coeffs))",
        ["tests/test_modarith.py::test_ap_table_matches_pointwise"]),
    # A_2 sums the squares of a_t(p)
    "moments-a2-unsquared": (
        "modarith.py",
        "int((tab * tab).sum())",
        "int(tab.sum())",
        ["tests/test_modarith.py::test_moment_methods_agree"]),
    # the double root of Y^2 + a3t Y - a6t is -a3t / 2, not a3t / 2
    "double-root-sign": (
        "tate.py",
        "-a3t * ((p + 1) // 2) % p",
        "a3t * ((p + 1) // 2) % p",
        ["tests/test_tate.py::test_tate_local_invariant_under_coordinate_change",
         "tests/test_tate.py::test_local_key_determines_f_p"]),
    # t = -(a1 r + a3) / 2 moves the singular point to y = 0, at p = 3 too
    "singular-point-t-sign": (
        "tate.py",
        "t = -(a1 * r + a3) * h % p",
        "t = (a1 * r + a3) * h % p",
        ["tests/test_tate.py::test_known_conductor_exponents",
         "tests/test_tate.py::test_tate_local_invariant_under_coordinate_change"]),
    # the content-prime loop adds the primes above 3 that D(t) lacks;
    # those it has are already in D(t)'s factorization
    "content-prime-twice": (
        "tate.py",
        "if p not in fac.prime_powers:",
        "if p in fac.prime_powers:",
        ["tests/test_tate.py::test_conductors_match_conductor"]),
    # f_3 comes from the residue pass whole: taken again from D(t), 3^f_3
    # would multiply in twice
    "d-primes-from-3": (
        "tate.py",
        "            for p in fac.prime_powers:\n                if p > 3:",
        "            for p in fac.prime_powers:\n                if p > 2:",
        ["tests/test_tate.py::test_conductors_match_conductor"]),
    # a t with D(t) = 0 is singular and leaves the good set, also where
    # no prime is sieved
    "singular-fiber-kept": (
        "sqsieve.py",
        "ts = ts[~zero]",
        "ts = ts",
        ["tests/test_sqsieve.py::"
         "test_singular_fiber_dropped_when_no_prime_is_sieved"]),
    # a Tate-route fiber counts as incomplete only where it left a
    # cofactor
    "log-conductors-complete-counted": (
        "density.py",
        "if not complete:",
        "if complete:",
        ["tests/test_density.py::test_log_conductors_tate_route"]),
    # verify-kernels' default 2-level pair is g at half its sigma
    "kernels-default-testfn2-third": (
        "cli.py",
        "g1.sigma / 2",
        "g1.sigma / 3",
        ["tests/test_cli.py::test_verify_kernels_small"]),
    # w_2 of the quartic rule flips at D = 13 mod 16 too
    "quartic-w2-misses-13": (
        "family.py",
        "(1, 3, 11, 13)",
        "(1, 3, 11)",
        ["tests/test_tate.py::test_functional_equation"]),
}


def run(name: str) -> str:
    """'killed', 'survived', or 'error: ...' for one entry of MUTANTS."""
    fname, old, new, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "lowlying" / fname
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"error: {old!r} occurs {text.count(old)} times in {fname}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        # -o pythonpath: pyproject.toml would put the checkout's src first
        p = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "-o", f"pythonpath={src}", *tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if p.returncode == 0:
        return "survived"
    if p.returncode == 1:
        return "killed"
    return f"error: pytest exit status {p.returncode}\n{p.stdout[-2000:]}"


def main(argv: list) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants {unknown}; known: {list(MUTANTS)}",
              file=sys.stderr)
        return 2
    bad = 0
    for name in names:
        verdict = run(name)
        print(f"{name}: {verdict}", flush=True)
        bad += verdict != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
