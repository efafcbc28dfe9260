"""Output checks made apart from cleanrings.

Nothing here imports cleanrings. Finite rings are re-implemented with plain
Python integers, decoded by the documented mixed-radix encoding (first
component most significant, matrices row-major, series constant term
first). Localizations are decided by scanning residues. Every check returns
a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

# ---------------------------------------------------------------------------
# finite rings with their own arithmetic


class Mixed:
    """Mixed-radix index codec, first radix most significant."""

    def __init__(self, radices):
        self.radices = tuple(radices)
        self.order = math.prod(self.radices)

    def decode(self, i):
        out = []
        for r in reversed(self.radices):
            out.append(i % r)
            i //= r
        return tuple(reversed(out))

    def encode(self, digits):
        i = 0
        for d, r in zip(digits, self.radices):
            i = i * r + d % r
        return i

    def add(self, x, y):
        return self.encode(a + b for a, b in zip(self.decode(x), self.decode(y)))

    def neg(self, x):
        return self.encode(-a for a in self.decode(x))


class ZMod(Mixed):
    """Z_n; the index is the residue."""

    def __init__(self, n):
        super().__init__((n,))
        self.n = n
        self.one = 1 % n

    def mul(self, x, y):
        return x * y % self.n

    def inverse(self, x):
        return pow(x, -1, self.n) if math.gcd(x, self.n) == 1 else None


class Product(Mixed):
    """Z_{m1} x Z_{m2} x ..., componentwise."""

    def __init__(self, moduli):
        super().__init__(moduli)
        self.one = self.encode([1] * len(moduli))

    def mul(self, x, y):
        return self.encode(a * b for a, b in zip(self.decode(x), self.decode(y)))

    def inverse(self, x):
        digits = self.decode(x)
        if any(math.gcd(d, m) != 1 for d, m in zip(digits, self.radices)):
            return None
        return self.encode(pow(d, -1, m) for d, m in zip(digits, self.radices))


class Matrix2(Mixed):
    """2 x 2 matrices over Z_m, entries (a, b, c, d) row-major."""

    def __init__(self, m):
        super().__init__((m,) * 4)
        self.m = m
        self.one = self.encode((1, 0, 0, 1))

    def mul(self, x, y):
        a, b, c, d = self.decode(x)
        e, f, g, h = self.decode(y)
        return self.encode((a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h))

    def inverse(self, x):
        a, b, c, d = self.decode(x)
        det = (a * d - b * c) % self.m
        if math.gcd(det, self.m) != 1:
            return None
        k = pow(det, -1, self.m)
        return self.encode((k * d, -k * b, -k * c, k * a))


class Series(Mixed):
    """Z_m[x]/(x^k), coefficients (c0, ..., c_{k-1}) with c0 most significant."""

    def __init__(self, m, k):
        super().__init__((m,) * k)
        self.m, self.k = m, k
        self.one = self.encode((1,) + (0,) * (k - 1))

    def mul(self, x, y):
        p, q = self.decode(x), self.decode(y)
        return self.encode(
            sum(p[j] * q[i - j] for j in range(i + 1)) for i in range(self.k)
        )

    def inverse(self, x):
        c = self.decode(x)
        if math.gcd(c[0], self.m) != 1:
            return None
        inv0 = pow(c[0], -1, self.m)
        out = [inv0]
        for i in range(1, self.k):
            s = sum(c[j] * out[i - j] for j in range(1, i + 1))
            out.append(-inv0 * s % self.m)
        return self.encode(out)


def ideal_of(ring, gens):
    """Two-sided ideal generated by gens: the additive span of R*g*R."""
    left = {ring.mul(r, g) for g in gens for r in range(ring.order)}
    spanning = {ring.mul(x, s) for x in left for s in range(ring.order)}
    members = {0}
    for p in spanning:
        # members + <p> is the union of the cosets members + k*p.
        frontier = members
        while frontier:
            frontier = {ring.add(m, p) for m in frontier} - members
            members = members | frontier
    return members


def check_finite_ideal(ring, members, rc, out, err):
    """`ideal SPEC --gens g --check weakly-clean --json` on a finite ring."""
    problems = _clean_exit(rc, err, want=0)
    try:
        payload = json.loads(out)
    except ValueError:
        return problems + ["stdout is not one JSON object"]
    if payload.get("ok") is not True:
        # Every finite ring is clean, so "no" is itself wrong.
        problems.append("a finite ideal was refused as weakly clean")
        return problems
    witnesses = payload.get("witnesses") or []
    seen = {w.get("element") for w in witnesses}
    if seen != members or len(witnesses) != len(members):
        problems.append(
            f"witnesses cover {len(seen)} elements, the ideal has {len(members)}"
        )
    if payload["verdict"].get("checked") != len(members):
        problems.append("verdict.checked differs from the ideal's size")
    for w in witnesses:
        problems += check_decomposition(ring, w)
        if len(problems) > 5:
            break
    return problems


def check_decomposition(ring, w):
    """x = u + s*e with e idempotent and u invertible, in the ring's own terms."""
    try:
        x, u, e, s = (int(w[k]) for k in ("element", "unit", "idempotent", "sign"))
    except (KeyError, TypeError, ValueError):
        return [f"malformed witness {w!r}"]
    if not all(0 <= v < ring.order for v in (x, u, e)) or s not in (1, -1):
        return [f"witness {w!r} out of range"]
    problems = []
    if ring.add(u, e if s == 1 else ring.neg(e)) != x:
        problems.append(f"{x} != {u} {'+' if s == 1 else '-'} {e}")
    if ring.mul(e, e) != e:
        problems.append(f"{e} is not idempotent")
    v = ring.inverse(u)
    if v is None or ring.mul(u, v) != ring.one or ring.mul(v, u) != ring.one:
        problems.append(f"{u} is not invertible")
    return problems


# ---------------------------------------------------------------------------
# localizations Z_(P): units are a/b with gcd(a, M) = 1, M = prod(P)


@lru_cache(maxsize=64)
def _unit_residues(modulus):
    return bytes(math.gcd(r, modulus) == 1 for r in range(modulus))


def element_flags(modulus, x):
    """(x unit, x - 1 unit, x + 1 unit) for a member x of Z_(P)."""
    return tuple(math.gcd((x + k).numerator, modulus) == 1 for k in (0, -1, 1))


def fails(check, unit, down, up):
    """Whether an element with these unit flags breaks the property."""
    if check == "clean":
        return not (unit or down)
    if check == "weakly-clean":
        return not (unit or down or up)
    return int(unit) + int(down or up) != 1  # uniquely


@lru_cache(maxsize=4096)
def decide_ideal(modulus, d, check):
    """Whether every member of the ideal <d> has the property.

    Whether d*a/b, d*a/b - 1 and d*a/b + 1 are units depends only on
    a*b^-1 mod M, so scanning the residues d*t mod M for t in [0, M)
    decides the ideal completely.
    """
    unit = _unit_residues(modulus)
    for t in range(modulus):
        r = d * t % modulus
        if fails(check, unit[r], unit[(r - 1) % modulus], unit[(r + 1) % modulus]):
            return False
    return True


def grid_witness(primes, d, check, bound, limit=20_000):
    """First failing member d*a/b with |a|, b <= bound, in the order of the
    program's search grid (b ascending and coprime to M, then a = 0, 1, -1,
    2, -2, ...), looking at no more than `limit` candidates. None when none
    was found."""
    modulus = math.prod(primes)
    seen = 0
    for b in range(1, bound + 1):
        if math.gcd(b, modulus) != 1:
            continue
        for k in range(0, 2 * bound + 1):
            n = d * ((k + 1) // 2) * (1 if k % 2 else -1)
            # b is a unit, so x = n/b, x - 1 and x + 1 are units exactly
            # when n, n - b and n + b are prime to M.
            flags = (math.gcd(n + s, modulus) == 1 for s in (0, -b, b))
            if fails(check, *flags):
                return Fraction(n, b)
            seen += 1
            if seen >= limit:
                return None
    return None


def valuation(n, p):
    n, e = abs(n), 0
    while n and n % p == 0:
        n //= p
        e += 1
    return e


def in_ideal(primes, exponents, x):
    modulus = math.prod(primes)
    if math.gcd(x.denominator, modulus) != 1:
        return False
    return x == 0 or all(valuation(x.numerator, p) >= e for p, e in zip(primes, exponents))


_IDEAL_TEXT = re.compile(r"^ideal (\S+): (\S+) (yes|no) \[")
_WITNESS_TEXT = re.compile(r"^  witness (\S+): no admissible decomposition$")


def check_localized_ideal(primes, exponents, check, as_json, rc, out, err):
    """`ideal (localized P) --gens g --check C` against the residue decider."""
    d = math.prod(p**e for p, e in zip(primes, exponents))
    expected = decide_ideal(math.prod(primes), d, check)
    problems = _clean_exit(rc, err, want=0 if expected else 1)
    if as_json:
        try:
            payload = json.loads(out)
            verdict, witness = payload["ok"], payload["verdict"]["witness"]
        except (ValueError, KeyError, TypeError):
            return problems + ["stdout is not the ideal JSON payload"]
    else:
        lines = out.splitlines()
        head = _IDEAL_TEXT.match(lines[1]) if len(lines) > 1 else None
        if head is None or head.group(2) != check:
            return problems + ["stdout has no verdict line"]
        verdict = head.group(3) == "yes"
        tail = _WITNESS_TEXT.match(lines[2]) if len(lines) > 2 else None
        witness = tail.group(1) if tail else None
    if verdict != expected:
        problems.append(f"verdict {verdict}, the residue scan says {expected}")
    if expected:
        if witness is not None:
            problems.append("a witness was printed for a yes verdict")
        return problems
    if witness is None:
        return problems + ["a no verdict came without a witness"]
    x = Fraction(witness)
    if not in_ideal(primes, exponents, x):
        problems.append(f"witness {x} is not a member of <{d}>")
    elif not fails(check, *element_flags(math.prod(primes), x)):
        problems.append(f"witness {x} has the {check} property")
    return problems


def check_analyze(primes, x, rc, out, err):
    """`analyze (localized P) --element a/b --json`."""
    unit, down, up = element_flags(math.prod(primes), x)
    weakly = unit or down or up
    problems = _clean_exit(rc, err, want=0 if weakly else 1)
    try:
        v = json.loads(out)["verdict"]
    except (ValueError, KeyError, TypeError):
        return problems + ["stdout is not the analyze JSON payload"]
    want = {
        "element": str(x),
        "clean": unit or down,
        "weakly_clean": weakly,
        "plus": unit or down,
        "minus": unit or up,
    }
    if v != want:
        problems.append(f"analyze said {v}, expected {want}")
    return problems


def check_modulus_command(command, primes, rc, out, err):
    """`units` or `radical` on (localized P): both name M = prod(P)."""
    problems = _clean_exit(rc, err, want=0)
    modulus = math.prod(primes)
    try:
        payload = json.loads(out)
    except ValueError:
        return problems + ["stdout is not one JSON object"]
    if command == "radical":
        ok = payload.get("generator") == str(modulus)
    else:
        ok = f"gcd(a, {modulus}) = 1" in (payload.get("criterion") or "")
    if not ok or payload.get("kind") != "localized":
        problems.append(f"{command} does not name the modulus {modulus}")
    return problems


def check_examples(rc, out, err):
    """`examples --json`: the two worked cases over Z_(3,5)."""
    problems = _clean_exit(rc, err, want=0)
    try:
        payload = json.loads(out)
        one = payload["full_ring_weakly_clean_not_clean"]
        product = payload["product_not_weakly_clean"]["product"]
    except (ValueError, KeyError, TypeError):
        return problems + ["stdout is not the examples JSON payload"]
    modulus = 15
    gen = Fraction(2, 11)
    if one["generator"] != str(gen) or one["generator_is_unit"] is not True:
        problems.append("2/11 should be reported as a unit generator")
    # 2/11 is a unit, so the ideal is R = Z_(3,5): weakly clean, not clean.
    if (one["ideal_is_full_ring"], one["weakly_clean"], one["clean"]) != (True, True, False):
        problems.append("case 1 verdicts differ from weakly clean and not clean")
    w = Fraction(one["non_clean_witness"])
    flags = element_flags(modulus, w)
    if not fails("clean", *flags):
        problems.append(f"case 1 witness {w} is clean")
    elif list(one["witness_checks"].values()) != list(flags):
        problems.append("case 1 witness checks differ from the unit flags")
    if product["ok"] is not False or not product["witness"]:
        return problems + ["case 2 should refute the product with a witness"]
    first, second = (element_flags(modulus, Fraction(v)) for v in product["witness"])
    plus_only = (first[0] or first[1]) and not (first[0] or first[2])
    minus_only = (second[0] or second[2]) and not (second[0] or second[1])
    if not (plus_only and minus_only):
        problems.append(f"case 2 witness {product['witness']} is not plus-only/minus-only")
    return problems


# ---------------------------------------------------------------------------
# the law catalog

LAW_IDS = frozenset(
    {
        "proper-ideals",
        "weakly-clean-implies-weakly-exchange",
        "central-equivalence",
        "reduced-rings",
        "determinant-cofactor",
        "matrix-ideal",
        "product-ideal",
        "uniqueness-forces-central",
        "morita-ideal",
        "tri3-ideal",
        "tri3-converse",
        "peirce-corners",
        "series-ideal",
        "idealization-ideal",
        "radical-quotient",
        "radical-sum",
        "localized-agreement",
        "units-sanity",
    }
)

RING_LAW_IDS = frozenset(
    {
        "proper-ideals",
        "weakly-clean-implies-weakly-exchange",
        "central-equivalence",
        "reduced-rings",
        "uniqueness-forces-central",
        "radical-quotient",
    }
)


def envelope_size(primes=5, max_primes=3, max_exponent=2):
    """Ideals in the validated envelope: per prime set of size k, the zero
    ideal plus (max_exponent + 1)^k exponent vectors."""
    return sum(
        math.comb(primes, k) * (1 + (max_exponent + 1) ** k)
        for k in range(1, max_primes + 1)
    )


def parse_law_lines(out):
    records = [json.loads(line) for line in out.splitlines() if line]
    if not records or not all(isinstance(r, dict) for r in records):
        raise ValueError("no law records")
    return records


def check_law_json(rc, out, err, law_ids, inputs=None):
    """`laws ... --json`: every law present, none failing."""
    problems = _clean_exit(rc, err, want=0)
    try:
        records = parse_law_lines(out)
    except ValueError:
        return problems + ["stdout is not JSON lines"]
    ids = {r.get("law") for r in records}
    if ids != law_ids:
        problems.append(f"law ids differ: missing {sorted(law_ids - ids)}, extra {sorted(ids - law_ids)}")
    failing = [r["law"] for r in records if r.get("verdict") not in ("pass", "skipped")]
    if failing:
        problems.append(f"laws not passing: {failing[:3]}")
    if inputs is not None and any(r.get("inputs") != inputs for r in records):
        problems.append(f"instances are not all on {inputs}")
    return problems


def check_catalog_json(rc, out, err, reference=None):
    """`laws --catalog --json`, optionally against an earlier run's bytes."""
    problems = check_law_json(rc, out, err, LAW_IDS)
    if reference is not None and out != reference:
        problems.append("two --json runs are not byte-identical")
    try:
        records = parse_law_lines(out)
    except ValueError:
        return problems
    agreement = [r for r in records if r.get("law") == "localized-agreement"]
    size = envelope_size()
    if len(agreement) != 1 or not agreement[0]["inputs"].startswith(f"{size} ideals,"):
        problems.append(f"localized-agreement does not cover {size} ideals")
    elif agreement[0]["scanned"] != 3 * size:
        problems.append(f"localized-agreement scanned {agreement[0]['scanned']}, not {3 * size}")
    return problems


_TALLY = re.compile(
    r"^(\d+) laws, (\d+) instances: (\d+) pass, (\d+) fail, (\d+) skipped"
    r" \((\d+) discriminating, (\d+) elements scanned\)$"
)


def check_catalog_text(rc, out, err, json_out):
    """`laws --catalog` text: one line per JSON record and a matching tally."""
    problems = _clean_exit(rc, err, want=0)
    lines = out.splitlines()
    tally = _TALLY.match(lines[-1]) if lines else None
    if tally is None:
        return problems + ["no tally line"]
    try:
        records = parse_law_lines(json_out)
    except ValueError:
        return problems + ["no JSON records to compare with"]
    want = (
        len({r["law"] for r in records}),
        len(records),
        sum(r["verdict"] == "pass" for r in records),
        sum(r["verdict"] == "fail" for r in records),
        sum(r["verdict"] == "skipped" for r in records),
        sum(r["instance_strength"] == "discriminating" for r in records),
        sum(r["scanned"] for r in records),
    )
    got = tuple(int(g) for g in tally.groups())
    if got != want:
        problems.append(f"tally {got} differs from the JSON count {want}")
    if len(lines) - 1 != len(records):
        problems.append(f"{len(lines) - 1} text rows for {len(records)} JSON records")
    return problems


def _clean_exit(rc, err, want):
    problems = []
    if rc != want:
        problems.append(f"exit code {rc}, expected {want}")
    if "Traceback" in err:
        problems.append("a traceback on stderr: " + err.strip().splitlines()[-1][:200])
    return problems

