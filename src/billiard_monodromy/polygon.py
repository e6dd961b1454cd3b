"""Polygon tuples and their associate calculus.

A k-tuple [a_0, ..., a_{k-1}] modulo n is *geometric* when it encodes the
angles a_i*pi/n of an actual plane polygon: positive entries summing to
(k-2)*n, each below 2n and different from n, with gcd(a_0, ..., a_{k-1}, n)
equal to 1.  Relaxing to "entries sum to 0 mod n, gcd 1, not all zero mod n"
gives the *algebraic* tuples, which are closed under the scaling and
CRT-combination operations that drive the classification machinery.

Two tuples are associates when one is a unit multiple of the other mod n;
associates share a monodromy group, and every algebraic tuple with no zero
entry mod n has a geometric associate.
"""

from dataclasses import dataclass
from math import gcd
from typing import Iterator, Optional

from .errors import (
    AllZero,
    CNotUnit,
    EntryOutOfRange,
    GcdNotOne,
    KTooSmall,
    PreconditionFailed,
    SumMismatch,
)
from .numtheory import is_prime


@dataclass(frozen=True, slots=True)
class PolygonTuple:
    """An ordered tuple of angle numerators with its modulus.

    Algebraic tuples are stored as least nonnegative residues; geometric
    tuples keep their literal entries (possibly >= n) because the angles
    a_i*pi/n depend on them.
    """

    entries: tuple
    modulus: int
    geometric: bool = False

    @property
    def k(self) -> int:
        return len(self.entries)

    def residues(self) -> tuple:
        # from a list: tuple() over a generator allocates 10 slots and then
        # resizes, so CPython 3.11 parks each result on a per-size free list
        # that only exact-size tuples draw from, and a long run's peak RSS
        # grows by up to about 4 MB
        return tuple([a % self.modulus for a in self.entries])

    def to_json_dict(self) -> dict:
        return {"n": self.modulus, "entries": list(self.entries)}

    def __str__(self):
        return f"[{', '.join(map(str, self.entries))}] (mod {self.modulus})"


def validate(entries, n: int, level: str = "algebraic") -> PolygonTuple:
    """Validate a tuple at the requested level, or raise naming the first
    violated clause."""
    if n < 1:
        raise PreconditionFailed(f"modulus must be positive, got {n}")
    entries = [int(a) for a in entries]
    k = len(entries)

    if level == "geometric":
        if k < 3:
            raise KTooSmall(f"a geometric tuple needs k >= 3, got k={k}")
        for i, a in enumerate(entries):
            if a <= 0 or a >= 2 * n or a == n:
                raise EntryOutOfRange(
                    f"entry a_{i}={a} outside (0, 2n) \\ {{n}} for n={n}")
        if sum(entries) != (k - 2) * n:
            raise SumMismatch(
                f"entries sum to {sum(entries)}, expected (k-2)n = {(k - 2) * n}")
        if gcd(*entries, n) != 1:
            raise GcdNotOne(f"gcd(entries, {n}) = {gcd(*entries, n)}")
        return PolygonTuple(tuple(entries), n, geometric=True)

    if level == "algebraic":
        if k < 2:
            raise KTooSmall(f"an algebraic tuple needs k >= 2, got k={k}")
        for i, a in enumerate(entries):
            if a < 0:
                raise EntryOutOfRange(f"entry a_{i}={a} is negative")
        if sum(entries) % n != 0:
            raise SumMismatch(
                f"entries sum to {sum(entries)}, not divisible by n={n}")
        residues = [a % n for a in entries]
        if not any(residues):
            raise AllZero("all entries vanish mod n")
        if gcd(*entries, n) != 1:
            raise GcdNotOne(f"gcd(entries, {n}) = {gcd(*entries, n)}")
        return PolygonTuple(tuple(residues), n, geometric=False)

    raise ValueError(f"unknown validation level {level!r}")


def scale_associate(t: PolygonTuple, c: int) -> PolygonTuple:
    """Scale every entry by a unit c mod n; the result is the associate
    algebraic tuple in least nonnegative residues."""
    n = t.modulus
    if gcd(c, n) != 1:
        raise CNotUnit(f"c={c} is not a unit mod {n}")
    return validate([(c * a) % n for a in t.entries], n, "algebraic")


def pad_to_geometric(t: PolygonTuple) -> Optional[PolygonTuple]:
    """Add n to leading entries below n until the angle sum reaches (k-2)n.

    Works only when every entry is nonzero mod n and the residue sum is at
    most (k-2)n; returns None otherwise.
    """
    n, k = t.modulus, t.k
    if k < 3:
        return None
    res = list(t.residues())
    if not all(res):
        return None
    s = sum(res)
    need = (k - 2) - s // n
    if need < 0:
        return None
    for i in range(need):
        res[i] += n
    return validate(res, n, "geometric")


def _scaling_unit(a: int, n: int) -> int:
    # smallest unit c mod n with c*a = gcd(a, n) mod n, for 0 < a < n:
    # those c are c = (a/d)^-1 mod n/d, and one of the d lifts is a unit
    d = gcd(a, n)
    c = pow(a // d, -1, n // d)
    while gcd(c, n) != 1:
        c += n // d
    return c


def find_geometric_associate(t: PolygonTuple) -> Optional[PolygonTuple]:
    """A geometric associate of an algebraic tuple, or None.

    When no entry vanishes mod n, scale so the minimum-gcd entry (lowest
    index on ties) becomes its gcd with n, which forces the residue sum under
    (k-2)n, then pad.  A zero entry gives None: every unit multiple keeps
    it, and a geometric entry is never 0 mod n.
    """
    n, k = t.modulus, t.k
    if k < 3:
        raise KTooSmall(f"geometric associates need k >= 3, got k={k}")
    res = t.residues()
    if not all(res):
        return None
    gcds = [gcd(a, n) for a in res]
    idx = gcds.index(min(gcds))
    out = pad_to_geometric(scale_associate(t, _scaling_unit(res[idx], n)))
    if out is None:
        raise AssertionError("minimum-gcd scaling must land under (k-2)n")
    return out


def find_convex_associate(t: PolygonTuple, p: int) -> Optional[PolygonTuple]:
    """A convex geometric associate (all entries strictly between 0 and p)
    of an algebraic tuple modulo a prime p >= k-1 with no zero entries.

    The smallest unit whose scaled residues sum to exactly (k-2)p is used;
    such a unit always exists for k <= 5, but for k >= 6 it can be missing
    ((1,1,1,4,4,4) mod 5 has every scaled sum equal to 3p), in which case
    None is returned.
    """
    if t.modulus != p or not is_prime(p):
        raise PreconditionFailed(f"modulus must equal the prime p, got {t.modulus} vs {p}")
    k = t.k
    if p < k - 1:
        raise PreconditionFailed(f"need p >= k-1, got p={p}, k={k}")
    res = t.residues()
    if not all(res):
        raise PreconditionFailed("every entry must be nonzero mod p")
    target = (k - 2) * p
    for c in range(1, p):
        scaled = [c * a % p for a in res]
        if sum(scaled) == target:
            return validate(scaled, p, "geometric")
    return None


def enumerate_geometric(k: int, n: int) -> Iterator[PolygonTuple]:
    """All geometric k-tuples modulo n, lexicographic."""
    if k < 3:
        return
    top = 2 * n - 1
    # an odometer over entries[:k - 1]: slot i counts up through the values
    # that leave slots i+1..k-1 a reachable sum, rest[i] is the sum slots
    # i..k-1 must make, and the last slot takes what is left
    entries = [0] * k
    rest = [(k - 2) * n] * k
    i = 0
    entries[0] = max(1, rest[0] - (k - 1) * top) - 1
    while i >= 0:
        entries[i] += 1
        if entries[i] == n:
            entries[i] += 1
        if entries[i] >min(top, rest[i] - (k - 1 - i)):
            i -= 1
        elif i < k - 2:
            rest[i + 1] = rest[i] - entries[i]
            i += 1
            entries[i] = max(1, rest[i] - (k - 1 - i) * top) - 1
        else:
            entries[-1] = rest[i] - entries[i]
            if entries[-1] != n and gcd(*entries, n) == 1:
                yield PolygonTuple(tuple(entries), n, geometric=True)


def enumerate_algebraic(k: int, n: int) -> Iterator[PolygonTuple]:
    """All algebraic k-tuples modulo n in least residues, lexicographic.

    The first k-1 coordinates range freely; the last is forced by the sum
    condition, so there are at most n^(k-1) candidates.
    """
    from itertools import product

    if k < 2:
        return
    for head in product(range(n), repeat=k - 1):
        last = -sum(head) % n
        entries = head + (last,)
        if not any(entries):
            continue
        if gcd(*entries, n) != 1:
            continue
        yield PolygonTuple(entries, n, geometric=False)
