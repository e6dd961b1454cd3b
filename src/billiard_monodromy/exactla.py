"""Exact integer linear algebra: circulants, Smith normal form, minor gcds,
and ranks over prime fields.

Matrices are plain lists of rows of Python ints, so every pivot stays exact
no matter how fast the entries grow during the reduction.  The local
elimination mod a prime power (``_local_divisors``) instead packs each row
into one int, a fixed-width field per column, so that one big-int
multiply-add updates a whole row and only pivot rows are reduced.
"""

from dataclasses import dataclass
from itertools import combinations
from math import gcd
import struct

from .errors import CapExceeded, JOutOfRange, PNotPrime
from .numtheory import is_prime, prime_factorization
from .polygon import PolygonTuple

# largest min(rows, cols) that ``smith_normal_form`` reduces: the integer
# Smith normal form and its transforms have no other work bound.  Seeded
# circulants mod 720720, a random a(x) and b(x)(1 + x^(k/2)) + 6c(x), 20
# draws of each per k (200 at k = 12), took at worst 0.04 s at k = 12,
# 0.29 s at k = 16, 3.6 s at k = 20 and 2.9 s at k = 24, and single draws
# at k = 32 up to 92 s, on a shared 2-vCPU host
SNF_DIM_CAP = 16


def identity(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def det(M: list) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if M[i][i] == 0:
            for r in range(i + 1, n):
                if M[r][i]:
                    M[i], M[r] = M[r], M[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                M[r][c] = (M[r][c] * M[i][i] - M[r][i] * M[i][c]) // prev
            M[r][i] = 0
        prev = M[i][i]
    return sign * M[-1][-1]


def circulant(t: PolygonTuple) -> list:
    """The k x k matrix with entry (i, j) = a_{(i-j) mod k}; column j is the
    j-step downward cyclic shift of (a_0, ..., a_{k-1})."""
    a = t.entries
    k = len(a)
    return [[a[(i - j) % k] for j in range(k)] for i in range(k)]


@dataclass(frozen=True)
class SnfResult:
    """Diagonalization A = U * D * V with unimodular U, V.

    ``divisors`` lists the diagonal of D: nonnegative, each dividing the
    next (every integer divides 0, so trailing zeros are fine).
    """

    U: list
    D: list
    V: list
    divisors: tuple


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, u) with g = s*a + u*b and |g| = gcd(a, b)."""
    s0, s1, u0, u1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        u0, u1 = u1, u0 - q * u1
    return a, s0, u0


def _clearing_step(a: int, b: int) -> tuple:
    """A determinant-1 matrix [[s, u], [v, w]] sending (a, b) to (g, 0)."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, s, u = _xgcd(a, b)
    return s, u, -(b // g), a // g


def smith_normal_form(A: list) -> SnfResult:
    """Smith normal form over the integers with both transforms.

    The absolutely smallest nonzero entry of the trailing block is moved to
    the pivot a, and each nonzero entry b under or beside it is cleared by
    one 2 x 2 step of determinant 1: with g = s*a + u*b = gcd(a, b), the
    two rows (or columns) holding a and b are replaced by [[s, u],
    [-b/g, a/g]] times themselves, which leaves g at the pivot and 0 at b.
    When a divides b the plain step (s, u) = (1, 0) is used instead: the
    extended gcd may return u != 0 there (for a negative pivot), which
    would mix the other line back into the pivot's without shrinking it,
    so the passes would never end.  A shrinking pivot can refill its
    cleared column, so the passes repeat; a row addition repairs any entry
    of the block the pivot fails to divide.  U and V absorb the inverse
    steps, so U*D*V equals the input exactly at every step.

    CapExceeded when min(rows, cols) exceeds SNF_DIM_CAP; the divisors
    mod n of a larger matrix come from ``invariant_factors_mod``.
    """
    rows = len(A)
    cols = len(A[0])
    if min(rows, cols) > SNF_DIM_CAP:
        raise CapExceeded(f"Smith normal form of a {rows} x {cols} "
                          f"matrix exceeds SNF_DIM_CAP={SNF_DIM_CAP}")
    D = [[int(x) for x in row] for row in A]
    U = identity(rows)
    V = identity(cols)

    def row_step(t, i, s, u, v, w):
        # D: rows t, i <- [[s, u], [v, w]] * rows t, i;
        # U: columns t, i <- columns t, i * inverse
        Dt, Di = D[t], D[i]
        D[t] = [s * x + u * y for x, y in zip(Dt, Di)]
        D[i] = [v * x + w * y for x, y in zip(Dt, Di)]
        det = s * w - u * v
        for r in U:
            x, y = r[t], r[i]
            r[t], r[i] = det * (w * x - v * y), det * (s * y - u * x)

    def col_step(t, j, s, u, v, w):
        # D: columns t, j <- columns t, j * [[s, v], [u, w]];
        # V: rows t, j <- inverse * rows t, j
        for r in D:
            x, y = r[t], r[j]
            r[t], r[j] = s * x + u * y, v * x + w * y
        det = s * w - u * v
        Vt, Vj = V[t], V[j]
        V[t] = [det * (w * x - v * y) for x, y in zip(Vt, Vj)]
        V[j] = [det * (s * y - u * x) for x, y in zip(Vt, Vj)]

    limit = min(rows, cols)
    for t in range(limit):
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = abs(D[i][j])
                if v and (best is None or v < best):
                    piv, best = (i, j), v
        if piv is None:
            break
        if piv[0] != t:
            row_step(t, piv[0], 0, 1, 1, 0)
        if piv[1] != t:
            col_step(t, piv[1], 0, 1, 1, 0)
        while True:
            for i in range(t + 1, rows):
                if D[i][t]:
                    row_step(t, i, *_clearing_step(D[t][t], D[i][t]))
            for j in range(t + 1, cols):
                if D[t][j]:
                    col_step(t, j, *_clearing_step(D[t][t], D[t][j]))
            if any(D[i][t] for i in range(t + 1, rows)):
                continue
            culprit = next(
                (i for i in range(t + 1, rows)
                 if any(D[i][j] % D[t][t] for j in range(t + 1, cols))),
                None)
            if culprit is None:
                break
            row_step(t, culprit, 1, 1, 0, 1)
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            for r in U:
                r[t] = -r[t]
    # from a list, not a generator: see PolygonTuple.residues
    return SnfResult(U, D, V, tuple([D[i][i] for i in range(limit)]))


# the field widths ``_row_codec`` packs with ``struct``, and their codes
_STRUCT_CODES = {16: "H", 32: "I", 64: "Q"}


def _row_codec(cols: int, w: int) -> tuple:
    """(encode, decode) between cols field values and one int holding
    value j in bits [w*j, w*j + w): ``struct`` at C speed when w is 16, 32
    or 64, shifts and masks when the fields are wider.

    The oracle packs its span vectors the same way with its own code, so
    that the two routes to the group structure share nothing.
    """
    code = _STRUCT_CODES.get(w)
    if code:
        fmt = struct.Struct(f"<{cols}{code}")
        size = fmt.size
        return (lambda xs: int.from_bytes(fmt.pack(*xs), "little"),
                lambda r: fmt.unpack(r.to_bytes(size, "little")))
    field = (1 << w) - 1
    return (lambda xs: sum(x << (w * j) for j, x in enumerate(xs)),
            lambda r: [r >> (w * j) & field for j in range(cols)])


def _local_divisors(A: list, p: int, e: int) -> list:
    """Invariant factors of A over Z/p^eZ: powers p^v, ascending valuation.

    Each row is one int with a w-bit field per column (``_row_codec``); a
    field holds a value congruent to its entry mod q = p^e, reduced only
    when its row becomes a pivot.  Each stage takes a pivot of least p-adic
    valuation v, in the first row whose fields have gcd p^v with q; a row
    at the previous stage's valuation (at the first stage, a unit) ends the
    search.  p^v divides the whole remaining block, so the pivot row alone
    is decoded, divided by p^v and scaled by the inverse of its pivot's
    unit part mod q.  Every other row then takes m * (full - pivot row) in
    one big-int multiply-add, where m is its pivot-column field mod q (a
    multiple of p^v) and ``full`` holds q in every field: that subtracts
    m / p^v times the unit's inverse times the pivot row mod q, and leaves
    the pivot column = 0 mod q.  The pivot row is dropped and the columns
    stay in place; a column = 0 mod q is never chosen again.

    The lazy fields give exact valuations: a field is congruent to its
    entry mod q, and p^j divides q for every j <= e, so its gcd with q is
    p^min(v, e) for the entry's valuation v, as if it were reduced.  Field
    width: a field starts below q, and each stage adds m * (q - y) < q^2 to
    it, at most min(rows, cols) times, so it stays below
    q + min(rows, cols) * q^2; w is the least of 16, 32 and 64 bits that
    holds that bound, or its bit length when it needs more than 64.

    The result equals gcd(d_i, p^e) for the integer SNF divisors d_i of A,
    without their coefficient growth.
    """
    q = p**e
    cols = len(A[0])
    limit = min(len(A), cols)
    need = (q + limit * q * q).bit_length()
    w = next((w for w in _STRUCT_CODES if need <= w), need)
    encode, decode = _row_codec(cols, w)
    field = (1 << w) - 1
    full = encode([q] * cols)
    rows = [encode([x % q for x in row]) for row in A]
    out = []
    pv = 1
    while True:
        best, piv = q, None
        for i, r in enumerate(rows):
            ys = decode(r)
            g = gcd(q, *ys)
            if g < best:
                best, piv, xs = g, i, ys
                if g == pv:
                    break
        if piv is None:
            return out + [q] * (limit - len(out))
        pv = best
        out.append(pv)
        if len(out) == limit:
            return out
        del rows[piv]
        pp = pv * p
        for c, x in enumerate(xs):
            if x % pp:
                break
        inv = pow(xs[c] // pv, -1, q)
        diff = full - encode([x // pv * inv % q for x in xs])
        shift = w * c
        for i, r in enumerate(rows):
            m = (r >> shift & field) % q
            if m:
                rows[i] = r + m * diff


def invariant_factors_mod(A: list, n: int) -> tuple:
    """gcd(d_i, n) for the integer SNF divisors d_i of A, computed one
    prime power p^e of n at a time by ``_local_divisors``, whose packed
    entries stay below a bound fixed by p^e and the size of A."""
    limit = min(len(A), len(A[0]))
    out = [1] * limit
    for p, e in prime_factorization(n).items():
        for i, local in enumerate(_local_divisors(A, p, e)):
            out[i] *= local
    return tuple(out)


def minor_gcd(A: list, j: int) -> int:
    """gcd (>= 0) of the determinants of all j x j minors; 0 if all vanish."""
    rows, cols = len(A), len(A[0])
    if not 1 <= j <= min(rows, cols):
        raise JOutOfRange(f"j={j} outside 1..{min(rows, cols)}")
    g = 0
    for rsub in combinations(range(rows), j):
        for csub in combinations(range(cols), j):
            g = gcd(g, det([[A[r][c] for c in csub] for r in rsub]))
            if g == 1:
                return 1
    return g


def rank_mod_p(A: list, p: int) -> int:
    """Rank of A over F_p by Gaussian elimination."""
    if not is_prime(p):
        raise PNotPrime(f"{p} is not prime")
    M = [[x % p for x in row] for row in A]
    rows, cols = len(M), len(M[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, p)
        M[rank] = [x * inv % p for x in M[rank]]
        for r in range(rows):
            if r != rank and M[r][c]:
                f = M[r][c]
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[rank])]
        rank += 1
        if rank == rows:
            break
    return rank
