"""Free modules over the truncated ring with a Frobenius-semilinear map.

A module of rank h is described by the h x h matrix phi whose column j
holds the coordinates of the image of the j-th basis vector; the map acts
on a coordinate vector by twisting the coordinates first (u -> u^p) and
multiplying by phi afterwards.  The defining condition is that the
cokernel of phi is annihilated by the Eisenstein polynomial E.

Construction is gated two ways.  A normal decomposition certificate
(phi = V * diag(E, ..., E, 1, ..., 1) with V of unit determinant) is
accepted at any p-adic precision n and re-verified by multiplying out.
Without a certificate, the cokernel condition is decidable only at n = 1,
where the coefficient ring k[[u]] is a discrete valuation ring and E = u^e:
phi is accepted iff every exponent of its Smith form is finite and at most
e.  Uncertified constructions at n > 1 are refused rather than trusted.
Smith reduction returns the exponents only: the gate, prop1_classify and
the height h4 (the number of exponents below e) all read them.

Elements with denominators u^t are carried as FractionalElement values in
least-pole-order normal form.  Applying the semilinear map multiplies pole
orders by p, so the u-precision contract is explicit: callers allocate
T >= p * t_max + e (see required_u_precision) and the operations refuse
inputs whose images would be corrupted by truncation.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from .eisenstein import EisensteinPolynomial
from .series import Precision, PrecisionError, TruncatedSeries, frobenius

Matrix = tuple[tuple[TruncatedSeries, ...], ...]


# -- matrix plumbing over the truncated ring ---------------------------------

def mat_identity(prec: Precision, h: int) -> Matrix:
    one = TruncatedSeries.one(prec)
    zero = TruncatedSeries.zero(prec)
    return tuple(
        tuple(one if i == j else zero for j in range(h)) for i in range(h)
    )


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    h, k, w = len(A), len(B), len(B[0])
    return tuple(
        tuple(
            sum((A[i][t] * B[t][j] for t in range(1, k)), A[i][0] * B[0][j])
            for j in range(w)
        )
        for i in range(h)
    )


def mat_vec(A: Matrix, v: tuple[TruncatedSeries, ...]) -> tuple[TruncatedSeries, ...]:
    k = len(v)
    return tuple(
        sum((A[i][t] * v[t] for t in range(1, k)), A[i][0] * v[0])
        for i in range(len(A))
    )


def mat_det(A: Matrix) -> TruncatedSeries:
    """Cofactor-expansion determinant, O(h!); an independent reference, since
    module construction certifies det V by its rank mod p instead."""
    h = len(A)
    if h == 1:
        return A[0][0]
    prec = A[0][0].prec
    total = TruncatedSeries.zero(prec)
    for j in range(h):
        minor = tuple(row[:j] + row[j + 1 :] for row in A[1:])
        term = A[0][j] * mat_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total


def eisenstein_series(E: EisensteinPolynomial, prec: Precision) -> TruncatedSeries:
    """Reduce E into (Z/p^n)[u]/(u^T); requires T > e so the leading term survives."""
    if prec.p != E.p:
        raise ValueError("prime mismatch")
    if prec.T <= E.e:
        raise PrecisionError(f"T = {prec.T} too small to hold a degree-{E.e} polynomial")
    return TruncatedSeries.from_coeffs(prec, list(E.coeffs) + [1])


def required_u_precision(p: int, t_max: int, e: int) -> int:
    """Minimal T so elements with poles up to t_max survive one map application."""
    return p * t_max + e


# -- the module type ----------------------------------------------------------

@dataclass(frozen=True)
class NormalDecomposition:
    """Certificate phi = change_of_basis * diag(E,...,E,1,...,1), d copies of E."""

    d: int
    change_of_basis: Matrix


@dataclass(frozen=True)
class BreuilModule:
    """Free module of rank h over (Z/p^n)[u]/(u^T) with semilinear map phi."""

    prec: Precision
    h: int
    eis: EisensteinPolynomial
    phi: Matrix
    normal_decomp: NormalDecomposition | None = None

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("rank must be >= 1")
        if self.eis.p != self.prec.p:
            raise ValueError("prime mismatch between module and Eisenstein polynomial")
        if len(self.phi) != self.h or any(len(r) != self.h for r in self.phi):
            raise ValueError(f"phi must be {self.h}x{self.h}")
        for row in self.phi:
            for entry in row:
                if entry.prec != self.prec:
                    raise ValueError("phi entries must carry the module precision")
        E_s = eisenstein_series(self.eis, self.prec)
        nd = self.normal_decomp
        if nd is not None:
            if not 0 <= nd.d <= self.h:
                raise ValueError(f"d = {nd.d} out of range [0, {self.h}]")
            V = nd.change_of_basis
            if len(V) != self.h or any(len(r) != self.h for r in V):
                raise ValueError("change_of_basis has wrong shape")
            # det V is a unit iff V(0) is invertible mod p
            p = self.prec.p
            if _rank_mod_p([[x.coeffs[0] % p for x in row] for row in V], p) < self.h:
                raise ValueError("change_of_basis determinant is not a unit")
            expect = tuple(
                tuple(V[i][j] * E_s if j < nd.d else V[i][j] for j in range(self.h))
                for i in range(self.h)
            )
            if expect != self.phi:
                raise ValueError("normal decomposition certificate does not reproduce phi")
        elif self.prec.n == 1:
            # E = u^e over k[[u]]: the cokernel is killed by E iff every Smith
            # exponent of phi is finite and at most e
            v = prop1_classify(self.phi)
            if not (v.closed_embedding and v.min_u_annihilator <= self.eis.e):
                raise ValueError("cokernel of phi is not annihilated by E (at precision T)")
        else:
            raise ValueError(
                "n > 1 module without a normal decomposition certificate; "
                "general solvability is not available over this ring"
            )


# -- fractional elements and the semilinear map -------------------------------

@dataclass(frozen=True)
class FractionalElement:
    """x = sum_i (alphas[i] / u^pole) e_i with denominator u^pole.

    Equality is representation equality, so compare values built through
    fractional(), which strips common u-powers down to the least pole.
    (The direct constructor keeps the stated pole: membership hypotheses
    are phrased at a fixed pole order.)  Dividing out u-powers fills the
    vacated top coefficients with zeros, which is exact whenever the
    caller respects the T >= p*t_max + e allocation contract."""

    pole: int
    alphas: tuple[TruncatedSeries, ...]

    def __post_init__(self):
        if self.pole < 0:
            raise ValueError("pole order must be >= 0")
        if not self.alphas:
            raise ValueError("empty coordinate vector")
        prec = self.alphas[0].prec
        if any(a.prec != prec for a in self.alphas):
            raise ValueError("mixed precisions in coordinate vector")
        if self.pole > prec.T:
            raise PrecisionError(f"pole {self.pole} exceeds u-precision {prec.T}")

    def is_zero(self) -> bool:
        return all(a.is_zero() for a in self.alphas)


def fractional(pole: int, alphas) -> FractionalElement:
    """Normalizing constructor: strips common u-divisibility from the pole."""
    alphas = tuple(alphas)
    if all(a.is_zero() for a in alphas):
        return FractionalElement(0, tuple(TruncatedSeries.zero(a.prec) for a in alphas))
    g = min(a.ord_u() for a in alphas if not a.is_zero())
    strip = min(pole, g)
    if strip:
        alphas = tuple(a.shift_down(strip) for a in alphas)
    return FractionalElement(pole - strip, alphas)


def apply_phi(M: BreuilModule, x: FractionalElement) -> FractionalElement:
    """Image of x: coordinates are twisted (u -> u^p), the pole becomes p*pole,
    then the matrix acts; the result is renormalized to least pole order."""
    if len(x.alphas) != M.h:
        raise ValueError(f"expected {M.h} coordinates, got {len(x.alphas)}")
    if x.is_zero():
        return fractional(0, (TruncatedSeries.zero(M.prec),) * M.h)
    p, T = M.prec.p, M.prec.T
    if p * x.pole > T:
        raise PrecisionError(
            f"pole {x.pole} maps to {p * x.pole} > T = {T}; "
            f"allocate T >= {required_u_precision(p, x.pole, M.eis.e)}"
        )
    alpha_deg = max((a.degree() or 0) for a in x.alphas)
    phi_deg = max((entry.degree() or 0) for row in M.phi for entry in row)
    if p * alpha_deg + phi_deg >= T:
        raise PrecisionError(
            f"numerator support would truncate: p*{alpha_deg} + {phi_deg} >= T = {T}"
        )
    twisted = tuple(frobenius(a) for a in x.alphas)
    nums = mat_vec(M.phi, twisted)
    return fractional(p * x.pole, nums)


# -- order and heights ---------------------------------------------------------

def order(M: BreuilModule) -> int:
    """Length of the module over the local ring at p: n * h for free modules."""
    return M.prec.n * M.h


def h3(M: BreuilModule) -> int:
    """Minimal number of generators: the rank, by Nakayama, for free modules."""
    return M.h


def h4(M: BreuilModule) -> int:
    """Minimal number of generators of im(phi)/(E * M), for n = 1 modules.

    At n = 1 the ideal (E) equals (u^e), and phi has Smith form
    diag(u^a_1, ..., u^a_h) with every a_i <= e, so the quotient is the sum
    of the u^(a_i) S / u^e S and needs one generator per a_i < e."""
    if M.prec.n != 1:
        raise ValueError("h4 is computed for n = 1 modules only")
    e = M.eis.e
    if M.prec.T <= 2 * e:
        raise PrecisionError(f"T = {M.prec.T} too small: need T > 2e = {2 * e}")
    return sum(a is not None and a < e for a in snf_mod_uT(M.phi))


def _rank_mod_p(vectors, p: int) -> int:
    rows = [list(v) for v in vectors if any(v)]
    rank, col, width = 0, 0, (len(rows[0]) if rows else 0)
    while rank < len(rows) and col < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- Smith reduction over k[u]/(u^T) (n = 1) -----------------------------------

def snf_mod_uT(A: Matrix) -> tuple[int | None, ...]:
    """Smith exponents of a matrix over k[u]/(u^T), in increasing order.

    Entry i is a when the i-th diagonal entry of the Smith form is a unit
    times u^a, and None when it vanishes at precision T.  k[[u]] is a
    discrete valuation ring, so an entry of minimal u-order divides every
    remaining entry.  A pivot v * u^a (v a unit) clears every other row
    division-free: row_i <- v * row_i - g * row_pivot, where g * u^a is the
    entry of row_i in the pivot column.  The column operations that would
    clear the pivot's row leave the remaining block unchanged, so they are
    skipped, and the pivot's row and column are dropped."""
    if not A or not A[0]:
        raise ValueError("empty matrix")
    if A[0][0].prec.n != 1:
        raise ValueError("Smith reduction requires n = 1 (k[[u]] is a DVR)")
    size = min(len(A), len(A[0]))
    block = [list(r) for r in A]
    exps: list[int] = []
    while block and block[0]:
        orders = [
            (o, i, j)
            for i, row in enumerate(block)
            for j, x in enumerate(row)
            if (o := x.ord_u()) is not None
        ]
        if not orders:
            break
        a, pi, pj = min(orders)
        pivot_row = block.pop(pi)
        v = pivot_row.pop(pj).shift_down(a)
        for i, row in enumerate(block):
            g = row.pop(pj)
            if not g.is_zero():
                g = g.shift_down(a)
                block[i] = [v * x - g * y for x, y in zip(row, pivot_row)]
        exps.append(a)
    return tuple(exps) + (None,) * (size - len(exps))


@dataclass(frozen=True)
class Prop1Verdict:
    """Generic-fiber classification of a map of n = 1 modules given by its
    matrix (columns: images of the source basis in the target basis).

    closed_embedding: the cokernel is killed by a u-power.  epimorphism: the
    matrix is injective.  Both verdicts are certified at u-precision T only;
    a diagonal entry vanishing at precision could be a unit times u^(>=T)."""

    closed_embedding: bool
    epimorphism: bool
    min_u_annihilator: int | None
    u_precision: int


def prop1_classify(g: Matrix) -> Prop1Verdict:
    """Classify a module map via Smith reduction of its matrix."""
    rows, cols = len(g), len(g[0])
    finite = [a for a in snf_mod_uT(g) if a is not None]
    coker_killed = len(finite) == rows
    mono = len(finite) == cols
    return Prop1Verdict(
        closed_embedding=coker_killed,
        epimorphism=mono,
        min_u_annihilator=max(finite, default=0) if coker_killed else None,
        u_precision=g[0][0].prec.T,
    )


# -- inclusion tests and the rank-1 identity -----------------------------------

def verify_inclusion_p_s(M: BreuilModule, gens, s: int) -> bool:
    """Whether p^s * g lies in M for every generator g of N = M + sum g*S.

    N is described by generators with denominators over M's basis; membership
    in M means the scaled numerators are all divisible by u^pole."""
    if s < 0:
        raise ValueError("s must be >= 0")
    scale = M.prec.p**s
    for g in gens:
        if len(g.alphas) != M.h:
            raise ValueError(f"generator has {len(g.alphas)} coordinates, expected {M.h}")
        for a in g.alphas:
            if a.prec != M.prec:
                raise ValueError("generator precision does not match the module")
            if not a.scale(scale).in_ideal(g.pole):
                return False
    return True


def example3_identity(p: int, n: int) -> TruncatedSeries:
    """The exact product (u^p - p) * twist(p^{n-1} + p^{n-2}u + ... + u^{n-1}).

    Computed at precision (n+1, pn+1) where nothing truncates, verified to
    telescope to u^(pn) - p^n, and returned."""
    if n < 1:
        raise ValueError("n must be >= 1")
    prec = Precision(p, n + 1, p * n + 1)
    E = TruncatedSeries.from_coeffs(prec, [-p] + [0] * (p - 1) + [1])
    C = TruncatedSeries.from_coeffs(prec, [p ** (n - i) for i in range(1, n + 1)])
    lhs = E * frobenius(C)
    rhs = TruncatedSeries.monomial(prec, p * n) + TruncatedSeries.from_coeffs(
        prec, [-(p**n)]
    )
    if lhs != rhs:
        raise AssertionError(f"cascade identity failed at (p, n) = ({p}, {n})")
    return lhs


def example3_module(p: int, n: int) -> tuple[BreuilModule, FractionalElement]:
    """The rank-1 module with phi(e_1) = u^p - p over (Z/p^n)[u]/(u^T), plus
    the pole-n generator whose numerator is p^{n-1} + p^{n-2}u + ... + u^{n-1}."""
    prec = Precision(p, n, required_u_precision(p, n, p) + 1)
    eis = EisensteinPolynomial(p, (-p,) + (0,) * (p - 1))
    V = mat_identity(prec, 1)
    M = BreuilModule(
        prec=prec, h=1, eis=eis,
        phi=((eisenstein_series(eis, prec),),),
        normal_decomp=NormalDecomposition(d=1, change_of_basis=V),
    )
    num = TruncatedSeries.from_coeffs(prec, [p ** (n - i) for i in range(1, n + 1)])
    return M, FractionalElement(pole=n, alphas=(num,))


# -- seeded constructions -------------------------------------------------------

def build_bt_module(
    prec: Precision,
    eis: EisensteinPolynomial,
    d: int,
    h: int,
    seed: int,
    max_entry_degree: int | None = None,
) -> BreuilModule:
    """Module with a normal decomposition: phi = V * diag(E,...,E,1,...,1),
    V a seeded pseudorandom product of elementary matrices and a unit diagonal."""
    if not 0 <= d <= h:
        raise ValueError(f"d = {d} out of range [0, {h}]")
    E_s = eisenstein_series(eis, prec)
    rng = random.Random(seed)
    deg_cap = eis.e if max_entry_degree is None else max_entry_degree
    V = [list(row) for row in mat_identity(prec, h)]

    def sparse_series(unit_constant=False):
        cs = [0] * prec.T
        lowest = 0
        if unit_constant:
            cs[0] = rng.randrange(1, prec.p) + prec.p * rng.randrange(
                prec.modulus // prec.p
            )
            lowest = 1
        for _ in range(rng.randint(0, 2)):
            pos = rng.randint(lowest, max(lowest, min(deg_cap, prec.T - 1)))
            cs[pos] = rng.randrange(prec.modulus)
        return TruncatedSeries.from_coeffs(prec, cs)

    for _ in range(2 * h):
        i, j = rng.randrange(h), rng.randrange(h)
        if i == j:
            continue
        f = sparse_series()
        V[i] = [a + f * b for a, b in zip(V[i], V[j])]
    for i in range(h):
        unit = sparse_series(unit_constant=True)
        V[i] = [unit * x for x in V[i]]

    Vm = tuple(tuple(row) for row in V)
    phi = tuple(
        tuple(Vm[i][j] * E_s if j < d else Vm[i][j] for j in range(h))
        for i in range(h)
    )
    return BreuilModule(
        prec=prec, h=h, eis=eis, phi=phi,
        normal_decomp=NormalDecomposition(d=d, change_of_basis=Vm),
    )


def extension_module(M1: BreuilModule, M2: BreuilModule, seed: int) -> BreuilModule:
    """Block-triangular extension of M2 by M1 (M1 sits as a submodule).

    The off-diagonal block is phi_1 * Y for a seeded random Y, which keeps the
    cokernel annihilated by E; at n = 1 the constructor re-verifies that."""
    if M1.prec != M2.prec or M1.eis != M2.eis:
        raise ValueError("extensions need matching precision and Eisenstein data")
    prec = M1.prec
    if prec.n != 1:
        raise ValueError("extensions are built at n = 1, where they are verifiable")
    rng = random.Random(seed)

    def rand_series():
        cs = [rng.randrange(prec.modulus) if rng.random() < 0.5 else 0
              for _ in range(min(M1.eis.e + 1, prec.T))]
        return TruncatedSeries.from_coeffs(prec, cs)

    Y = tuple(tuple(rand_series() for _ in range(M2.h)) for _ in range(M1.h))
    X = mat_mul(M1.phi, Y)
    zero = TruncatedSeries.zero(prec)
    top = tuple(M1.phi[i] + X[i] for i in range(M1.h))
    bottom = tuple((zero,) * M1.h + M2.phi[i] for i in range(M2.h))
    return BreuilModule(prec=prec, h=M1.h + M2.h, eis=M1.eis, phi=top + bottom)


# -- JSON round-trip -------------------------------------------------------------

def module_to_json(M: BreuilModule) -> dict:
    """Plain-data form of a module (matrix of coefficient arrays + header)."""
    out = {
        "p": M.prec.p,
        "n": M.prec.n,
        "T": M.prec.T,
        "h": M.h,
        "eisenstein": list(M.eis.coeffs),
        "phi": [[list(entry.coeffs) for entry in row] for row in M.phi],
    }
    if M.normal_decomp is not None:
        out["normal_decomp"] = {
            "d": M.normal_decomp.d,
            "change_of_basis": [
                [list(entry.coeffs) for entry in row]
                for row in M.normal_decomp.change_of_basis
            ],
        }
    return out


def _file_int(x) -> int:
    """An integer field of a module file: a JSON integer or a string of
    decimal digits.  Floats, booleans and other text are malformed rather
    than truncated."""
    if isinstance(x, bool) or not (
        isinstance(x, int) or isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x)
    ):
        raise ValueError(f"malformed module file: {x!r} is not an integer")
    return int(x)


def _file_list(x) -> list:
    """A list field of a module file.  Text is malformed rather than read
    character by character."""
    if not isinstance(x, list):
        raise ValueError(f"malformed module file: {x!r} is not a list")
    return x


def _file_matrix(prec: Precision, rows) -> tuple:
    """A matrix of series: a list of rows, each a list of coefficient lists."""
    return tuple(
        tuple(TruncatedSeries.from_coeffs(prec, [_file_int(c) for c in _file_list(entry)])
              for entry in _file_list(row))
        for row in _file_list(rows)
    )


def module_from_json(data: dict) -> BreuilModule:
    """Inverse of module_to_json; accepts integers serialized as strings.

    A missing key, an entry of the wrong shape, a row or entry that is not
    a list, or a number that is not an integer raises ValueError."""
    try:
        prec = Precision(_file_int(data["p"]), _file_int(data["n"]), _file_int(data["T"]))
        h = _file_int(data["h"])
        eis = EisensteinPolynomial(
            prec.p, tuple(_file_int(c) for c in _file_list(data["eisenstein"])))
        phi = _file_matrix(prec, data["phi"])
        nd = None
        if data.get("normal_decomp") is not None:
            raw = data["normal_decomp"]
            nd = NormalDecomposition(
                d=_file_int(raw["d"]),
                change_of_basis=_file_matrix(prec, raw["change_of_basis"]),
            )
    except (KeyError, TypeError, IndexError) as err:
        raise ValueError(f"malformed module file: {err!r}") from None
    return BreuilModule(prec=prec, h=h, eis=eis, phi=phi, normal_decomp=nd)
