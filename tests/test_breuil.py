"""Module construction gates, the semilinear map, Smith reduction, heights,
and the inclusion exponents on the cascade family."""

import json
import random
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
import reference

from ramibound import breuil, suites
from ramibound.breuil import (
    BreuilModule,
    FractionalElement,
    NormalDecomposition,
    apply_phi,
    build_bt_module,
    eisenstein_series,
    example3_identity,
    example3_module,
    extension_module,
    fractional,
    h3,
    h4,
    mat_identity,
    mat_mul,
    module_from_json,
    module_to_json,
    order,
    prop1_classify,
    required_u_precision,
    snf_mod_uT,
    verify_inclusion_p_s,
)
from ramibound.eisenstein import EisensteinPolynomial
from ramibound.series import (
    Precision,
    PrecisionError,
    PrecisionMismatchError,
    TruncatedSeries,
    dot,
    frobenius,
)


def S(prec, *coeffs):
    return TruncatedSeries.from_coeffs(prec, list(coeffs))


def rank1_module(p, n, T, eis, a=None):
    prec = Precision(p, n, T)
    E_s = eisenstein_series(eis, prec)
    if a is None:
        phi = ((E_s,),)
        nd = NormalDecomposition(1, mat_identity(prec, 1))
    else:
        phi = ((TruncatedSeries.monomial(prec, a),),)
        nd = None
    return BreuilModule(prec=prec, eis=eis, phi=phi, normal_decomp=nd)


E22 = EisensteinPolynomial(2, (-2, 0))


# -- construction gates -----------------------------------------------------------

def test_build_examples():
    prec = Precision(2, 2, 8)
    eis = EisensteinPolynomial(2, (2, 2))
    one, zero = TruncatedSeries.one(prec), TruncatedSeries.zero(prec)
    # etale line: phi = (1)
    M = BreuilModule(prec=prec, eis=eis, phi=((one,),),
                     normal_decomp=NormalDecomposition(0, mat_identity(prec, 1)))
    assert M.phi[0][0] == one
    # multiplicative line: phi = (E)
    M = rank1_module(2, 2, 8, E22)
    assert M.phi[0][0] == S(prec, 2, 0, 1)
    del zero


def test_seeded_build_recovers_d_from_phi_mod_p_u():
    # rank of phi mod (p, u) equals h - d; over k[u]/(u) the rank is the
    # number of finite Smith exponents
    for seed in range(12):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        h = rng.randint(1, 3)
        d = rng.randint(0, h)
        eis = EisensteinPolynomial(p, (p, p) + (0,) * rng.randint(0, 2))
        M = build_bt_module(Precision(p, rng.randint(1, 2), 24), eis, d=d, h=h, seed=seed)
        residue = tuple(
            tuple(TruncatedSeries.from_coeffs(Precision(p, 1, 1), [entry.coeffs[0]])
                  for entry in row) for row in M.phi
        )
        assert sum(a is not None for a in snf_mod_uT(residue)) == h - d


def test_uncertified_n2_construction_is_refused():
    prec = Precision(2, 2, 8)
    E_s = eisenstein_series(E22, prec)
    with pytest.raises(ValueError, match="certificate"):
        BreuilModule(prec=prec, eis=E22, phi=((E_s,),))


def test_bad_certificate_is_refused():
    prec = Precision(2, 2, 8)
    one = TruncatedSeries.one(prec)
    with pytest.raises(ValueError, match="reproduce"):
        BreuilModule(prec=prec, eis=E22, phi=((one,),),
                     normal_decomp=NormalDecomposition(1, mat_identity(prec, 1)))


P5, P6 = Precision(2, 1, 5), Precision(2, 1, 6)
ONE5, ONE6 = TruncatedSeries.one(P5), TruncatedSeries.one(P6)


def M5():
    return rank1_module(2, 1, 5, E22)


@pytest.mark.parametrize("call, error, message", [
    (lambda: eisenstein_series(E22, Precision(3, 1, 5)), ValueError, "prime mismatch"),
    (lambda: eisenstein_series(E22, Precision(2, 1, 2)), PrecisionError,
     "T = 2 too small to hold a degree-2 polynomial"),
    (lambda: BreuilModule(prec=P5, eis=E22, phi=()), ValueError, "rank must be >= 1"),
    (lambda: BreuilModule(prec=Precision(3, 1, 5), eis=E22,
                          phi=((TruncatedSeries.one(Precision(3, 1, 5)),),)),
     ValueError, "prime mismatch between module and Eisenstein polynomial"),
    (lambda: BreuilModule(prec=P5, eis=E22, phi=((ONE5, ONE5),)), ValueError,
     "phi must be 1x1"),
    (lambda: BreuilModule(prec=P5, eis=E22, phi=((ONE6,),)), ValueError,
     "phi entries must carry the module precision"),
    (lambda: BreuilModule(prec=P5, eis=E22, phi=((ONE5,),),
                          normal_decomp=NormalDecomposition(2, mat_identity(P5, 1))),
     ValueError, "d = 2 out of range [0, 1]"),
    (lambda: BreuilModule(prec=P5, eis=E22, phi=((ONE5,),),
                          normal_decomp=NormalDecomposition(1, ())),
     ValueError, "change_of_basis has wrong shape"),
    (lambda: FractionalElement(-1, (ONE5,)), ValueError, "pole order must be >= 0"),
    (lambda: FractionalElement(0, ()), ValueError, "empty coordinate vector"),
    (lambda: FractionalElement(0, (ONE5, ONE6)), ValueError,
     "mixed precisions in coordinate vector"),
    (lambda: FractionalElement(6, (ONE5,)), PrecisionError, "pole 6 exceeds u-precision 5"),
    (lambda: apply_phi(M5(), FractionalElement(0, (ONE5, ONE5))), ValueError,
     "expected 1 coordinates, got 2"),
    (lambda: snf_mod_uT(()), ValueError, "empty matrix"),
    (lambda: verify_inclusion_p_s(M5(), [], -1), ValueError, "s must be >= 0"),
    (lambda: verify_inclusion_p_s(M5(), [FractionalElement(0, (ONE5, ONE5))], 0), ValueError,
     "generator has 2 coordinates, expected 1"),
    (lambda: verify_inclusion_p_s(M5(), [FractionalElement(0, (ONE6,))], 0), ValueError,
     "generator precision does not match the module"),
    (lambda: example3_identity(2, 0), ValueError, "n must be >= 1"),
    (lambda: build_bt_module(P5, E22, 3, 2, seed=0), ValueError, "d = 3 out of range [0, 2]"),
    (lambda: extension_module(M5(), rank1_module(2, 1, 6, E22), 0), ValueError,
     "extensions need matching precision and Eisenstein data"),
    (lambda: extension_module(rank1_module(2, 2, 5, E22), rank1_module(2, 2, 5, E22), 0),
     ValueError, "n > 1 module without a normal decomposition certificate; "
     "general solvability is not available over this ring"),
], ids=["series-prime", "series-short-T", "module-rank-0", "module-prime",
        "module-phi-shape", "module-phi-precision", "module-d-range", "module-basis-shape",
        "pole-negative", "no-coordinates", "mixed-precisions", "pole-past-T",
        "apply-phi-coordinates", "snf-empty", "inclusion-negative-s",
        "inclusion-coordinates", "inclusion-precision", "example3-n0", "bt-d-range",
        "extension-mismatch", "extension-n2"])
def test_refusals_raise_their_documented_message(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


def test_det_unit_certificate_agrees_with_mat_det():
    # construction certifies det V by the charpoly of V(0) mod p; the gate's
    # accept/refuse verdict is compared with the cofactor determinant, on
    # matrices singular mod p as well
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        p, n, h = rng.choice([2, 3, 5]), rng.randint(1, 3), rng.randint(1, 4)
        prec = Precision(p, n, 6)
        V = [[TruncatedSeries.from_coeffs(prec, [rng.randrange(p**n) for _ in range(3)])
              for _ in range(h)] for _ in range(h)]
        if seed % 3 == 0:
            V[0] = [x.scale(p) for x in V[0]]
        elif seed % 3 == 1 and h > 1:
            V[-1] = list(V[0])
        V = tuple(tuple(row) for row in V)
        unit = breuil.mat_det(V).coeffs[0] % p != 0
        seen.add(unit)

        eis = EisensteinPolynomial(p, (p, 0))
        E_s = eisenstein_series(eis, prec)
        d = rng.randint(0, h)
        phi = tuple(tuple(V[i][j] * E_s if j < d else V[i][j] for j in range(h))
                    for i in range(h))
        cert = NormalDecomposition(d, V)
        if unit:
            BreuilModule(prec=prec, eis=eis, phi=phi, normal_decomp=cert)
        else:
            with pytest.raises(ValueError, match="not a unit"):
                BreuilModule(prec=prec, eis=eis, phi=phi, normal_decomp=cert)
    assert seen == {True, False}


def test_det_unit_gate_agrees_with_cofactors_up_to_rank_8():
    # the gate reads charpoly_mod(V(0), p); cofactors are the independent route,
    # at every rank a module file may hold, singular V(0) included
    seen = set()
    for seed in range(120):
        rng = random.Random(seed)
        p, h = rng.choice([2, 3, 5]), rng.randint(1, 8)
        prec = Precision(p, 1, 4)
        V0 = [[rng.randrange(p) for _ in range(h)] for _ in range(h)]
        if seed % 2 and h > 1:
            V0[-1] = list(V0[0])
        V = tuple(tuple(TruncatedSeries.from_coeffs(prec, [c, rng.randrange(p)]) for c in row)
                  for row in V0)
        unit = reference.charpoly_by_cofactors(V0)[0] % p != 0
        seen.add(unit)
        eis = EisensteinPolynomial(p, (p, 0))
        E_s = eisenstein_series(eis, prec)
        d = rng.randint(0, h)
        phi = tuple(tuple(V[i][j] * E_s if j < d else V[i][j] for j in range(h))
                    for i in range(h))
        cert = NormalDecomposition(d, V)
        if unit:
            BreuilModule(prec=prec, eis=eis, phi=phi, normal_decomp=cert)
        else:
            with pytest.raises(ValueError, match="not a unit"):
                BreuilModule(prec=prec, eis=eis, phi=phi, normal_decomp=cert)
    assert seen == {True, False}


def test_derived_rank_and_closed_embedding_match_their_definitions():
    # closed_embedding holds exactly when every row gets a finite Smith exponent
    rng = random.Random("derived-closed-embedding")
    seen = set()
    for _ in range(200):
        p = rng.choice([2, 3])
        prec = Precision(p, 1, rng.randint(2, 8))
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        g = tuple(tuple(TruncatedSeries.from_coeffs(
            prec, [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(prec.T)])
            for _ in range(cols)) for _ in range(rows))
        finite = sum(a is not None for a in snf_mod_uT(g))
        assert prop1_classify(g).closed_embedding == (finite == rows)
        seen.add(finite == rows)
    assert seen == {True, False}
    # the rank is the size of phi: seeded builds, their extensions and file loads
    for seed in range(20):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        prec = Precision(p, 1, 20)
        eis = EisensteinPolynomial(p, (p, p))
        hs = [rng.randint(1, 3), rng.randint(1, 3)]
        M1, M2 = (build_bt_module(prec, eis, d=rng.randint(0, h), h=h, seed=seed + k,
                                  max_entry_degree=2) for k, h in enumerate(hs))
        ext = extension_module(M1, M2, seed=seed)
        assert (M1.h, M2.h, ext.h) == (hs[0], hs[1], sum(hs)) == tuple(
            len(M.phi) for M in (M1, M2, ext))
        assert module_from_json(module_to_json(ext)).h == sum(hs)


def test_n1_cokernel_gate():
    # phi = (u^a) has cokernel killed by E = u^e exactly when a <= e
    prec = Precision(2, 1, 8)
    rank1_module(2, 1, 8, E22, a=2)
    with pytest.raises(ValueError, match="annihilated"):
        rank1_module(2, 1, 8, E22, a=3)
    del prec


@pytest.mark.parametrize("p,T", [(2, 4), (3, 3)])
def test_cokernel_gate_matches_brute_force_span(p, T):
    # n = 1, rank 2 over F_p[u]/(u^T) with E = u^2: the constructor reads the
    # Smith exponents; the reference tries every x with phi x = E e_i
    prec = Precision(p, 1, T)
    eis = EisensteinPolynomial(p, (p, 0))
    E_s = eisenstein_series(eis, prec)

    zero = (0,) * T
    targets = [(tuple(E_s.coeffs), zero), (zero, tuple(E_s.coeffs))]
    xs = list(product(product(range(p), repeat=T), repeat=2))
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        A = [[[rng.randrange(p) for _ in range(T)] for _ in range(2)] for _ in range(2)]
        images = {tuple(tuple(reference.schoolbook_dot(p, T, row, x)) for row in A) for x in xs}
        brute = all(t in images for t in targets)
        phi = tuple(tuple(TruncatedSeries.from_coeffs(prec, a) for a in row) for row in A)
        try:
            BreuilModule(prec=prec, eis=eis, phi=phi)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == brute
        seen.add(brute)
    assert seen == {True, False}


def test_seeded_builds_have_unit_change_of_basis():
    # one unit per row of V keeps det V a unit at every odd prime too
    for p, n in product([3, 5, 7], [1, 2]):
        eis = EisensteinPolynomial(p, (p, 0))
        for seed in range(60):
            h = 1 + seed % 5
            build_bt_module(Precision(p, n, 8), eis, d=seed % (h + 1), h=h, seed=seed)


# -- matrix products over the truncated ring ------------------------------------------

def coefficients(A):
    return [[list(x.coeffs) for x in row] for row in A]


def random_matrix(rng, prec, rows, cols):
    """Seeded entries: zero, all-(q - 1), sparse or dense."""
    q, T = prec.modulus, prec.T

    def entry():
        kind = rng.choice(["zero", "top", "sparse", "dense"])
        if kind == "zero":
            return TruncatedSeries.zero(prec)
        if kind == "top":
            return TruncatedSeries(prec, (q - 1,) * T)
        cs = [0] * T
        for i in (rng.sample(range(T), 2) if kind == "sparse" else range(T)):
            cs[i] = rng.randrange(q)
        return TruncatedSeries(prec, tuple(cs))

    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("p, n", [(2, 8), (3, 3), (7, 4)])
@pytest.mark.parametrize("T", [11, 40, 200])
def test_dot_rows_and_mat_mul_match_schoolbook_sums(p, n, T):
    prec = Precision(p, n, T)
    q = prec.modulus
    rng = random.Random(f"mat-{p}-{n}-{T}")
    top = TruncatedSeries(prec, (q - 1,) * T)

    def check(A, B):
        a, b = coefficients(A), coefficients(B)
        assert coefficients(mat_mul(A, B)) == [
            [reference.schoolbook_dot(q, T, row, col) for col in zip(*b)] for row in a]
        v = [x[0] for x in B]
        assert [list(dot(row, v).coeffs) for row in A] == [
            reference.schoolbook_dot(q, T, row, [x[0] for x in b]) for row in a]

    for h in range(1, 5):
        check(random_matrix(rng, prec, h, h), random_matrix(rng, prec, h, h))
        check(((top,) * h,) * h, ((top,) * h,) * h)
    # rectangular shapes, as an extension's off-diagonal block has
    check(random_matrix(rng, prec, 2, 3), random_matrix(rng, prec, 3, 1))


# -- the semilinear map -------------------------------------------------------------

def reference_image(M, x):
    """apply_phi(M, x) by reference.apply_phi, on coefficient lists."""
    prec = M.prec
    pole, nums = reference.apply_phi(prec.p, prec.modulus, prec.T, coefficients(M.phi),
                                     x.pole, [a.coeffs for a in x.alphas])
    return FractionalElement(pole, tuple(TruncatedSeries(prec, tuple(cs)) for cs in nums))


def sampled_elements(rng, M, count):
    """Elements of pole 1 or 2 whose numerators the map does not truncate."""
    prec = M.prec
    cap = (prec.T - 1 - M.phi_degree) // prec.p
    for _ in range(count):
        alphas = []
        for _ in range(M.h):
            cs = [0] * prec.T
            for _ in range(rng.randint(1, 3)):
                cs[rng.randint(0, cap)] = rng.randrange(prec.modulus)
            alphas.append(TruncatedSeries(prec, tuple(cs)))
        yield FractionalElement(pole=rng.randint(1, 2), alphas=tuple(alphas))


def test_apply_phi_matches_the_reference():
    rng = random.Random("apply-phi-reference")
    modules = []
    # lemma1: the suite's seeded modules, T = 40 and widened past p = 13
    for p, n in [(2, 1), (2, 3), (3, 2), (5, 2), (13, 1), (17, 2), (23, 1)]:
        modules += [suites._seeded_module(rng, p, rng.randint(1, n))[0] for _ in range(6)]
    # lemma2 and example3: the rank-1 cascade module with its own generator
    for p in (2, 3, 5):
        for level in range(1, 5):
            M, gen = example3_module(p, level)
            assert apply_phi(M, gen) == reference_image(M, gen)
            modules.append(M)
    # heights: block-triangular extensions of rank up to 4
    for k in range(6):
        prec = Precision(2 + k % 2, 1, 40)
        eis = EisensteinPolynomial(prec.p, (prec.p, prec.p))
        M1 = build_bt_module(prec, eis, d=k % 2, h=1 + k % 2, seed=k, max_entry_degree=2)
        M2 = build_bt_module(prec, eis, d=1, h=2, seed=k + 10, max_entry_degree=2)
        modules.append(extension_module(M1, M2, seed=k))
    # row slots past 64 bits, as lemma1 reaches at p = 13, n = 10
    M = build_bt_module(Precision(13, 10, 40), EisensteinPolynomial(13, (13, 13)), d=1, h=3,
                        seed=7)
    assert M.phi_packed[0] == 81
    modules.append(M)
    for M in modules:
        for x in sampled_elements(rng, M, 4):
            assert apply_phi(M, x) == reference_image(M, x)


def largest_entry_degree(phi):
    # the highest index of a nonzero coefficient, over every entry
    return max(max((i for i, c in enumerate(x.coeffs) if c), default=0)
               for row in phi for x in row)


def test_phi_degree_is_the_largest_entry_degree():
    builds = []
    for seed in range(12):
        p = 2 + seed % 2
        prec = Precision(p, 1 + seed % 3, 40)
        eis = EisensteinPolynomial(p, (p, p) + (0,) * (seed % 3))
        h = 1 + seed % 4
        builds.append(build_bt_module(prec, eis, d=seed % (h + 1), h=h, seed=seed,
                                      max_entry_degree=2 + seed % 3))
    modules = [rank1_module(2, 1, 12, E22, a) for a in range(3)] + builds
    modules += [module_from_json(module_to_json(M)) for M in builds]
    modules += [extension_module(M, M, seed=7) for M in builds if M.prec.n == 1]
    modules += [example3_module(p, n)[0] for p in (2, 3, 5) for n in range(1, 5)]
    golden = Path(__file__).parent / "golden" / "modules" / "extension_n1.json"
    modules.append(module_from_json(json.loads(golden.read_text())))
    for M in modules:
        assert M.phi_degree == largest_entry_degree(M.phi)
        assert "phi_degree" in vars(M)  # read once, then kept on the module
    assert modules[0].phi_degree == 0  # phi = 1
    assert len({M.phi_degree for M in modules}) >= 5
    # no module has phi = 0, so the convention is read off the definition
    zero = TruncatedSeries.zero(Precision(2, 1, 8))
    assert BreuilModule.phi_degree.func(SimpleNamespace(phi=((zero, zero), (zero, zero)))) == 0


@pytest.mark.parametrize("p, eis", [(2, E22), (3, EisensteinPolynomial(3, (3, 0)))])
def test_apply_phi_truncation_guard_fires_exactly_at_T(p, eis):
    T = 13
    raised, passed = set(), set()
    for a in range(eis.e + 1):  # phi = u^a at n = 1
        M = rank1_module(p, 1, T, eis, a)
        assert M.phi_degree == a
        for k in range(T):
            x = FractionalElement(pole=1, alphas=(TruncatedSeries.monomial(M.prec, k),))
            if p * k + a >= T:
                with pytest.raises(PrecisionError, match="numerator support would truncate"):
                    apply_phi(M, x)
                raised.add(p * k + a)
            else:
                assert apply_phi(M, x) == reference_image(M, x)
                passed.add(p * k + a)
    assert T in raised and T - 1 in passed


def test_apply_phi_examples():
    M = rank1_module(2, 2, 12, E22)
    prec = M.prec
    one = TruncatedSeries.one(prec)
    # basis image: phi(e_1) = E with pole 0
    y = apply_phi(M, FractionalElement(pole=0, alphas=(one,)))
    assert y.pole == 0 and y.alphas[0] == S(prec, 2, 0, 1)
    # (1/u) e_1 maps to (u^2 - 2)/u^2
    y = apply_phi(M, FractionalElement(pole=1, alphas=(one,)))
    assert y.pole == 2 and y.alphas[0] == S(prec, 2, 0, 1)
    # zero maps to zero
    y = apply_phi(M, FractionalElement(pole=1, alphas=(TruncatedSeries.zero(prec),)))
    assert y.pole == 0 and y.is_zero()


@pytest.mark.parametrize("coeffs", [(1, 1), ()], ids=["nonzero", "zero"])
def test_apply_phi_checks_the_coordinates_precision(coeffs):
    # an equal but distinct Precision is accepted, another one refused, also
    # when the element is zero: the check runs before the zero test
    M = rank1_module(2, 2, 12, E22)
    image = apply_phi(M, FractionalElement(pole=1, alphas=(S(M.prec, *coeffs),)))
    twin = Precision(2, 2, 12)
    assert twin == M.prec and twin is not M.prec
    assert apply_phi(M, FractionalElement(pole=1, alphas=(S(twin, *coeffs),))) == image
    for other in (Precision(2, 3, 12), Precision(2, 2, 13), Precision(3, 2, 12)):
        with pytest.raises(PrecisionMismatchError):
            apply_phi(M, FractionalElement(pole=1, alphas=(S(other, *coeffs),)))


def test_apply_phi_precision_guard():
    M = rank1_module(2, 2, 8, E22)
    x = FractionalElement(pole=5, alphas=(TruncatedSeries.one(M.prec),))
    with pytest.raises(PrecisionError):
        apply_phi(M, x)
    assert required_u_precision(2, 5, 2) == 12


def test_fractional_normalization():
    prec = Precision(2, 2, 8)
    x = fractional(3, (S(prec, 0, 0, 2), S(prec, 0, 0, 0, 1)))
    assert x.pole == 1
    assert x.alphas == (S(prec, 2), S(prec, 0, 1))
    zero = fractional(4, (TruncatedSeries.zero(prec),))
    assert zero.pole == 0 and zero.is_zero()


# -- order and heights ------------------------------------------------------------------

def test_order_examples():
    eis = EisensteinPolynomial(2, (2, 2))
    assert order(build_bt_module(Precision(2, 1, 12), eis, 1, 3, seed=0)) == 3
    assert order(build_bt_module(Precision(2, 2, 12), eis, 1, 2, seed=0)) == 4
    assert order(rank1_module(2, 4, 12, E22)) == 4


def test_h3_examples():
    eis = EisensteinPolynomial(2, (2, 2))
    assert h3(build_bt_module(Precision(2, 1, 12), eis, 0, 2, seed=1)) == 2
    assert h3(build_bt_module(Precision(2, 3, 12), eis, 2, 2, seed=1)) == 2
    assert h3(rank1_module(2, 3, 12, E22)) == 1


def test_h4_examples():
    eis = EisensteinPolynomial(2, (2, 2))
    prec = Precision(2, 1, 12)
    assert h4(build_bt_module(prec, eis, d=2, h=2, seed=5)) == 0  # multiplicative
    assert h4(build_bt_module(prec, eis, d=0, h=2, seed=6)) == 2  # etale
    # one E-column, one unit column, V = identity
    E_s = eisenstein_series(eis, prec)
    one, zero = TruncatedSeries.one(prec), TruncatedSeries.zero(prec)
    M = BreuilModule(prec=prec, eis=eis, phi=((E_s, zero), (zero, one)),
                     normal_decomp=NormalDecomposition(1, mat_identity(prec, 2)))
    assert h4(M) == 1


def test_h4_without_normal_decomposition():
    # phi = (u) with e = 2: im(phi)/EM = uS/u^2 S needs one generator
    M = rank1_module(2, 1, 8, E22, a=1)
    assert h4(M) == 1


def test_h4_requires_n1_and_room():
    M = rank1_module(2, 2, 12, E22)
    with pytest.raises(ValueError, match="n = 1"):
        h4(M)
    small = rank1_module(2, 1, 4, E22, a=1)
    with pytest.raises(PrecisionError):
        h4(small)


def test_h4_bounded_by_h3_randomized():
    for seed in range(20):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        h = rng.randint(1, 3)
        eis = EisensteinPolynomial(p, (p,) + (0,) * rng.randint(1, 2))
        M = build_bt_module(Precision(p, 1, 20), eis, d=rng.randint(0, h), h=h,
                            seed=seed, max_entry_degree=2)
        value = h4(M)
        assert 0 <= value <= h3(M)
        assert h3(M) + value <= 2 * h3(M)
        assert value == h - M.normal_decomp.d  # one generator per unit column


# -- Smith reduction -----------------------------------------------------------------------

def test_snf_examples():
    prec = Precision(2, 1, 8)
    u = TruncatedSeries.monomial(prec, 1)
    u2 = TruncatedSeries.monomial(prec, 2)
    one, zero = TruncatedSeries.one(prec), TruncatedSeries.zero(prec)
    assert snf_mod_uT(((u, zero), (zero, u2))) == (1, 2)
    assert snf_mod_uT(((u, one), (zero, u))) == (0, 2)
    assert snf_mod_uT(((zero,),)) == (None,)
    assert snf_mod_uT(((u2, u), (zero, zero), (u, u))) == (1, 1)


def test_snf_requires_n1():
    prec = Precision(2, 2, 6)
    with pytest.raises(ValueError, match="n = 1"):
        snf_mod_uT(((TruncatedSeries.one(prec),),))


def random_n1_matrix(rng, p, rows, cols, T):
    prec = Precision(p, 1, T)
    return tuple(
        tuple(
            TruncatedSeries.from_coeffs(
                prec, [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(T)]
            )
            for _ in range(cols)
        )
        for _ in range(rows)
    )


def test_snf_exponents_match_determinantal_divisors():
    # the k-th determinantal divisor of a matrix over k[[u]] is u^(a_1+...+a_k):
    # the least u-order over all k x k minors, None once it reaches T
    T = 8
    for seed in range(60):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        A = random_n1_matrix(rng, p, rows, cols, T)
        exps = snf_mod_uT(A)
        assert len(exps) == min(rows, cols)
        for k in range(1, len(exps) + 1):
            orders = [
                breuil.mat_det(tuple(tuple(A[i][j] for j in cs) for i in rs)).ord_u()
                for rs in combinations(range(rows), k)
                for cs in combinations(range(cols), k)
            ]
            least = min((o for o in orders if o is not None), default=None)
            head = exps[:k]
            if None in head or sum(head) >= T:
                assert least is None
            else:
                assert least == sum(head)


def test_prop1_examples():
    prec = Precision(2, 1, 8)
    u = TruncatedSeries.monomial(prec, 1)
    zero = TruncatedSeries.zero(prec)
    v = prop1_classify(mat_identity(prec, 2))
    assert (v.closed_embedding, v.epimorphism, v.min_u_annihilator) == (True, True, 0)
    v = prop1_classify(((TruncatedSeries.monomial(prec, 3),),))
    assert (v.closed_embedding, v.epimorphism, v.min_u_annihilator) == (True, True, 3)
    v = prop1_classify(((u, zero), (zero, zero)))
    assert not v.closed_embedding and v.min_u_annihilator is None


def test_prop1_rectangular_maps():
    prec = Precision(2, 1, 8)
    u = TruncatedSeries.monomial(prec, 1)
    u2 = TruncatedSeries.monomial(prec, 2)
    zero = TruncatedSeries.zero(prec)
    # rank-1 source into rank-2 target: injective, cokernel has a free part
    v = prop1_classify(((u,), (zero,)))
    assert v.epimorphism and not v.closed_embedding
    # rank-2 source onto rank-1 target: u-power cokernel, not injective
    v = prop1_classify(((u, u2),))
    assert v.closed_embedding and not v.epimorphism
    assert v.min_u_annihilator == 1


# -- inclusion exponents ----------------------------------------------------------------------

def test_verify_inclusion_examples():
    M, gen = example3_module(2, 3)
    assert verify_inclusion_p_s(M, [gen], 3)
    assert not verify_inclusion_p_s(M, [gen], 2)
    assert verify_inclusion_p_s(M, [], 0)  # N = M needs nothing


def test_example3_module_structure_all_small_levels():
    for p in (2, 3):
        for n in range(1, 6):
            M, gen = example3_module(p, n)
            assert verify_inclusion_p_s(M, [gen], n)
            assert not verify_inclusion_p_s(M, [gen], n - 1)
            assert apply_phi(M, gen).pole == 0  # the map lands inside M
            assert gen.pole == n  # the pole really is n: the bound is tight


def test_example3_identity_instances():
    prec = Precision(2, 3, 5)
    assert example3_identity(2, 2) == S(prec, 4, 0, 0, 0, 1)
    prec = Precision(3, 2, 4)
    assert example3_identity(3, 1) == S(prec, 6, 0, 0, 1)
    out = example3_identity(5, 3)
    assert out.coeffs[0] == 5**4 - 5**3 and out.coeffs[15] == 1


# -- the pole-growth membership property ---------------------------------------------------------

def test_lemma1_membership_rejection_sampled():
    accepted = 0
    for seed in range(60):
        rng = random.Random(seed)
        p = rng.choice([2, 3])
        n = rng.randint(1, 2)
        h = rng.randint(1, 3)
        eis = EisensteinPolynomial(p, (p, p) + (0,) * rng.randint(0, 1))
        prec = Precision(p, n, 36)
        M = build_bt_module(prec, eis, d=rng.randint(0, h), h=h, seed=seed,
                            max_entry_degree=2)
        E_s = eisenstein_series(eis, prec)
        t = rng.randint(1, 2)
        for _ in range(6):
            alphas = tuple(
                TruncatedSeries.from_coeffs(
                    prec, [rng.randrange(prec.modulus) if rng.random() < 0.5 else 0
                           for _ in range(4)]
                )
                for _ in range(h)
            )
            x = FractionalElement(pole=t, alphas=alphas)
            if x.is_zero():
                continue
            if apply_phi(M, x).pole > t:
                continue
            accepted += 1
            for a in x.alphas:
                assert (E_s * frobenius(a)).in_ideal(t * (p - 1))
    assert accepted >= 30


# -- extensions and serialization --------------------------------------------------------------

def test_extension_heights_subadditive():
    rng = random.Random(99)
    for seed in range(15):
        p = rng.choice([2, 3])
        eis = EisensteinPolynomial(p, (p, p))
        prec = Precision(p, 1, 30)
        h1, h2 = rng.randint(1, 2), rng.randint(1, 2)
        M1 = build_bt_module(prec, eis, d=rng.randint(0, h1), h=h1, seed=seed,
                             max_entry_degree=2)
        M2 = build_bt_module(prec, eis, d=rng.randint(0, h2), h=h2, seed=seed + 1,
                             max_entry_degree=2)
        M = extension_module(M1, M2, seed=seed)
        assert h3(M) <= h3(M1) + h3(M2)
        assert h3(M) <= order(M)


def test_module_json_round_trip():
    M = build_bt_module(Precision(2, 2, 10), EisensteinPolynomial(2, (2, 2)),
                        d=1, h=2, seed=4)
    data = module_to_json(M)
    assert module_from_json(data) == M
    # string integers (as emitted by the CLI) are accepted on the way in
    stringly = {
        k: v if k not in ("p", "n", "T", "h") else str(v) for k, v in data.items()
    }
    assert module_from_json(stringly) == M
