"""The three benchmark workloads and the checks on their outputs.

A workload is a list of operations built from the seed.  One operation is
one user-level call into ramibound's public functions or its CLI (in
process, through ``cli.main``).  An operation may expand into follow-up
operations that need its result, such as ``h4`` on a module just built;
the expansion is deterministic, so every round runs the same operations.

Each operation's result is reduced to a small digest right after the call,
outside its timer.  The checks compare the digests of the first round with
the independent computations in ``checks.py`` and with properties the
method must have; later rounds must reproduce the first round's digests.

Program functions are looked up on their modules at call time, so that
the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

import checks
from ramibound import bounds, breuil, cli, eisenstein, oracle, series, suites

# ``heights --module-file`` exits with code 2 for every module with n > 1
# (see README).  These fixed files keep that fault measured.
FAULTY_HEIGHTS_FILES = [(2, 2, 2, 1), (3, 2, 1, 1), (2, 3, 3, 2)]  # (p, n, h, d)


@dataclass
class Op:
    kind: str
    label: str
    call: Callable[[], Any]
    digest: Callable[[Any], Any] = lambda result: result
    expand: Callable[[Any], list] | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    check: Callable[[list], list[str]]  # [(op, digest, failed)] -> problems


def failed(op: Op, digest) -> bool:
    if isinstance(digest, dict) and "error" in digest:
        return True
    return op.kind.startswith("cli-") and digest["rc"] != 0


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cli_digest(result):
    rc, out = result
    payload = json.loads(out) if rc == 0 else None
    if payload is not None:
        payload.pop("runtime_s", None)
    return {"rc": rc, "json": payload}


def coeffs(s) -> tuple[int, ...]:
    return tuple(s.coeffs)


def matrix(M) -> tuple:
    return tuple(tuple(coeffs(x) for x in row) for row in M)


def poly_arg(c) -> str:
    """Polynomial text for the CLI from ascending coefficients (monic)."""
    terms = []
    for i in range(len(c) - 1, -1, -1):
        a = c[i]
        if a == 0:
            continue
        sign = "-" if a < 0 else "+"
        body = ("" if abs(a) == 1 and i else str(abs(a))) + (f"u^{i}" if i else "")
        terms.append(sign + body)
    text = "".join(terms)
    return text[1:] if text.startswith("+") else text


def random_eisenstein(rng: random.Random, p: int, e: int, r: int) -> tuple[int, ...]:
    """(a_0, ..., a_{e-1}) with a_i = p * x_i, x_i < p^r and p not dividing x_0."""
    a0 = p * rng.choice([x for x in range(1, p**r) if x % p])
    return (a0,) + tuple(p * rng.randrange(p**r) for _ in range(e - 1))


def check_expected_failures(records) -> list[str]:
    problems = []
    for op, digest, bad in records:
        if bad and op.kind != "cli-heights-faulty":
            problems.append(f"{op.label}: unexpected failure {digest}")
    return problems


# -- depth-grid -------------------------------------------------------------------

# (p, e, n, k): Eisenstein grids, of which one polynomial in k runs.  All
# 4374 polynomials of the p = 3 grid cost the same (t* = 4, 54 witnesses, 648
# candidates each), so a seeded eighteenth of it runs the same code.  The
# whole grid took 13-17 s per round, and a run needs at least five rounds
# for the median over the rounds.
GRIDS = [(3, 4, 2, 18), (2, 4, 2, 1)]
# u^4-2 and u^4+2u+2 through `ramibound verify`, at n = 2: at n = 3 the two
# searches take 7 s together, several times a whole round.
CLI_PROP2 = [(2, 2, (-2, 0, 0, 0)), (2, 2, (2, 2, 0, 0))]
SAMPLE_PER_GRID = {3: 16, 2: 8}  # polynomials re-searched exhaustively, per grid


def _prop2_digest(sampled: bool):
    def digest(res):
        out = {
            "t": res.t_star,
            "cand": res.candidates_visited,
            "space": res.space_size,
            "nw": len(res.witnesses),
            "first": res.witnesses[0].coeffs,
            "last": res.witnesses[-1].coeffs,
            "asserts": all(res.assertions.values()),
        }
        if sampled:
            out["wits"] = [w.coeffs for w in res.witnesses]
        return out
    return digest


def _lemma4_eligible(E, p, n, c, t) -> bool:
    """The hypotheses of the Weierstrass staircase lemma, checked directly."""
    q = p**n
    c = [x % q for x in c]
    deg = max(i for i, x in enumerate(c) if x)
    if c[deg] != 1 or any(x % p for x in c[:deg]) or c[0] == 0 or p * deg >= t:
        return False
    e0 = [a if i % p == 0 else 0 for i, a in enumerate(E)]
    return checks.depth(e0, c, p, n, t) >= t


def _lemma4_conclusions(p, e, n, c, t) -> dict:
    d = max(i for i, x in enumerate(c) if x)
    ep = e // p

    def staircase():
        for i in range(n):
            step = i * ep
            if step > d or checks.vp(c[step], p) != n - i - 1:
                return False
            if any(x and checks.vp(x, p) < n - i for x in c[:step]):
                return False
        return True

    return {"lemma4-degree": d == (n - 1) * ep, "f3-valuations": staircase(),
            "t-le-ne": t <= n * e}


def depth_grid(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"depth-grid-{seed}")
    grid_ops = []
    for p, e, n, k in GRIDS:
        polys = list(oracle.eisenstein_grid(p, e, n))
        polys = rng.sample(polys, len(polys) // k)
        sample = set(rng.sample(range(len(polys)), SAMPLE_PER_GRID[p]))
        for k, E in enumerate(polys):
            cfg = oracle.default_config(E, n)
            expand = None
            if e % p == 0:
                expand = _lemma4_expander(cfg)
            grid_ops.append(Op(
                "prop2", f"prop2 p={p} {E}",
                lambda cfg=cfg: oracle.prop2_max_t(cfg),
                _prop2_digest(k in sample), expand,
                {"p": p, "e": e, "n": n, "E": E.all_coeffs(), "sampled": k in sample},
            ))
    rng.shuffle(grid_ops)
    tail = [Op("cor5", "cor5 suite p=2 e=4 n=2",
               lambda: suites.suite_cor5(2, 2, e=4),
               lambda r: {k: v for k, v in r.items() if k != "runtime_s"},
               meta={"p": 2, "e": 4, "n": 2})]
    for p, n, a in CLI_PROP2:
        E = a + (1,)
        argv = ["verify", "--suite", "prop2", "--p", str(p), "--poly", poly_arg(E),
                "--n", str(n), "--json"]
        tail.append(Op("cli-prop2", " ".join(argv), lambda argv=argv: run_cli(argv),
                       cli_digest, meta={"p": p, "n": n, "E": E}))
    rng.shuffle(tail)
    return Workload(grid_ops + tail, _check_depth_grid)


def _lemma4_expander(cfg):
    p, e, n = cfg.p, cfg.e, cfg.n
    E = cfg.eis.all_coeffs()

    def expand(res):
        ops = []
        for w in res.witnesses:
            if _lemma4_eligible(E, p, n, w.coeffs, res.t_star):
                ops.append(Op(
                    "lemma4", f"lemma4 {cfg.eis} {w.coeffs}",
                    lambda c=w.coeffs, t=res.t_star: oracle.lemma4_check(cfg, c, t, strict=False),
                    lambda r: r.checks,
                    meta={"p": p, "e": e, "n": n, "c": w.coeffs, "t": res.t_star},
                ))
        return ops
    return expand


def _check_depth_grid(records) -> list[str]:
    problems = check_expected_failures(records)
    staircase_witnesses = 0
    for op, d, bad in records:
        if bad:
            continue
        m = op.meta
        if op.kind == "prop2":
            p, e, n, E = m["p"], m["e"], m["n"], m["E"]
            q, cap = p**n, n * e + 1
            _, tau, iota = checks.invariants(p, E[:-1])
            bound = n * e if tau is None else min(n * e, tau * e + iota)
            space = (q - 1) * q ** ((cap - 1) // p)
            ok = (d["asserts"] and d["t"] <= bound and d["cand"] == d["space"] == space
                  and checks.depth(E, d["first"], p, n, cap) == d["t"]
                  and checks.depth(E, d["last"], p, n, cap) == d["t"])
            if ok and m["sampled"]:
                ok = checks.max_depth_search(E, p, n) == (d["t"], d["wits"])
            if not ok:
                problems.append(f"{op.label}: {d['t']} fails its checks")
        elif op.kind == "lemma4":
            want = _lemma4_conclusions(m["p"], m["e"], m["n"], m["c"], m["t"])
            if d != want or not all(want.values()):
                problems.append(f"{op.label}: checks {d} against {want}")
            staircase_witnesses += 1
        elif op.kind == "cli-prop2":
            p, n, E = m["p"], m["n"], m["E"]
            e = len(E) - 1
            t = int(d["json"]["config"]["t_star"])
            _, tau, iota = checks.invariants(p, E[:-1])
            ok = d["json"]["ok"] and t <= n * e and (tau is None or t <= tau * e + iota)
            if tau is None:
                # u^e - p: the telescoping witness reaches the upper bound n*e
                ok = ok and t == n * e and checks.depth(
                    E, checks.telescoping_witness(p, e, n), p, n, n * e + 1) == n * e
            else:
                # depth t + 1 depends only on c_0..c_{t // p}: search those
                best = max(checks.depth(E, c, p, n, t + 1)
                           for c in checks.multipliers(p, n, t // p))
                ok = ok and best == t
            if not ok:
                problems.append(f"{op.label}: t* = {t} fails its checks")
    for op, d, bad in records:
        if op.kind == "cor5" and not bad:
            q, p = op.meta["p"] ** op.meta["n"], op.meta["p"]
            per_witness = sum((q // p) ** l for l in range(op.meta["e"]))
            if not d["ok"] or d["config"]["instances"] != staircase_witnesses * per_witness:
                problems.append(f"{op.label}: {d['config']} against "
                                f"{staircase_witnesses} staircase witnesses")
    return problems


# -- modules ---------------------------------------------------------------------------

# (p, n, T): inputs per kernel.  The 24 Weierstrass preparations at T = 200
# are the slowest group but for a dozen operations, so p90 falls inside it.
KERNEL_INPUTS = {(2, 2, 40): 6, (3, 3, 40): 6, (2, 8, 200): 24}


def _module_digest(M):
    nd = M.normal_decomp
    return {"h": M.h, "phi": matrix(M.phi),
            "V": None if nd is None else matrix(nd.change_of_basis),
            "d": None if nd is None else nd.d}


def _apply_phi_ops(M, rng, label, count):
    """apply_phi on seeded elements that respect the u-precision contract."""
    prec = M.prec
    phi_deg = max((x.degree() or 0) for row in M.phi for x in row)
    cap = (prec.T - 1 - phi_deg) // prec.p
    ops = []
    for k in range(count):
        pole = rng.randint(1, 2)
        alphas = []
        for _ in range(M.h):
            cs = [0] * prec.T
            for _ in range(2):
                cs[rng.randint(0, max(0, cap))] = rng.randrange(prec.modulus)
            alphas.append(cs)
        x = breuil.FractionalElement(
            pole=pole, alphas=tuple(series.TruncatedSeries.from_coeffs(prec, a) for a in alphas))
        ops.append(Op(
            "apply_phi", f"{label} apply_phi #{k}",
            lambda x=x: breuil.apply_phi(M, x),
            lambda r: (r.pole, tuple(coeffs(a) for a in r.alphas)),
            meta={"phi": matrix(M.phi), "pole": pole, "alphas": alphas,
                  "p": prec.p, "n": prec.n, "T": prec.T},
        ))
    return ops


def _build_op(label, prec, eis, d, h, seed, max_deg, n1_followups, rng_seed):
    def expand(M):
        ops = _apply_phi_ops(M, random.Random(rng_seed), label, 3)
        if n1_followups:
            ops.append(Op("h4", f"{label} h4", lambda: breuil.h4(M),
                          meta={"h": h, "d": d}))
            ops.append(Op("prop1", f"{label} prop1_classify",
                          lambda: breuil.prop1_classify(M.phi),
                          lambda r: (r.closed_embedding, r.epimorphism, r.min_u_annihilator),
                          meta={"d": d, "e": eis.e}))
        return ops

    return Op(
        "build", label,
        lambda: breuil.build_bt_module(prec, eis, d=d, h=h, seed=seed, max_entry_degree=max_deg),
        _module_digest, expand,
        {"p": prec.p, "n": prec.n, "T": prec.T, "E": eis.all_coeffs(), "d": d, "h": h},
    )


def _extension_ops(k, prec, eis):
    """Build M1 and M2, then their extension; the extension is verified by
    the program's Smith reduction at n = 1."""
    h1, h2 = 1 + k % 3, 1 + (k + 1) % 3
    d1, d2 = h1 // 2, (h2 + 1) // 2
    s1, s2, s3 = 3 * k + 1, 3 * k + 2, 3 * k + 3
    label = f"extension #{k} p={prec.p} h={h1}+{h2}"

    def build(h, d, s):
        return lambda: breuil.build_bt_module(prec, eis, d=d, h=h, seed=s, max_entry_degree=2)

    def after_m1(M1):
        def after_m2(M2):
            return [Op("extension", label, lambda: breuil.extension_module(M1, M2, seed=s3),
                       _module_digest,
                       meta={"top": matrix(M1.phi), "bottom": matrix(M2.phi)})]
        return [Op("build", f"{label} M2", build(h2, d2, s2), _module_digest, after_m2,
                   {"p": prec.p, "n": 1, "T": prec.T, "E": eis.all_coeffs(), "d": d2, "h": h2})]

    return Op("build", f"{label} M1", build(h1, d1, s1), _module_digest, after_m1,
              {"p": prec.p, "n": 1, "T": prec.T, "E": eis.all_coeffs(), "d": d1, "h": h1})


def module_file(rng: random.Random, p: int, n: int, e: int, h: int, d: int, T: int = 40) -> dict:
    """A module in the JSON form `heights --module-file` reads, built without
    ramibound: V = L * U (L unit lower triangular, U upper triangular with
    unit constants on the diagonal), phi = V * diag(E, ..., E, 1, ..., 1)."""
    q = p**n
    E = list(random_eisenstein(rng, p, e, 2)) + [1]

    def entry(unit=False):
        cs = [rng.randrange(q) for _ in range(3)] + [0] * (T - 3)
        if unit:
            cs[0] = p * rng.randrange(q // p) + rng.randrange(1, p)
        return cs

    zero, one = [0] * T, [1] + [0] * (T - 1)
    L = [[entry() if j < i else (one if j == i else zero) for j in range(h)] for i in range(h)]
    U = [[entry(j == i) if j >= i else zero for j in range(h)] for i in range(h)]
    V = []
    for i in range(h):
        row = []
        for j in range(h):
            acc = [0] * T
            for k in range(h):
                for t, c in enumerate(checks.conv(L[i][k], U[k][j], q, T)):
                    acc[t] += c
            row.append([c % q for c in acc])
        V.append(row)
    phi = [[checks.conv(V[i][j], E, q, T) if j < d else V[i][j] for j in range(h)]
           for i in range(h)]
    return {"p": p, "n": n, "T": T, "h": h, "eisenstein": E[:-1], "phi": phi,
            "normal_decomp": {"d": d, "change_of_basis": V}}


def modules(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"modules-{seed}")
    ops = []
    # series kernels on dense seeded inputs
    for (p, n, T), count in KERNEL_INPUTS.items():
        prec = series.Precision(p, n, T)
        q = p**n

        def unit():
            return p * rng.randrange(q // p) + rng.randrange(1, p)

        for k in range(count):
            a = [rng.randrange(q) for _ in range(T)]
            b = [unit()] + [rng.randrange(q) for _ in range(T - 1)]
            # Weierstrass degree `low` and content p^content: varied at T = 40,
            # fixed at T = 200 so that those preparations cost the same
            low, content = (k % 4, k % 3 // 2) if T <= 40 else (2, 0)
            w = [p**content * (p * rng.randrange(q) if i < low else unit() if i == low
                               else rng.randrange(q)) % q for i in range(T)]
            A, B, W = (series.TruncatedSeries.from_coeffs(prec, x) for x in (a, b, w))
            meta = {"p": p, "n": n, "T": T, "a": a, "b": b, "w": w}
            tag = f"({p},{n},{T}) #{k}"
            ops.append(Op("mul", f"mul {tag}", lambda A=A, B=B: A * B, coeffs, meta=meta))
            ops.append(Op("invert_unit", f"invert_unit {tag}",
                          lambda B=B: series.invert_unit(B), coeffs, meta=meta))
            ops.append(Op("weierstrass_prep", f"weierstrass_prep {tag}",
                          lambda W=W: series.weierstrass_prep(W),
                          lambda r: (r.content, r.degree, coeffs(r.wpoly), coeffs(r.unit)),
                          meta=meta))
    # certified builds: ranks 1-8 at n = 1 and T = 40, ranks 1-4 at n = 2, 3,
    # ranks 1-5 at (2, 8, 200).  (p, n, T, e, h, d) and the program's build
    # seed, which sets the sparsity of V and so the cost of mat_det, are fixed
    # per slot; the workload seed sets the Eisenstein coefficients.
    plans = [(2 + h % 2, 1, 40, 2 + h % 3, h) for h in range(1, 9)]
    plans += [(5 - n, n, 40, 3, h) for n in (2, 3) for h in range(1, 5)]
    plans += [(2, 8, 200, 4, h) for h in range(1, 6)]
    for p, n, T, e, h in plans:
        eis = eisenstein.EisensteinPolynomial(p, random_eisenstein(rng, p, e, 2))
        d = h // 2
        label = f"build_bt_module p={p} n={n} T={T} h={h} d={d}"
        ops.append(_build_op(label, series.Precision(p, n, T), eis, d, h, 100 * n + h,
                             None if T > 40 else 2, n == 1, f"{label}-{seed}"))
    # n = 1 extensions, verified by Smith reduction
    for k in range(8):
        p = 2 + k % 2
        eis = eisenstein.EisensteinPolynomial(p, random_eisenstein(rng, p, 2 + k // 2 % 2, 1))
        ops.append(_extension_ops(k, series.Precision(p, 1, 40), eis))
    # inclusion exponents on Example 3: p^n includes, p^(n-1) does not
    for p in (2, 3):
        for n in range(1, 5):
            M, gen = breuil.example3_module(p, n)
            for s in (n, n - 1):
                ops.append(Op(
                    "inclusion", f"example3 p={p} n={n} s={s}",
                    lambda M=M, gen=gen, s=s: breuil.verify_inclusion_p_s(M, [gen], s),
                    meta={"p": p, "n": n, "s": s, "pole": gen.pole,
                          "alphas": [list(a.coeffs) for a in gen.alphas]}))
    # pole growth and stability through the suites
    for p, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
        ops.append(Op("lemma1", f"lemma1 p={p} n={n}",
                      lambda p=p, n=n: suites.suite_lemma1(p, n, seeds=20),
                      lambda r: {k: v for k, v in r.items() if k != "runtime_s"}))
    argv = ["verify", "--suite", "lemma1", "--p", "3", "--n", "3", "--seeds", "20", "--json"]
    ops.append(Op("cli-lemma1", " ".join(argv), lambda argv=argv: run_cli(argv), cli_digest))
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        ops.append(Op("lemma2", f"lemma2 p={p} n={n}",
                      lambda p=p, n=n: suites.suite_lemma2(p, n),
                      lambda r: {k: v for k, v in r.items() if k != "runtime_s"},
                      meta={"n": n}))
    # module files through the CLI: seeded n = 1 files, and fixed n > 1 files
    files = [(2 + k % 2, 1, 2 + k // 2 % 2, 1 + k % 4, min(k // 4, 1 + k % 4), rng)
             for k in range(12)]
    fixed = random.Random("faulty-heights-files")
    files += [(p, n, 2, h, d, fixed) for p, n, h, d in FAULTY_HEIGHTS_FILES]
    for k, (p, n, e, h, d, source) in enumerate(files):
        path = os.path.join(workdir, f"module-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(module_file(source, p, n, e, h, d), fh)
        argv = ["heights", "--module-file", path, "--json"]
        kind = "cli-heights" if n == 1 else "cli-heights-faulty"
        ops.append(Op(kind, f"heights module-{k} p={p} n={n} h={h} d={d}",
                      lambda argv=argv: run_cli(argv), cli_digest,
                      meta={"n": n, "h": h, "d": d}))
    rng.shuffle(ops)
    return Workload(ops, _check_modules)


def _check_modules(records) -> list[str]:
    problems = check_expected_failures(records)
    for op, d, bad in records:
        if bad:
            continue
        m = op.meta
        if op.kind in ("mul", "invert_unit", "weierstrass_prep"):
            p, n, T = m["p"], m["n"], m["T"]
            q = p**n
            if op.kind == "mul":
                ok = list(d) == checks.conv(m["a"], m["b"], q, T)
            elif op.kind == "invert_unit":
                ok = checks.is_inverse(m["b"], d, q, T)
            else:
                ok = checks.weierstrass_holds(m["w"], d[0], d[1], d[2], d[3], p, n)
        elif op.kind == "build":
            ok = (d["h"] == m["h"] and d["d"] == m["d"]
                  and checks.unit_det_at_zero(d["V"], m["p"])
                  and checks.normal_decomposition_holds(d["phi"], d["V"], m["d"], m["E"],
                                                        m["p"], m["n"], m["T"]))
        elif op.kind == "h4":
            ok = d == m["h"] - m["d"]
        elif op.kind == "prop1":
            ok = d == (True, True, m["e"] if m["d"] else 0)
        elif op.kind == "apply_phi":
            pole, nums = checks.apply_phi_reference(m["phi"], m["pole"], m["alphas"],
                                                    m["p"], m["n"], m["T"])
            ok = d == (pole, tuple(tuple(a) for a in nums))
        elif op.kind == "extension":
            top, bottom = m["top"], m["bottom"]
            h1, h2 = len(top), len(bottom)
            phi = d["phi"]
            zero = tuple([0] * len(phi[0][0]))
            ok = (d["h"] == h1 + h2
                  and all(phi[i][:h1] == top[i] for i in range(h1))
                  and all(phi[h1 + i][h1:] == bottom[i] for i in range(h2))
                  and all(x == zero for i in range(h2) for x in phi[h1 + i][:h1]))
        elif op.kind == "inclusion":
            least = checks.least_inclusion_exponent(m["alphas"], m["pole"], m["p"], m["n"])
            ok = least == m["n"] and d == (m["s"] >= least)
        elif op.kind in ("lemma1", "cli-lemma1"):
            report = d if op.kind == "lemma1" else d["json"]
            ok = report["ok"] is True
        elif op.kind == "lemma2":
            a = d["assertions"]
            ok = (d["ok"] and a["p-n-inclusion"]["pass"] == m["n"]
                  and a["p-n-minus-1-excluded"]["pass"] == m["n"])
        elif op.kind in ("cli-heights", "cli-heights-faulty"):
            out = d["json"]
            ok = (int(out["h3"]) == m["h"] and int(out["order"]) == m["n"] * m["h"]
                  and (m["n"] != 1 or int(out["h4"]) == m["h"] - m["d"]))
        else:
            ok = False
        if not ok:
            problems.append(f"{op.label}: output fails its check")
    return problems


# -- uniformizer ----------------------------------------------------------------------

# (p, e, digit precision, polynomials per round); p | e throughout.  The
# search at p = 3, e = 6, digit precision 2 would enumerate 354294 changes
# (about two minutes), so e = 6 stops at precision 1 for p = 3.
TAU_PLANS = [
    (2, 2, 1, 4), (2, 2, 2, 4), (2, 2, 3, 4),
    (2, 4, 1, 4), (2, 4, 2, 4), (2, 4, 3, 1),
    (2, 6, 1, 4), (2, 6, 2, 1),
    (3, 3, 1, 4), (3, 3, 2, 4), (3, 3, 3, 1),
    (3, 6, 1, 2),
]
CLI_TAU_PLANS = {(2, 2, 1), (2, 4, 1), (3, 3, 1)}  # one polynomial each via `bound`
SUBSTITUTE_PLANS = [(2, 4), (2, 8), (3, 4), (3, 8)]
SUBSTITUTES_PER_PLAN = 20
BOUND_PRIMES = (2, 3, 5)
BOUND_MAX_E = 60


def _admissible(p, e):
    m = checks.vp(e, p)
    if m == 0:
        return [(1, 0)]
    return [(tau, iota) for tau in range(1, m + 2) for iota in range(1, e) if iota % p]


def uniformizer(seed: int, workdir: str) -> Workload:
    rng = random.Random(f"uniformizer-{seed}")
    ops = []
    for p, e, dp, count in TAU_PLANS:
        for k in range(count):
            a = random_eisenstein(rng, p, e, 2)
            meta = {"p": p, "e": e, "dp": dp, "E": a + (1,)}
            if k == 0 and (p, e, dp) in CLI_TAU_PLANS:
                argv = ["bound", "--p", str(p), "--poly", poly_arg(a + (1,)),
                        "--search-prec", str(dp), "--json"]
                ops.append(Op("cli-bound", " ".join(argv), lambda argv=argv: run_cli(argv),
                              cli_digest, meta=meta))
                continue
            E = eisenstein.EisensteinPolynomial(p, a)
            ops.append(Op(
                "tau", f"tau_v_search p={p} {E} dp={dp}",
                lambda E=E, dp=dp: eisenstein.tau_v_search(E, dp),
                lambda r: (r.tau, r.iota, r.witness.cs, r.ceiling, r.candidates),
                meta=meta))
    for p, e in SUBSTITUTE_PLANS:
        N = checks.vp(e, p) + 3
        for k in range(SUBSTITUTES_PER_PLAN):
            a = random_eisenstein(rng, p, e, 2)
            cs = [rng.randrange(p * p) for _ in range(e)]
            cs[1] = p * rng.randrange(p) + rng.randrange(1, p)
            E = eisenstein.EisensteinPolynomial(p, a)
            change = eisenstein.UniformizerChange(p, 2, tuple(cs))
            ops.append(Op(
                "substitute", f"substitute p={p} {E} {cs}",
                lambda E=E, change=change, N=N: eisenstein.substitute(E, change, N),
                lambda r: r.coeffs,
                meta={"p": p, "E": a + (1,), "cs": cs, "N": N}))
    for p in BOUND_PRIMES:
        for e in range(1, BOUND_MAX_E + 1):
            pairs = _admissible(p, e)
            ops.append(Op(
                "bound-table", f"compute_s table p={p} e={e}",
                lambda p=p, e=e, pairs=pairs: [bounds.compute_s(p, e, t, i) for t, i in pairs],
                lambda traces: [(tr.pairs[0], tr.s) for tr in traces],
                meta={"p": p, "e": e, "pairs": pairs}))
    rng.shuffle(ops)
    return Workload(ops, _check_uniformizer)


def _check_uniformizer(records) -> list[str]:
    problems = check_expected_failures(records)
    # independent exhaustive tau searches on the small searches, a sample per round
    for op, d, bad in records:
        if bad:
            continue
        m = op.meta
        if op.kind == "tau":
            p, e, E = m["p"], m["e"], m["E"]
            mm = checks.vp(e, p)
            tau, iota, cs, ceiling, cand = d
            ind = checks.invariants(p, checks.substituted(E, cs, p, mm + 3), precision=mm + 3)
            ok = (tau <= mm + 1 == ceiling and (tau, iota) == ind[1:]
                  and cand == p ** (m["dp"] * e) // p * (p - 1))
            if ok and cand <= 512:
                ok = checks.tau_search(E, p, m["dp"], mm + 3) == (tau, iota, tuple(cs))
        elif op.kind == "cli-bound":
            p, e, E = m["p"], m["e"], m["E"]
            mm = checks.vp(e, p)
            out = d["json"]
            tau, iota, s = int(out["tau"]), int(out["iota"]), int(out["s"])
            ok = (tau <= mm + 1 and s == checks.s_recursion(p, e, tau, iota)
                  and out["s_le_f11"] and checks.s_within_global_bound(p, e, s)
                  and checks.tau_search(E, p, m["dp"], mm + 3)[:2] == (tau, iota))
        elif op.kind == "substitute":
            ok = list(d) == checks.substituted(m["E"], m["cs"], m["p"], m["N"])
        elif op.kind == "bound-table":
            p, e = m["p"], m["e"]
            ok = len(d) == len(m["pairs"])
            for (tau, iota), (first, s) in zip(m["pairs"], d):
                ok = (ok and first == ((tau * e + iota) // (p - 1), 0)
                      and s == checks.s_recursion(p, e, tau, iota)
                      and checks.s_within_global_bound(p, e, s))
                if e % p:
                    ok = ok and s == (checks.s_closed_form(p, e) if e >= p - 1 else 0)
        else:
            ok = False
        if not ok:
            problems.append(f"{op.label}: output fails its check")
    return problems


WORKLOADS = {"depth-grid": depth_grid, "modules": modules, "uniformizer": uniformizer}
