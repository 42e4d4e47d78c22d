"""The recursive exponent s and its closed-form and global bounds.

Given (p, e) and a uniformizer invariant pair (tau, iota), set
epsilon = 0 if p does not divide e and 1 otherwise, and start from

    t_0 = floor((tau*e + iota)/(p-1)),   s_0 = 0.

While t - floor(t/p) exceeds tau + epsilon, replace (t, s) by
(floor(t/p), s + tau + epsilon); the exponent is s = t_z + s_z at the
final pair.  Since tau + epsilon >= 1, t strictly falls and s strictly
rises.  Each step changes t + s by tau + epsilon - drop, where
drop = t - floor(t/p) is the quantity the stopping rule tests, so under
the standard rule the sums strictly decrease; the sum-form of the rule would break that chain,
which is why the difference form is implemented for both variants.
These facts hold by construction, so BoundTrace, which compute_s alone
builds, is a plain record that re-checks none of them; Example 4's cap is
the plain block that bound_example4(p, e, s) returns.

The modified variant keeps stepping while t - floor(t/p) equals
tau + epsilon; such steps leave t + s unchanged, and since drop never
decreases as t grows, they all come at the end.  Both variants agree on
the final s and differ only in trace length.  For p not dividing e it
lands exactly on (0, v+1) where v is the index of the leading p-adic
digit of t_0, which gives the closed form s = 1 + floor(log_p(e/(p-1))).

All arithmetic is exact; base-p logarithms are integer power comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .series import int_valuation, require_prime


@dataclass(frozen=True)
class BoundTrace:
    """Full transcript of the recursion: every pair (t_j, s_j) in order."""

    p: int
    e: int
    variant: str
    pairs: tuple[tuple[int, int], ...]

    @property
    def epsilon(self) -> int:
        """0 when p does not divide e, else 1."""
        return 0 if self.e % self.p else 1

    @property
    def z(self) -> int:
        return len(self.pairs) - 1

    @property
    def s(self) -> int:
        t, s = self.pairs[-1]
        return t + s


def compute_s(p: int, e: int, tau: int, iota: int, variant: str = "standard") -> BoundTrace:
    """Check the inputs, run the recursion and return the full trace (s is
    trace.s)."""
    require_prime(p)
    if e < 1:
        raise ValueError(f"e = {e} must be >= 1")
    if not isinstance(tau, int):
        raise ValueError(
            "tau must be a finite integer; for tau = infinity switch to a "
            "uniformizer with finite tau (one with tau <= m + 1 always exists)"
        )
    if tau < 1:
        raise ValueError(f"tau = {tau} must be >= 1")
    m = int_valuation(e, p)
    if m == 0:
        if (tau, iota) != (1, 0):
            raise ValueError("for p not dividing e the only invariant pair is (1, 0)")
    else:
        if not (1 <= iota <= e - 1):
            raise ValueError(f"iota = {iota} must lie in [1, {e - 1}]")
        if iota % p == 0:
            raise ValueError(f"iota = {iota} must not be divisible by p")
    if variant not in ("standard", "modified"):
        raise ValueError(f"unknown variant {variant!r}")
    step = tau + (0 if e % p else 1)  # tau + epsilon
    pairs = [((tau * e + iota) // (p - 1), 0)]
    while True:
        t, s = pairs[-1]
        drop = t - t // p
        if (drop <= step) if variant == "standard" else (drop < step):
            break
        pairs.append((t // p, s + step))
    return BoundTrace(p=p, e=e, variant=variant, pairs=tuple(pairs))


def reference_log_bound(p: int, e: int) -> int:
    """1 + floor(log_p(e/(p-1))), the sharper bound known from the
    literature; comparison display only, never asserted by this package."""
    require_prime(p)
    if e < p - 1:
        return 0
    v = 0
    while p ** (v + 1) * (p - 1) <= e:
        v += 1
    return 1 + v


def bound_f11(p: int, e: int) -> Fraction:
    """Global bound (2e - 1 + e*ord_p(e)) / (p - 1) as an exact rational."""
    require_prime(p)
    if e < 1:
        raise ValueError(f"e = {e} must be >= 1")
    m = int_valuation(e, p)
    return Fraction(2 * e - 1 + e * m, p - 1)


def bound_example4(p: int, e: int, s: int) -> dict:
    """Example 4's cap (log_p e + m + 2)(m + 2) - 1, m = ord_p(e), for p | e:
    its value when e = p^m, else None; its value to four places; and whether
    s lies below it, that is p^A < e^B with B = m + 2, A = s + 1 - B^2.  Once
    A*(bitlen(p) - 1) >= B*bitlen(e), p^A >= 2^(B*bitlen(e)) > e^B settles
    that without the power, so the cost does not grow with s."""
    require_prime(p)
    if e % p:
        raise ValueError("this bound applies only when p divides e")
    m = int_valuation(e, p)
    B = m + 2
    A = s + 1 - B * B
    return {
        "exact": (2 * m + 2) * B - 1 if e == p**m else None,
        "approx": round((math.log(e, p) + m + 2) * B - 1, 4),
        "s_below": A < 0 or (A * (p.bit_length() - 1) < B * e.bit_length()
                             and p**A < e**B),
    }


def prop3_height_bounds(s: int, r: int) -> tuple[int, int]:
    """((2s+1)*r, (4s+2)*r): generator-height bound and overall height bound."""
    if s < 0 or r < 0:
        raise ValueError("s and r must be >= 0")
    return ((2 * s + 1) * r, (4 * s + 2) * r)
