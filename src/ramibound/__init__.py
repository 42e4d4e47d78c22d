"""Exact arithmetic for uniformizer invariants of Eisenstein polynomials,
truncated power-series rings with Frobenius, Breuil-module linear algebra,
recursive ramification exponents, and exhaustive desk-scale verification.

The package root exports nothing: import from the modules, as in
`from ramibound import oracle`."""

__version__ = "0.1.0"
