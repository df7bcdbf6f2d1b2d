"""Exact arithmetic for Dyer-Lashof operations at odd and even primes.

Straightening of non-admissible operation strings is computed two
independent ways: the classical Adem-relation rewriting engine and the
invariant-theoretic route through the Dickson algebra inside the Borel
ring F_p[h_1..h_n].  The two must agree everywhere; the test suite and
the `dyerlashof verify` command enforce that.

Each name is imported from the module that defines it, for example
``from dyerlashof.correspondence import adem_via_invariants``.
"""

__version__ = "0.1.0"
