"""The sparse polynomial product over F_p.

Callers reach the kernel through this module's attributes
(``kernels.poly_mul``), so a tracer can wrap the product by patching one
name.  ``IMPL_NAME`` names the module that implements it and is recorded
with every benchmark run.  Every polynomial product of the package
goes through ``poly_mul``; how it computes one, its packed exponents
included, stays inside that module.  It takes and returns dicts keyed
by exponent tuples, its terms in reverse-lex order, and raises
``DomainError`` for a product with an exponent of 2^64 or more.
"""

from ._purekernel import poly_mul

__all__ = ["IMPL_NAME", "poly_mul"]

IMPL_NAME = "_purekernel"
