"""The sparse polynomial product over F_p.

Callers reach the kernel through this module's attributes
(``kernels.poly_mul``), so a tracer can wrap the product by patching one
name.  ``IMPL_NAME`` names the module that implements it and is recorded
with every benchmark run.
"""

from ._purekernel import poly_mul, poly_scale

__all__ = ["IMPL_NAME", "poly_mul", "poly_scale"]

IMPL_NAME = "_purekernel"
