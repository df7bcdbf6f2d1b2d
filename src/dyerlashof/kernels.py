"""The sparse polynomial product over F_p.

Callers reach the kernel through this module's attributes
(``kernels.poly_mul``), so a tracer can wrap the product by patching one
name.  ``IMPL_NAME`` names the module that implements it and is recorded
with every benchmark run.  ``pack``, ``mul_packed`` and ``unpack`` expose
the packed-exponent form that ``poly_mul`` runs on, for callers that
multiply a whole chain before unpacking once.
"""

from ._purekernel import field_width, mul_packed, pack, poly_mul, poly_scale, unpack

__all__ = [
    "IMPL_NAME",
    "field_width",
    "mul_packed",
    "pack",
    "poly_mul",
    "poly_scale",
    "unpack",
]

IMPL_NAME = "_purekernel"
