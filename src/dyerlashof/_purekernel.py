"""Pure-Python sparse polynomial kernel, reached through ``kernels``.

Polynomials are dicts mapping exponent tuples to coefficients in [1, p);
zero coefficients are never stored, and the inputs are never mutated.
"""

__all__ = ["poly_mul", "poly_scale"]


def poly_mul(a: dict, b: dict, p: int) -> dict:
    """Multiply two sparse polynomials over F_p."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            c = (out.get(key, 0) + ca * cb) % p
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def poly_scale(a: dict, c: int, p: int) -> dict:
    """Multiply a sparse polynomial by the scalar c."""
    c %= p
    if c == 0:
        return {}
    if c == 1:
        return dict(a)
    return {k: v * c % p for k, v in a.items()}
