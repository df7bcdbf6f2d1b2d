"""Every cache a module of the package defines has a finite bound,
except the few listed here with the reason each may grow."""

import importlib
import pkgutil

import dyerlashof
from dyerlashof import invariants
from dyerlashof.arith import MAX_VARS, PRIMES, Context

UNBOUNDED = {
    "cli._parser": "takes no arguments, so it holds one entry",
}


def package_caches():
    """(module.name, maxsize) of every object with cache_info that a
    module of the package defines (not one it imports)."""
    for info in pkgutil.iter_modules(dyerlashof.__path__):
        module = importlib.import_module(f"dyerlashof.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                yield f"{info.name}.{name}", obj.cache_info().maxsize


def test_every_cache_is_bounded_or_listed():
    caches = dict(package_caches())
    assert "correspondence._solutions" in caches
    unbounded = {name for name, size in caches.items() if size is None}
    # a new unbounded cache, or a listed one bounded or removed, fails here
    assert unbounded == set(UNBOUNDED)
    assert all(size is None or size > 0 for size in caches.values())


def test_the_readers_coeff_memo_makes_are_bounded():
    # the module scan sees coeff_memo but not the caches it builds per
    # context: coeff_memo keeps one reader per context, each bounded
    reader = invariants.coeff_memo(Context(2, 2))
    assert reader.cache_info().maxsize == invariants.COEFF_MEMO_SIZE
    # its digit splits and the chain of _chi_min_coeffs, one entry per m
    assert reader.split.cache_info().maxsize == invariants.COEFF_MEMO_SIZE
    assert reader.diagonal.cache_info().maxsize == invariants.COEFF_MEMO_SIZE
    assert invariants.coeff_memo.cache_info().maxsize == len(PRIMES) * MAX_VARS
