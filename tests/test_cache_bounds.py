"""Every cache a module of the package defines has a finite bound,
except the few listed here with the reason each may grow."""

import importlib
import pkgutil

import dyerlashof
from dyerlashof import invariants
from dyerlashof.arith import Context

UNBOUNDED = {
    "invariants.coeff_memo": "one reader per context, and each reader's memo is "
    "unbounded; their bound is ROADMAP item 2",
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


def test_the_readers_coeff_memo_makes_are_listed():
    # the module scan sees coeff_memo but not the caches it builds per
    # context; the reader, unbounded, is covered by coeff_memo's entry
    reader = invariants.coeff_memo(Context(2, 2))
    assert reader.cache_info().maxsize is None
    assert "invariants.coeff_memo" in UNBOUNDED
