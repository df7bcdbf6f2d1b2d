"""Every cache a module of the package defines has a finite bound,
except the few listed here with the reason each may grow."""

import importlib
import pkgutil

import dyerlashof

UNBOUNDED = {
    "invariants._digit_terms": "one entry per digit vector; its bound is an open ROADMAP item",
    "invariants.coeff_memo": "one memo per context; its bound is an open ROADMAP item",
    "invariants._h_realized": "_guard_realize caps it at n <= 3",
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
