"""Module attributes resolved on first access (PEP 562): the package's
public names whose code only some processes run, and the document readers
of :mod:`weylzip.serialize`, each imported from its home module when it is
first read."""

from importlib import import_module


def lazy_names(module_globals: dict, homes: dict[str, str]):
    """The ``__getattr__`` of the module with globals `module_globals`:
    each name of `homes` is read from the sibling module named there,
    imported on first access, and stored in those globals; any other name
    is an AttributeError."""
    module = module_globals["__name__"]

    def __getattr__(name: str):
        home = homes.get(name)
        if home is None:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        value = module_globals[name] = getattr(import_module(f"{__package__}.{home}"), name)
        return value

    return __getattr__
