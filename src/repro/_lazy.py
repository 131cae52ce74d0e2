"""Lazy package facades (PEP 562).

A package ``__init__`` lists, per submodule, the public names it
re-exports, and lets this helper build the module hooks::

    from repro import _lazy

    __getattr__, __dir__, __all__ = _lazy.exports(globals(), {
        "simulator": ("RunResult", "Simulator"),
        "filters": ("FilterSyntaxError", ("parse_filter", "parse")),
    })

Importing the package then imports none of its submodules.  The first
access to a name (``pkg.Simulator``, ``from pkg import Simulator``,
``from pkg import *``) imports the owning submodule and caches the value
in the package namespace, so every later access is a plain attribute
read.  A ``(public, attribute)`` pair re-exports a submodule attribute
under another name.  ``__all__`` is the table's names in table order.
"""

from importlib import import_module


def exports(namespace, table):
    """Return ``(__getattr__, __dir__, __all__)`` for the package whose
    globals are *namespace*, exporting *table*: ``{submodule: names}``."""
    package = namespace["__name__"]
    owners = {}
    for submodule, names in table.items():
        for entry in names:
            public, attribute = entry if isinstance(entry, tuple) else (entry, entry)
            if public in owners:
                raise ValueError(f"{package} exports {public!r} twice")
            owners[public] = (submodule, attribute)

    def __getattr__(name):
        try:
            submodule, attribute = owners[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(f"{package}.{submodule}"), attribute)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, list(owners)
