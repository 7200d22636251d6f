"""The package's frozen value types, built without object.__setattr__.

dataclass(frozen=True) generates an __init__ that stores each field with
object.__setattr__, because the class's own __setattr__ refuses to: one
builtin call per field.  The witness path builds several such records per
point (RegionClass, HardyParams, Powers, Witness, StepRecord, ...), and
those calls were a large share of its time.

frozen(cls) is dataclass(frozen=True, init=False, ...) plus an __init__
with the generated one's signature and defaults that stores the fields
item by item into the instance dict, in field order, and then calls
__post_init__ if the class has one.  Everything else is the stock
dataclass: __setattr__ and __delattr__ still raise FrozenInstanceError,
and __eq__, __hash__, __repr__, ordering, fields(), replace(), pickling
and copying are the ones dataclass generates or inherits.  Instances hold
the same dict, in the same order, as with the generated __init__, so they
pickle to the same bytes.

On CPython 3.11 touching __dict__ moves an instance off the inline-value
layout, which makes each attribute read slower.  Item assignment was still
the fastest way to fill the dict end to end, ahead of one __dict__.update
or a whole new __dict__; a __slots__ layout ran about as fast but would
need its own pickle state to keep the bytes (see CHANGES.md).

Two paths fill instances on object.__new__ without any __init__:
HardyParams.swapped() and Powers.swapped() store an already checked
instance's values item by item, and regions._wrap copies a prebuilt field
dict from its table with one dict.update, then stores the margin over the
table's placeholder.  Either way the dict holds the same keys, in field
order, bound to the same objects as __init__ would leave, and pickle
writes an instance as its class and that dict, so the pickles are byte
for byte the same; the tests compare them.
"""

from __future__ import annotations

import dataclasses
import inspect

__all__ = ["frozen"]


def frozen(cls=None, /, **options):
    """dataclass(frozen=True, **options) with a dict-storing __init__.

    Usable as @frozen or @frozen(order=True).  Fields with a default
    factory, init=False fields, InitVar and keyword-only fields are not
    supported (an InitVar would not reach __init__): no value type of the
    package needs them.
    """
    def wrap(cls):
        generated_doc = not cls.__doc__
        cls = dataclasses.dataclass(cls, frozen=True, init=False, **options)
        cls.__init__ = _dict_init(cls)
        if generated_doc:
            # what dataclass writes when the class has no docstring
            cls.__doc__ = cls.__name__ + str(
                inspect.signature(cls)).replace(" -> None", "")
        return cls

    return wrap if cls is None else wrap(cls)


def _dict_init(cls):
    """An __init__ storing every field through self.__dict__, in order."""
    fields = dataclasses.fields(cls)
    if any(f.default_factory is not dataclasses.MISSING or not f.init
           or f.kw_only for f in fields):
        raise TypeError(f"frozen: {cls.__name__} has a field with a default "
                        f"factory, init=False or kw_only")
    names = [f.name for f in fields]
    namespace = {f"_default_{f.name}": f.default for f in fields
                 if f.default is not dataclasses.MISSING}
    params = ", ".join(f"{n}=_default_{n}" if f"_default_{n}" in namespace
                       else n for n in names)
    lines = [f"def __init__(self, {params}):", "    state = self.__dict__"]
    lines += [f"    state[{n!r}] = {n}" for n in names]
    if hasattr(cls, "__post_init__"):
        # looked up on the instance, so a __post_init__ wrapped later runs
        lines.append("    self.__post_init__()")
    exec("\n".join(lines), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = {**{f.name: f.type for f in fields},
                            "return": None}
    return init
