"""The base of the immutable value types.

Each value type lists its fields in __slots__ and sets them once in its
own __init__, through object.__setattr__; it also writes its own __eq__,
__hash__ and __repr__.  Afterwards any assignment or deletion raises
AttributeError.  copy and pickle still work: they build an instance
without __init__ and restore its fields by __setstate__.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # the (instance dict or None, slot values) pair of object's default reduction
        instance_dict, slots = state
        for name, value in {**(instance_dict or {}), **slots}.items():
            object.__setattr__(self, name, value)
