"""Record, the one base of the package's immutable value classes.

A record class declares each field once, as a class annotation, in
order; a class attribute of the same name is that field's default, and
an optional _validate(self) refuses bad values once the fields are set.
The base gives every record the behaviour of a frozen dataclass without
importing dataclasses, which pulls in inspect, ast and dis:

- == holds only between two records of the same class with equal fields;
- hash is the hash of the tuple of fields, stored once at construction;
- repr is Name(field=value, ...);
- assigning or deleting an attribute raises AttributeError;
- copy and pickle rebuild a record through its constructor.

Each class gets one generated method that takes the fields as parameters,
with their defaults, stores them and the tuple of them and calls
_validate.  It is the class's __init__, or _assign where the class
defines its own __init__, which then calls self._assign.  A generic
__init__ over *args costs about 200 ns more per record on CPython 3.11,
over 3% of a certify_complexity call at a small c.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _validate = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        defaults = {f"{name}_default": cls.__dict__[name]
                    for name in fields if name in cls.__dict__}
        params = "".join(f", {name}={name}_default" if f"{name}_default" in defaults
                         else f", {name}" for name in fields)
        body = [f"    _set(self, {name!r}, {name})\n" for name in fields]
        body.append(f"    _set(self, '_key', ({''.join(f'{name}, ' for name in fields)}))\n")
        if cls._validate is not None:
            body.append("    self._validate()\n")
        method = "_assign" if "__init__" in cls.__dict__ else "__init__"
        namespace = {"_set": _set, **defaults}
        exec(f"def {method}(self{params}):\n{''.join(body)}", namespace)
        namespace[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, namespace[method])
        cls._fields = fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._key
