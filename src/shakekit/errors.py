"""Shared exception types and the strict scalar checks of the JSON decoders."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


def strict_int(value: object, what: str) -> int:
    """value itself if it is an int, never a bool, float or string coerced to one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected integer {what}, got {value!r}")
    return value


def strict_bool(value: object, what: str) -> bool:
    """value itself if it is a bool, never a string or number coerced to one."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false for {what}, got {value!r}")
    return value
