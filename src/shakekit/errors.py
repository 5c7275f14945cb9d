"""Shared exception types and the strict scalar checks of the JSON decoders."""


class DomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


def strict_int(value: object, what: str) -> int:
    """value itself if it is an int, never a bool, float or string coerced to one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected integer {what}, got {value!r}")
    return value


def strict_keys(doc: dict, allowed: tuple[str, ...], what: str) -> None:
    """Refuse a key of doc outside allowed, so a misspelt key is never ignored."""
    unknown = [key for key in doc if key not in allowed]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r} in {what}; allowed keys: "
                         + ", ".join(map(repr, allowed)))


def strict_bool(value: object, what: str) -> bool:
    """value itself if it is a bool, never a string or number coerced to one."""
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false for {what}, got {value!r}")
    return value
