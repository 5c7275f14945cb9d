import inspect
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def kernel_calls(monkeypatch) -> list[SimpleNamespace]:
    """Every exactlinalg._kernel call from here on, in order, as it was made.

    Each call holds _kernel's arguments by name, defaults included, with
    rows copied before the elimination rewrites them; its result, or None;
    its error, the exception it raised, or None; and steps, the rows each
    step took (the path it was given, or a fresh list where it was given
    none, so that every call leaves its path).
    """
    from shakekit import exactlinalg

    calls = []
    real = exactlinalg._kernel
    signature = inspect.signature(real)

    def record(*args, **kwargs):
        named = signature.bind(*args, **kwargs)
        named.apply_defaults()
        call = SimpleNamespace(**named.arguments, result=None, error=None)
        call.rows = [dict(row) for row in call.rows]
        call.steps = named.arguments["path"] = [] if call.path is None else call.path
        calls.append(call)
        try:
            call.result = real(*named.args, **named.kwargs)
        except Exception as exc:
            call.error = exc
            raise
        return call.result

    monkeypatch.setattr(exactlinalg, "_kernel", record)
    return calls
