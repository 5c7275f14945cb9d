"""What `import shakekit.cli` loads: no dataclasses machinery, every traced module."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {module for module, _, _ in tracing.SPANS + tracing.LEAVES}

    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import shakekit.cli; "
            "print(json.dumps(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(json.loads(proc.stdout))
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}
    assert traced <= loaded
