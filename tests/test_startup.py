"""What a CLI process imports before it reads its inputs.

Every check of an array is one short process, so start-up is a large
share of its cost.  `dataclasses` pulls in `inspect`, `ast`, `dis` and
`tokenize`, and generating each class's methods compiles fresh source in
every process; the package's value types do without it.  The benchmark's
tracer reads every layer module from `sys.modules` once it has imported
`anonarray` and `anonarray.cli`, so those imports still load them all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("io", "model", "constraints", "verify", "homogeneity", "construct")


def _modules_after(statement):
    """Names in sys.modules of a fresh interpreter after `statement`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    bare = _modules_after("pass")
    added = _modules_after("import anonarray.cli") - bare
    assert "anonarray.cli" in added
    assert not {"dataclasses", "inspect"} & added


def test_package_and_cli_imports_load_every_layer_module():
    # the benchmark imports both, then looks the six layers up
    loaded = _modules_after("import anonarray, anonarray.cli")
    assert {f"anonarray.{layer}" for layer in LAYERS} <= loaded
    # the package itself loads every layer it takes names from
    loaded = _modules_after("import anonarray")
    assert {f"anonarray.{layer}" for layer in LAYERS if layer != "io"} <= loaded
