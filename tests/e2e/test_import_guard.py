"""numpy is the only runtime dependency: no repro process loads scipy.

The check runs in a subprocess because the test process has scipy
loaded already (pytest's ``filterwarnings`` setting names a
``scipy.stats`` warning, and scipy is the tests' oracle).  The child
installs an import hook that refuses every ``scipy`` module, imports the
CLI, service and fleet packages, and runs ``repro generate`` in-process.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

from .test_serve_cli import ENV

CHILD = textwrap.dedent("""
    import importlib.abc
    import sys


    class RefuseScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] == "scipy":
                raise ImportError(f"{name} is not a runtime dependency")
            return None


    sys.meta_path.insert(0, RefuseScipy())

    import repro.cli
    import repro.fleet
    import repro.service

    code = repro.cli.main(sys.argv[1:])
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
    print("scipy modules:", loaded)
    sys.exit(code or bool(loaded))
""")


def test_generate_runs_without_scipy(tmp_path: Path):
    out = tmp_path / "ds"
    result = subprocess.run(
        [sys.executable, "-c", CHILD, "generate", "--small",
         "--countries", "US", "KR", "--out", str(out)],
        env=ENV, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "scipy modules: []" in result.stdout, result.stdout
    assert "wrote " in result.stdout and (out / "manifest.json").is_file()
