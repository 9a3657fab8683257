"""Importing pdslab leaves scipy.stats and scipy.special unloaded.

`import pdslab` pays for every module it pulls in on each CLI command, and
scipy.stats alone cost more than half of it. The ridge core's scipy.linalg is
the one scipy import the package needs. This counts modules in a fresh
interpreter rather than timing it, so it cannot flake.
"""
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("scipy.stats", "scipy.special")


def test_import_leaves_scipy_stats_and_special_unloaded():
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); "
        "import pdslab, pdslab.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=120)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "pdslab.cli" in loaded
    assert [name for name in UNWANTED if name in loaded] == []
