"""pdslab imports and runs without scipy.

`import pdslab` pays for every module it pulls in on each CLI command, and
scipy.linalg alone took about half of that when the ridge core imported it.
These tests count modules in a fresh interpreter, or block scipy there,
rather than timing the import, so they cannot flake.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# a meta-path finder that refuses every scipy module, ahead of the real ones
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
        return None

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
except ModuleNotFoundError:
    pass
else:
    raise SystemExit("the scipy block did not hold")
"""


def _python(code, **kwargs):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_import_loads_no_scipy_module():
    code = (
        f"import json, sys; sys.path.insert(0, {str(SRC)!r}); "
        "import pdslab, pdslab.cli; "
        "print(json.dumps(sorted(sys.modules)))"
    )
    done = _python(code)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert "pdslab.cli" in loaded
    assert [name for name in loaded if name == "scipy" or name.startswith("scipy.")] == []


def test_readme_config_runs_with_scipy_blocked(tmp_path):
    cli = (ROOT / "README.md").read_text().split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    (tmp_path / "experiment.json").write_text(re.findall(r"```json\n(.*?)```", cli, flags=re.S)[0])
    code = BLOCK_SCIPY + (
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from pdslab.cli import entrypoint\n"
        "raise SystemExit(entrypoint(['run', '--config', 'experiment.json']))\n"
    )
    done = _python(code, cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 60  # 3 n1 cells x 4 methods x 5 seeds
