"""The README's examples still run as written."""

import contextlib
import io
import re
from pathlib import Path

from stagecraft.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def only(pattern: str) -> str:
    found = re.findall(pattern, README, flags=re.DOTALL)
    assert len(found) == 1, f"README should hold exactly one match of {pattern!r}"
    return found[0]


def test_python_quick_start_runs_and_passes():
    block = only(r"## Quick start \(Python\)\s+```python\n(.*?)```")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().startswith("True ")


def test_chain_converse_example_passes(tmp_path, capsys):
    config = only(r"cat > chain\.json <<'EOF'\n(.*?)\nEOF\n")
    command = only(r"\nEOF\nstagecraft ([^\n]+)\n")
    (tmp_path / "chain.json").write_text(config, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg.startswith("chain") else arg for arg in command.split()]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("PASS")
