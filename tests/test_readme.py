"""The README's Python example runs as written and prints what it promises,
and every command its INI block configures runs on that block as written."""

import contextlib
import io
import re
from pathlib import Path

from cauchygf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_prints_the_rabi_splitting():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert abs(float(printed.getvalue()) - 0.2758) <= 1e-4


def test_readme_ini_block_runs_every_command_it_configures(tmp_path):
    blocks = re.findall(r"^```ini\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    config = tmp_path / "run.ini"
    config.write_text(blocks[0])
    for command, *flags in (["dos"], ["sum-rules"], ["mc-compare", "--samples", "200"]):
        argv = [command, "--config", str(config), "--quiet", "--out", str(tmp_path / command)]
        assert main(argv + flags) == 0, command
