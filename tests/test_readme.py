"""The README's Python and CLI examples run as written, so a public name,
flag or config key they use cannot change without the README changing
with it."""

import re
import shlex
from pathlib import Path

from unruh_steering.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run_in_order(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
    assert capsys.readouterr().out


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    """Each ``# NAME.cfg`` block is written to NAME.cfg, then every
    ``unruh-steering`` command line runs through ``cli.main``."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    monkeypatch.chdir(tmp_path)
    commands = []
    for block in blocks:
        header = re.match(r"# (\S+\.cfg)\n", block)
        if header:
            (tmp_path / header.group(1)).write_text(block, encoding="utf-8")
        else:
            lines = block.replace("\\\n", " ").splitlines()
            commands += [shlex.split(line) for line in lines if line.startswith("unruh-steering ")]
    assert len(commands) >= 4 and list(tmp_path.glob("*.cfg"))
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    for argv in commands:
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
