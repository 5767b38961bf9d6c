"""The README's code runs as written."""

import re
import shlex
from pathlib import Path

from causalprecode import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    # the support its first comment shows
    assert capsys.readouterr().out.startswith("[(1, 2), (2, 1)] ")


def test_cli_examples_parse():
    # Every command line of the CLI block names only options the parser has;
    # argparse exits 2 on any other. Nothing is run.
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("causalprecode ")]
    assert len(commands) == 6, commands  # one per subcommand
    for argv in commands:
        cli.build_parser().parse_args(argv[1:])
