"""README.md names only what the package has, and nothing private.

Every backticked ``fairorder.<module>[.<name>...]`` or
``<module>.<name>...`` (a package module, then attributes) must import and
resolve, and no backticked name may have a private part (one that starts
with ``_``): the README states contracts, and the mechanism behind them
lives in docstrings.  Every ``fairorder ...`` line of its bash blocks must
parse with the CLI's own parser.
"""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import fairorder
from fairorder import cli

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(fairorder.__path__)}
# a dotted name, optionally called: `payoff_table()`, `fairorder.domain`
NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def problems(text) -> list:
    """What is wrong with the backticked names in ``text``."""
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = NAME.fullmatch(span)
        if not match:
            continue
        parts = match.group(1).split(".")
        if any(part.startswith("_") for part in parts):
            found.append(f"`{span}` names a private symbol")
            continue
        if parts[0] == "fairorder" and len(parts) > 1:
            parts = parts[1:]
        elif parts[0] not in MODULES or len(parts) < 2:
            continue
        if parts[0] not in MODULES:
            found.append(f"`{span}`: fairorder has no module {parts[0]!r}")
            continue
        target = importlib.import_module(f"fairorder.{parts[0]}")
        for part in parts[1:]:
            if not hasattr(target, part):
                found.append(f"`{span}`: {part!r} does not resolve")
                break
            target = getattr(target, part)
    return found


def command_lines(text) -> list:
    """The lines of ``text``'s bash blocks that run ``fairorder``."""
    blocks = re.findall(r"```bash\n(.*?)```", text, re.DOTALL)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("fairorder ")]


def unparsable(lines) -> list:
    """The ``lines`` that ``fairorder``'s parser rejects; none is run."""
    parser = cli.build_parser()
    rejected = []
    for line in lines:
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            rejected.append(line)
    return rejected


def test_readme_names_resolve_and_none_is_private():
    text = README.read_text(encoding="utf-8")
    assert not problems(text)
    # the module rows are checked, not skipped
    assert "`fairorder.domain`" in text and "`fairorder.analysis`" in text


def test_the_check_catches_what_it_should():
    assert problems("`analysis._Piecewise` and `_SCENARIOS`") == [
        "`analysis._Piecewise` names a private symbol",
        "`_SCENARIOS` names a private symbol",
    ]
    assert problems("`fairorder.domain.exact_ratio(x, what)` `consensus.OrderingPolicy.parse`"
                    " `harness.run_experiment`") == []
    assert problems("`fairorder.oracle` `domain.rational` `analysis.LOWER_BOUND.upper.x`") == [
        "`fairorder.oracle`: fairorder has no module 'oracle'",
        "`domain.rational`: 'rational' does not resolve",
        "`analysis.LOWER_BOUND.upper.x`: 'x' does not resolve",
    ]
    # not a package name: left alone
    assert problems("`dataclasses.replace` `run_experiments.py` `results/` `1/5`") == []


def test_readme_command_lines_parse():
    lines = command_lines(README.read_text(encoding="utf-8"))
    # the CLI block is checked, not skipped
    assert any(line.startswith("fairorder simulate ") for line in lines)
    assert any(line.startswith("fairorder sro-demo ") for line in lines)
    assert unparsable(lines) == []


def test_the_command_check_catches_what_it_should():
    text = ("```bash\n# a comment\nfairorder bounds --n 3 --alpha 1/5\n"
            "fairorder sro-demo --k 7\nfairorder simulate\n```\n"
            "```text\nfairorder attack sandwich --policy pompe\n```\n")
    lines = command_lines(text)
    # only bash blocks are read
    assert lines == ["fairorder bounds --n 3 --alpha 1/5", "fairorder sro-demo --k 7",
                     "fairorder simulate"]
    # a removed subcommand, and a missing argument
    assert unparsable(lines) == ["fairorder bounds --n 3 --alpha 1/5", "fairorder simulate"]
