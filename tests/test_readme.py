"""README.md names only what the package has, and nothing private.

Every backticked ``fairorder.<module>[.<name>...]`` or
``<module>.<name>...`` (a package module, then attributes) must import and
resolve, and no backticked name may have a private part (one that starts
with ``_``): the README states contracts, and the mechanism behind them
lives in docstrings.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import fairorder

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
