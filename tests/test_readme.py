"""The README agrees with the code: the library example runs, the flags match the CLI."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    corr = namespace["corr"]
    assert corr.shape == (11, 121)
    assert corr.max() <= 1.0 and corr.min() > 0.0


def test_value_flag_bullets_match_the_command_table():
    # each README bullet "- `--flag ARG` (`cmd`, ...) → `section.key`;" is
    # one row of cli._FLAGS, and lists exactly the commands that take the flag
    from splitgas.cli import _COMMANDS, _FLAGS

    text = README.read_text(encoding="utf-8")
    bullets = re.findall(r"^- `(--[\w-]+)[^`]*` \(([^)]*)\) → `(\w+)\.(\w+)`[;.]$", text,
                         re.MULTILINE)
    assert sorted(flag for flag, *_ in bullets) == sorted(_FLAGS)
    for flag, commands, section, key in bullets:
        assert (section, key) == _FLAGS[flag][:2], flag
        takers = sorted(name for name, (_, _, flags) in _COMMANDS.items() if flag in flags)
        assert sorted(re.findall(r"`([\w-]+)`", commands)) == takers, flag


def test_exit_code_sentence_matches_the_error_types():
    # "Exit codes: 0 success, 2 configuration error, ..." lists each error type's
    # exit_code and label, the pair cli.main prints and returns
    from splitgas.errors import SplitGasError

    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(r"Exit codes: ([^.]*)\.", text).group(1)
    types = sorted(SplitGasError.__subclasses__(), key=lambda cls: cls.exit_code)
    assert sentence.split(", ") == ["0 success", *(f"{cls.exit_code} {cls.label}"
                                                     for cls in types)]
