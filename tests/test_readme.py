"""README's "Library use" block runs against the library as it is."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _library_use_block():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the block names scenario files relative to the root
    scope = {}
    exec(compile(_library_use_block(), "README.md", "exec"), scope)
    result, report = scope["result"], scope["report"]
    assert capsys.readouterr().out == (
        f"{result.completed} {result.steps} {report.event_counts['uav_uav_collision']}\n")
    assert result.steps == len(result.states) - 1 > 0
    assert set(scope["last"]) == {u.id for u in scope["sc"].uavs}
