"""Every function defined in `src/utm_sim` runs under the command line.

A function or method that no command enters is either a second copy of a law
that runs elsewhere or a member kept only for the tests; either way it belongs
in the tests, not in the program. Three commands cover the program: `compare`
(planning, both controllers, report and export), `run` with `--max-steps`
(the option's parser) and `plan`; `compare` runs two seeds with `--jobs 2`,
so that the calling process enters the fork path. They run in-process under
`sys.setprofile`, and every `def` in `src/utm_sim/*.py`, found with `ast`,
must be entered, except the entries of `ALLOWED`.
"""

import ast
import os
import sys
from pathlib import Path

import utm_sim
from utm_sim.scenario_cli import main

SRC = Path(utm_sim.__file__).resolve().parent
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (module, qualified name) -> why no command enters it
ALLOWED = {
    ("geom2d", "_in_box"): "only the collinear or endpoint-touching branch of "
                           "segments_intersect calls it, which no shipped scenario "
                           "hits; test_geom2d covers that branch",
    ("vo_core", "FeasibleSet.candidates"): "read by bench/tracer.py and the tests; ROADMAP "
                                           "item 6 removes them once the tracer reads a "
                                           "decision trace",
    ("vo_core", "_PolarGrid.candidates"): "read by bench/tracer.py and the tests; ROADMAP "
                                          "item 6 removes them once the tracer reads a "
                                          "decision trace",
}


def _defined() -> dict[tuple[str, int, str], str]:
    """(module, first line, name) -> qualified name, for every function and method.

    The first line is the code object's `co_firstlineno`: that of the first
    decorator, if any, else of the `def`. Matching code objects by it, not by
    `co_qualname`, works on Python 3.10 too.
    """
    found = {}

    def visit(module: str, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(module, child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first, child.name)] = prefix + child.name
                visit(module, child, f"{prefix}{child.name}.<locals>.")

    for path in sorted(SRC.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def _entered(commands: list[list[str]]) -> set[tuple[str, int, str]]:
    """(module, first line, name) of every package function the commands call."""
    # a warm cache would hide the function it wraps
    for name in list(sys.modules):
        if name.startswith("utm_sim."):
            for obj in vars(sys.modules[name]).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        for argv in commands:
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    return {(Path(filename).stem, first, name) for filename, first, name in codes
            if Path(filename).resolve().parent == SRC}


def test_every_function_runs_under_the_cli(tmp_path, monkeypatch):
    # 2 usable cores on any host, so that `--jobs 2` forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    entered = _entered([
        ["compare", "--scenario", str(SCENARIOS / "corner_corridor.json"),
         "--seeds", "1..2", "--jobs", "2", "--out", str(tmp_path / "compare")],
        ["run", "--scenario", str(SCENARIOS / "head_on_duel.json"), "--algo", "apf",
         "--seed", "1", "--max-steps", "5", "--out", str(tmp_path / "run")],
        # head_on_duel has no rectangles; here an edge test finds no witness,
        # and only that runs the crossing test
        ["plan", "--scenario", str(SCENARIOS / "paper_like_5uav.json"),
         "--seed", "1", "--out", str(tmp_path / "plan")],
    ])
    qualnames = _defined()
    defined = {(module, qualname) for (module, _, _), qualname in qualnames.items()}
    entered = {(key[0], qualnames[key]) for key in entered if key in qualnames}
    assert set(ALLOWED) <= defined, "an allowlist entry names no function"
    assert sorted(defined - entered - set(ALLOWED)) == []
    # an allowlisted function that the commands now reach needs no entry
    assert sorted(set(ALLOWED) & entered) == []
