"""DESIGN.md's experiment index names runners that exist.

Section 4 of DESIGN.md maps every experiment id to the one runner that
produces it.  A runner that is deleted or renamed without the index
following it leaves an experiment with no way to regenerate it, so this
test resolves everything the table names: file paths (after brace
expansion, with ``::Class`` test selectors), dotted ``repro.…`` names, and
``python -m repro`` subcommands with their options.
"""

import contextlib
import importlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PATH = re.compile(r"\b(?:benchmarks|examples|tests)/[\w/{},.]+\.py(?:::\w+)?")
NAME = re.compile(r"\brepro(?:\.\w+)+")
COMMAND = re.compile(r"python -m repro ([a-z]+)((?: --[\w-]+(?: [^\s`-][^\s`]*)?)*)")


def _index_rows() -> dict[str, str]:
    """Experiment id -> its table row, from DESIGN.md section 4."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## 4.", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] not in ("Exp id", "---"):
            rows[cells[0]] = line
    return rows


def _brace_expand(path: str) -> list[str]:
    match = re.search(r"\{([^{}]*)\}", path)
    if match is None:
        return [path]
    head, tail = path[: match.start()], path[match.end() :]
    return [
        expanded
        for part in match.group(1).split(",")
        for expanded in _brace_expand(head + part + tail)
    ]


def _resolve(name: str) -> object:
    """Import the longest module prefix of ``name``; getattr the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ModuleNotFoundError(name)


def _cli_help(subcommand: str) -> str | None:
    """``repro SUBCOMMAND --help`` output, or None if there is no such command."""
    from repro.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main([subcommand, "--help"])
        except SystemExit as exit_:
            if exit_.code == 0:
                return out.getvalue()
    return None


def _problems(exp_id: str, row: str) -> list[str]:
    problems, references = [], 0
    for span in re.findall(r"`([^`]+)`", row):
        for found in PATH.findall(span):
            for path in _brace_expand(found):
                references += 1
                file, _, selector = path.partition("::")
                if not (ROOT / file).is_file():
                    problems.append(f"{exp_id}: {file} does not exist")
                elif selector and not re.search(
                    rf"^(class|def) {selector}\b",
                    (ROOT / file).read_text(encoding="utf-8"),
                    re.M,
                ):
                    problems.append(f"{exp_id}: no {selector} in {file}")
        for name in NAME.findall(span):
            references += 1
            try:
                _resolve(name)
            except (ImportError, AttributeError):
                problems.append(f"{exp_id}: {name} does not resolve")
        for subcommand, options in COMMAND.findall(span):
            references += 1
            usage = _cli_help(subcommand)
            if usage is None:
                problems.append(f"{exp_id}: no `python -m repro {subcommand}`")
                continue
            problems += [
                f"{exp_id}: `repro {subcommand}` has no {option}"
                for option in re.findall(r"--[\w-]+", options)
                if option not in usage
            ]
    if not references:
        problems.append(f"{exp_id} names nothing that can be checked")
    return problems


def test_every_experiment_names_a_runner_that_exists():
    rows = _index_rows()
    assert {"T1", "T4", "T5", "K*", "A1", "A2", "S1", "X1", "P1", "W1", "F7"} <= set(rows)
    problems = [
        problem for exp_id, row in rows.items() for problem in _problems(exp_id, row)
    ]
    assert problems == []
