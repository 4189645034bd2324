"""The differential replay script (scripts/diffcheck.py): two copies of
HEAD agree on every argv, and a change planted in one copy's usage
messages is found and named by its argv. Both sides are HEAD's export, so
the tests check the script and not the checkout's uncommitted diff."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
_SPEC = importlib.util.spec_from_file_location("diffcheck", _SCRIPTS / "diffcheck.py")
diffcheck = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diffcheck)


def _in_git_checkout():
    try:
        return subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=_SCRIPTS,
                              capture_output=True).returncode == 0
    except OSError:
        return False


needs_git = pytest.mark.skipif(not _in_git_checkout(), reason="not in a git checkout")


def _head_as_the_tree(monkeypatch, tmp_path, plant=lambda text: text):
    """Make two_trees load a copy of REV's export, its cli.py rewritten by
    ``plant``, in place of the working tree."""
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    import two_trees

    copy, load = tmp_path / "compcount", two_trees.load

    def load_rev_twice(name, directory):
        if name == two_trees.REV_NAME:  # loaded first, while its export exists
            shutil.copytree(directory, copy)
            cli = copy / "cli.py"
            cli.write_text(plant(cli.read_text()))
        return load(name, directory if name == two_trees.REV_NAME else copy)

    monkeypatch.setattr(two_trees, "load", load_rev_twice)


@needs_git
def test_two_copies_of_head_agree_on_every_argv(monkeypatch, capsys, tmp_path):
    _head_as_the_tree(monkeypatch, tmp_path)
    assert diffcheck.main(["HEAD", "--count", "50"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    goldens = len(json.loads(diffcheck.GOLDEN.read_text()))
    assert line.startswith(f"diffcheck: HEAD and the working tree agree on {goldens + 50} argv"
                           f" ({goldens} goldens, 50 drawn with seed 0); exit codes 0: ")


@needs_git
def test_a_planted_usage_change_exits_1_and_names_its_argv(monkeypatch, capsys, tmp_path):
    _head_as_the_tree(monkeypatch, tmp_path,
                      lambda text: text.replace('"unknown command ', '"no such command '))
    assert diffcheck.main(["HEAD", "--count", "50"]) == 1
    head, rev, tree = capsys.readouterr().out.splitlines()
    argv = json.loads(head.removeprefix("diffcheck: ").removesuffix(" differs"))
    # The argv named is one whose refusal the planted change rewords.
    assert rev.startswith("  HEAD: exit 2; stderr ") and (
        f"compcount: unknown command {argv[0]!r}" in rev)
    assert tree.startswith("  tree: exit 2; stderr ") and (
        f"compcount: no such command {argv[0]!r}" in tree)


def test_an_unknown_rev_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(_SCRIPTS))
    with pytest.raises(SystemExit) as exited:
        diffcheck.main(["no/such/rev", "--count", "0"])
    assert exited.value.code == 2
    assert ": error: cannot " in capsys.readouterr().err
