"""The committed mutant table stays applicable, and its runner refuses a
mutant whose old text is gone or whose tests hang. Running the mutants
themselves is a separate step: ``python3 tests/mutants.py``."""

import subprocess

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_once_in_the_package(mutant):
    text = (mutants.ROOT / "src" / "dynroute" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


def test_a_mutant_whose_old_text_is_missing_fails_the_run(monkeypatch, capsys):
    gone = mutants.Mutant("gone", "planners.py", "no such text\n", "", ("tests/test_planners.py",))
    monkeypatch.setattr(mutants, "MUTANTS", (gone,))
    assert mutants.main([]) == 1
    assert "gone: ERROR old text found 0 times in planners.py, expected once" \
        in capsys.readouterr().out


def test_an_unknown_mutant_name_is_a_usage_error(capsys):
    assert mutants.main(["no-such-mutant"]) == 2
    assert "unknown mutant(s): no-such-mutant" in capsys.readouterr().err


def test_a_mutant_whose_tests_hang_fails_the_run(monkeypatch, capsys):
    def hang(command, **kwargs):
        raise subprocess.TimeoutExpired(command, kwargs["timeout"])

    monkeypatch.setattr(mutants.subprocess, "run", hang)
    assert mutants.main(["start-parent-not-reset"]) == 1
    assert (f"start-parent-not-reset: ERROR tests still running after {mutants.TIMEOUT_S} s: "
            "they hang on this mutant") in capsys.readouterr().out
