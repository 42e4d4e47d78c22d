"""Every mutant in mutants.py fails the tests it names.

Each mutant is applied to a copy of src/ under tmp_path, and its test ids
run in a child interpreter.  The child imports ramibound from the copy
before pytest starts, so the `pythonpath = ["src"]` setting, which puts
the checkout's src/ first on sys.path, cannot shadow it: the package is
already in sys.modules, and its submodules load from the copy.  The child
prints the file it imported, and the test checks it.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import pytest
import ramibound
code = pytest.main(["-x", "-q", "-p", "no:cacheprovider", *sys.argv[2:]])
print("ramibound imported from", ramibound.__file__)
sys.exit(code)
"""


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fails_its_tests(tmp_path, mutant):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    target = src / "ramibound" / mutant.file
    text = target.read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1, f"{mutant.old!r} must occur once in {mutant.file}"
    target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), *mutant.kills],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert f"ramibound imported from {src / 'ramibound' / '__init__.py'}" in done.stdout
    # 1 is pytest's code for failed tests; 4 or 5 would mean an id that is
    # not collected
    assert done.returncode == 1, done.stdout[-2000:]
