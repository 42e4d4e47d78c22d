"""The module dependency graph: each module, imported alone in a fresh
interpreter, loads exactly the ramibound modules below it.  The package
root imports nothing, so it adds none.  The tests' reference module loads
none at all."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

BELOW = {
    "series": set(),
    "eisenstein": {"series"},
    "bounds": {"series"},
    "breuil": {"series", "eisenstein"},
    "oracle": {"series", "eisenstein", "breuil"},
    "suites": {"series", "eisenstein", "breuil", "oracle"},
    "cli": {"series", "eisenstein", "bounds", "breuil", "oracle", "suites"},
}

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import importlib
importlib.import_module("ramibound." + sys.argv[2])
print(" ".join(m for m in sys.modules if m.startswith("ramibound.")))
"""


@pytest.mark.parametrize("module", BELOW)
def test_module_loads_only_the_modules_below_it(module):
    done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), module],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = {m.removeprefix("ramibound.") for m in done.stdout.split()}
    assert loaded == BELOW[module] | {module}


def test_reference_module_loads_no_ramibound_module():
    # the child finds ramibound too, so any import of it would load
    child = "import sys; sys.path[:0] = sys.argv[1:]; import reference; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", child, str(SRC.parent / "tests"), str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert "reference" in done.stdout.split()
    assert not [m for m in done.stdout.split() if m.startswith("ramibound")]
