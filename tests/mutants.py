"""Mutants of src/ramibound that named tests must kill.

Each entry names a file under src/ramibound, a text that occurs there
exactly once, its replacement, and the test ids that must fail once the
replacement is made.  test_mutants.py applies each entry to a copy of src/
and runs its ids against that copy.  A refactor that moves a mutated text
makes that test fail: update the entry, do not drop it.  Keep each id to a
test under 0.5 s.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...]


KERNEL_TEST = "tests/test_eisenstein.py::test_charpoly_mod_on_seeded_matrices"

MUTANTS = [
    # the first nonzero entry below the subdiagonal, not the least valuation
    Mutant("charpoly-pivot-first-nonzero", "eisenstein.py",
           "if g == 1:", "if g < q:", (KERNEL_TEST,)),
    Mutant("charpoly-column-update-dropped", "eisenstein.py",
           "row[r] = sum(map(mul, gs, row[r:])) % q", "row[r] %= q", (KERNEL_TEST,)),
    # h_im alone, without the product h_{i+1,i} ... h_{m,m-1}
    Mutant("charpoly-subdiagonal-product-dropped", "eisenstein.py",
           "c = H[i][m] * t", "c = H[i][m]", (KERNEL_TEST,)),
    # Prop 2's p-power kill check on the witnesses, skipped
    Mutant("prop2-kill-check-skipped", "oracle.py",
           "if kill > 1:", "if False:",
           ("tests/test_oracle.py::test_prop2_kill_check_catches_a_wrong_tau",)),
]
