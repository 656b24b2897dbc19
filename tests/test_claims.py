"""The claim ledger in README.md names, for each claim of the abstract,
the `verify` checks and bundled `rigidity` specs that bear on it."""

import re
from importlib import resources
from pathlib import Path

from wickstar.suites import run_suites

README = Path(__file__).resolve().parent.parent / "README.md"


def _ledger() -> dict:
    """claim -> (checks, specs), from the table under the ledger heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Claims and the checks behind them", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and re.fullmatch(r"C\d", cells[0]):
            claim, _, checks, specs = cells
            # the names are the backticked words outside the notes in
            # parentheses, which quote other symbols
            names = [re.findall(r"`([A-Za-z0-9-]+)`", re.sub(r"\([^)]*\)", "", c))
                     for c in (checks, specs)]
            rows[claim] = tuple(names)
    return rows


def test_every_claim_names_existing_checks_and_specs():
    ledger = _ledger()
    assert sorted(ledger) == ["C0", "C1", "C2", "C3", "C4"]
    printed = {c["name"] for c in run_suites(seed=0)["checks"]}
    bundled = {p.name.removesuffix(".json")
               for p in resources.files("wickstar").joinpath("specs").iterdir()}
    named = set()
    for claim, (checks, specs) in ledger.items():
        assert checks or specs, claim
        assert set(checks) <= printed, (claim, set(checks) - printed)
        assert set(specs) <= bundled, (claim, set(specs) - bundled)
        named |= set(checks)
    # every check verify prints bears on some claim
    assert printed <= named, printed - named
