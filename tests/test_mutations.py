"""The mutation table (`mutations.py`) stays applicable; `scripts/mutate.py`
runs its rows, and nothing here applies one."""

import re
from pathlib import Path

from mutations import MUTATIONS

ROOT = Path(__file__).resolve().parents[1]


def test_every_row_applies():
    """Each row's text occurs exactly once in its file and is not its
    replacement, each test it names exists, and no two rows share an id."""
    assert len({row.id for row in MUTATIONS}) == len(MUTATIONS)
    for row in MUTATIONS:
        assert (ROOT / row.file).read_text().count(row.text) == 1, row.id
        assert row.text != row.replacement and row.kills, row.id
        for test in row.kills:
            path, *names = test.split("::")
            text = (ROOT / path).read_text()
            for name in names:
                assert re.search(rf"^\s*(def|class) {re.escape(name.split('[')[0])}\b", text, re.M), test
