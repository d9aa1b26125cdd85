"""Replay the mutation table `tests/mutations.py`: `python scripts/mutate.py`.

The rows' tests first run on an unmutated copy of the checkout, which must
pass them.  Then, one row at a time, the checkout (without `.git` and
caches) is copied into a temporary directory, the row is applied, and its
tests run there with `pytest -x -q -p no:cacheprovider`: `killed` when one
fails, `survived` when all pass, an error for any other pytest exit.  Exits
1 unless every row is killed.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
from mutations import MUTATIONS  # noqa: E402

CACHES = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "*.egg-info", ".perfbench", "build")


def pytest(row=None, tests=None) -> int:
    """pytest's exit code on `tests` (the row's) in a fresh copy of the
    checkout with the row applied (none applied for no row)."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=CACHES)
        if row is not None:
            path = copy / row.file
            text = path.read_text()
            if text.count(row.text) != 1:
                raise SystemExit(f"{row.id}: its text is not once in {row.file}")
            path.write_text(text.replace(row.text, row.replacement))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(copy / "src"), os.environ.get("PYTHONPATH")) if p)}
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *(tests or row.kills)]
        return subprocess.run(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode


def main() -> int:
    every = dict.fromkeys(test for row in MUTATIONS for test in row.kills)
    every = [test for test in every if test.partition("::")[0] == test or
             test.partition("::")[0] not in every]  # a node id of a file listed whole
    if pytest(tests=every) != 0:
        print(f"the unmutated checkout fails {' '.join(every)}")
        return 1
    failed = 0
    for row in MUTATIONS:
        start = time.perf_counter()
        code = pytest(row)
        outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        failed += code != 1
        print(f"{outcome}: {row.id} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(MUTATIONS) - failed} of {len(MUTATIONS)} rows killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
