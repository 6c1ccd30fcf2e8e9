"""tools/uncovered_lines.py lists the statements of src/aaatrig/ that a pytest
run leaves unexecuted, one ``path:line`` a line."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _source(entry):
    path, line = entry.rsplit(":", 1)
    return (ROOT / path).read_text().splitlines()[int(line) - 1].strip()


def test_lists_what_the_numerics_tests_leave_unexecuted():
    done = subprocess.run(
        [sys.executable, "tools/uncovered_lines.py", "tests/test_numerics.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert " passed" in done.stderr
    listed = done.stdout.splitlines()
    assert listed and all(re.fullmatch(r"src/aaatrig/\w+\.py:\d+", e) for e in listed)
    keys = [(path, int(line)) for path, line in (e.split(":") for e in listed)]
    assert keys == sorted(set(keys))
    source = {e: _source(e) for e in listed}
    assert not any(t.startswith(("def ", "class ", "import ", "from ", '"""'))
                   for t in source.values())
    # The numerics tests run all of numerics.py but its LAPACK failure raises.
    numerics = [t for e, t in source.items() if e.startswith("src/aaatrig/numerics.py:")]
    assert numerics
    assert all(re.match(r'raise np\.linalg\.LinAlgError\(f"\w+ failed', t) for t in numerics)
    # __main__.py is never run in process: its one statement is listed.
    assert [t for e, t in source.items() if "__main__" in e] == ["sys.exit(cli.main())"]
