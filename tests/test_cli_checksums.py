"""Every output checksum pinned in tests/golden/*.sha256 at or below 10^5.

Each pin is the sha256 of one command's csv stdout, written by the CLI as
it stood when the pin was added.  The commands run through cli.main in
this process, so the H table may already be longer than a command asks
for; `hurwitz --max 100000` reads it as it finds it.  `newform --method ec`
is checked against the CM route's pin: the two routes give the same
bytes.  The pins past 10^5 (`table --pmax 1000000` and
`hurwitz --max 1000000`) are checked by CI only.
"""

import hashlib
import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hcn7.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify-all", "verify-all.csv", ["verify", "--suite", "all"]),
    ("table-pmax-100000", "table-pmax-100000.csv", ["table", "--pmax", "100000"]),
    ("hurwitz-max-100000", "hurwitz-max-100000.csv", ["hurwitz", "--max", "100000"]),
    ("series-H", "series-H-order-100000.csv", ["series", "H", "--order", "100000"]),
    ("series-Lambda_1_0_7", "series-Lambda_1_0_7-order-100000.csv", ["series", "Lambda_1_0_7", "--order", "100000"]),
    ("series-Lambda_1_1_7", "series-Lambda_1_1_7-order-100000.csv", ["series", "Lambda_1_1_7", "--order", "100000"]),
    ("newform-cm", "newform-cm-nmax-100000.csv", ["newform", "--nmax", "100000", "--method", "cm"]),
    ("newform-ec", "newform-cm-nmax-100000.csv", ["newform", "--nmax", "100000", "--method", "ec"]),
]


@pytest.mark.parametrize("pin, argv", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_csv_stdout_matches_its_checksum(pin, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv + ["--format", "csv"])
    assert code == 0
    want = (GOLDEN / f"{pin}.sha256").read_text().split()[0]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want
